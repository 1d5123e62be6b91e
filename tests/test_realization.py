import io
import json
import sys

import pytest
from hypothesis import example, given, strategies as st

from dimgroup import cli, realization
from dimgroup.ecrs import EcrsProblem, ecrs_pipeline
from dimgroup.ecs import (ExtensionData, Stage, ecs_pipeline,
                          telescope_extension)
from dimgroup.errors import (BadCutPoints, DimensionMismatch,
                             InvariantViolated, NumberTooLarge, SchemaError)
from dimgroup.ers import ErsStageData, ers_pipeline
from dimgroup.exact import Matrix
from dimgroup.realization import (RealizationSeq, dump_json, json_int,
                                  json_ints, json_list, json_matrix)
from dimgroup.verify import structural_report


def _seq():
    return RealizationSeq(
        (Matrix.from_rows([[1, 2], [2, 1]]), Matrix.from_rows([[2, 3], [3, 2]])),
        (3, 5),
        ((1, 1), (1, 1), (1, 1)),
        {"ecrs": True},
        {"pipeline": "test"})


def test_round_trip():
    seq = _seq()
    again = RealizationSeq.from_json(seq.to_json())
    assert again.matrices == seq.matrices
    assert again.stage_values == seq.stage_values
    assert again.markers == seq.markers
    assert again.properties == seq.properties


def test_json_uses_decimal_strings():
    obj = _seq().to_json()
    assert obj["stages"][0]["matrix"][0] == ["1", "2"]
    assert obj["stages"][0]["p"] == "3"
    assert obj["version"] == "1"


def test_entry_past_the_digit_limit_is_not_written():
    # json_strs' one guard falls back to the per-entry json_str, which names
    # the error.
    big = 10 ** sys.get_int_max_str_digits()
    seq = RealizationSeq((Matrix.from_rows([[1, big], [big, 1]]),),
                         (3,), None, {}, {})
    with pytest.raises(NumberTooLarge, match="more than a JSON reader"):
        seq.to_json()


def test_invariants():
    with pytest.raises(DimensionMismatch):
        RealizationSeq((Matrix.identity(2), Matrix.identity(3)), (1, 1))
    with pytest.raises(DimensionMismatch):
        RealizationSeq((Matrix.identity(2),), (1,), ((1, 1),))


def test_marker_chain():
    seq = _seq()
    assert seq.marker_chain_ok()
    bad = RealizationSeq(seq.matrices, (4, 5), seq.markers)
    assert not bad.marker_chain_ok()


def test_telescope():
    seq = _seq()
    trivial = seq.telescope([0, 1])
    assert trivial.matrices == seq.matrices
    merged = seq.telescope([0])
    assert merged.matrices[0] == seq.matrices[1] * seq.matrices[0]
    assert merged.stage_values == (15,)
    assert merged.markers == ((1, 1), (1, 1))
    with pytest.raises(BadCutPoints):
        seq.telescope([])
    with pytest.raises(BadCutPoints):
        seq.telescope([0, 2])


THREE_STAGES = {
    "realization": lambda cuts: RealizationSeq(
        (Matrix.from_rows([[1, 2], [2, 1]]),) * 3, (3, 3, 3)).telescope(cuts),
    "extension": lambda cuts: telescope_extension(
        ExtensionData(1, (Stage(5, (1,), Matrix.identity(1)),) * 3), cuts),
}


@pytest.mark.parametrize("cuts", [[], [-1], [3], [1, 1], [2, 1]],
                         ids=["empty", "negative", "past-the-end", "repeated",
                              "decreasing"])
@pytest.mark.parametrize("telescope", sorted(THREE_STAGES))
def test_both_telescopes_reject_bad_cut_points(telescope, cuts):
    with pytest.raises(BadCutPoints):
        THREE_STAGES[telescope](cuts)


def test_schema_errors():
    with pytest.raises(SchemaError):
        RealizationSeq.from_json({"version": "0"})
    with pytest.raises(SchemaError):
        RealizationSeq.from_json({"version": "1", "stages": [{"matrix": "x"}]})


def _built():
    ecs_in = {"k": 1, "stages": [{"p": 5, "v": [0], "B": [[1]]},
                                 {"p": 7, "v": [0], "B": [[1]]},
                                 {"p": 11, "v": [0], "B": [[1]]}]}
    ers_in = {"k": 1, "stages": [{"p": 25, "u": [8], "B": [[1]]},
                                 {"p": 125, "u": [5], "B": [[1]]}],
              "trace_row": [[1, 3]]}
    ecrs_in = {"k": 2, "lambda": 3, "rho": [1, 1], "p_seq": [7, 13, 19]}
    return [ecs_pipeline(ExtensionData.from_json(ecs_in)),
            ers_pipeline(ErsStageData.from_json(ers_in)),
            ecrs_pipeline(EcrsProblem.from_json(ecrs_in))]


def _written(obj) -> str:
    out = io.StringIO()
    dump_json(obj, out)
    return out.getvalue()


def test_dump_json_writes_the_same_values():
    """Built files, their verify reports and an error payload read back as
    the objects written, whatever the line layout."""
    objs = [obj for seq in _built()
            for obj in (seq.to_json(), structural_report(seq).report)]
    objs.append(cli._error_payload(InvariantViolated("broken", stage=2)))
    for obj in objs:
        text = _written(obj)
        assert text.endswith("}\n")
        assert json.loads(text) == obj


def test_dump_json_layout():
    text = _written({"a": [1, {"b": [2, 3]}], "c": [], "d": {"e": None}})
    assert text.splitlines() == ['{', ' "a": [', '  1,', '  {"b": [2, 3]}',
                                 ' ],', ' "c": [],', ' "d": {"e": null}',
                                 '}']
    assert _written({}) == "{\n}\n"


def test_saved_file_loads_as_the_sequence_saved(tmp_path):
    for idx, seq in enumerate(_built()):
        path = str(tmp_path / f"seq{idx}.json")
        seq.save(path)
        assert RealizationSeq.load(path) == seq


def _json_ints_by_entries(x):
    """Reference for json_ints: every entry through json_int."""
    return [json_int(v) for v in json_list(x)]


def _json_matrix_by_entries(x):
    """Reference for json_matrix: every entry through json_int."""
    return Matrix.from_rows(list(map(_json_ints_by_entries, json_list(x))))


def _outcome(parse, x):
    try:
        return parse(x)
    except (SchemaError, DimensionMismatch, ValueError) as exc:
        return type(exc).__name__, str(exc)


# Strings that int() reads but a file may not hold, strings that neither
# reads, and values that are not strings; then strings that the C JSON
# parser reads but a file may not hold, decimals with a leading zero, which
# a file may hold but that parser refuses, and one entry with more digits
# than int() reads.
_PAST_THE_LIMIT = "7" * (sys.get_int_max_str_digits() + 1)
_ODD_ENTRIES = ["+5", " 5", "5 ", "5\n", "5_0", "\u0663", "1,2", "1,", ",1",
                "", "-", "--1", "05", "-0", 7, True, 1.5, None, ["1"],
                "true", "null", "1.5", "1e3", "NaN", "Infinity", "-Infinity",
                "[1]", "0x1", "007", "-05", "00", _PAST_THE_LIMIT]
# Test ids for the entries whose own would repeat another's or run long.
_ODD_IDS = {"1.5": "1.5-string", _PAST_THE_LIMIT: "past-the-digit-limit"}


def _odd_id(entry):
    return _ODD_IDS.get(entry) if isinstance(entry, str) else None


@st.composite
def _json_rows(draw):
    """Rows of one width of decimal strings.  Half the time one row is
    changed: one of its entries, anywhere in it, becomes another value, or
    the row is replaced by one of any width and entries."""
    width = draw(st.integers(0, 4))
    decimal = st.from_regex(r"-?[0-9]{1,30}", fullmatch=True)
    rows = draw(st.lists(st.lists(decimal, min_size=width, max_size=width),
                         max_size=4))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        other = st.sampled_from(_ODD_ENTRIES) | st.integers(-10**30, 10**30) \
            | st.floats() | st.text(alphabet="-0123456789, _+", max_size=6)
        if width and draw(st.booleans()):
            rows[i][draw(st.integers(0, width - 1))] = draw(other)
        else:
            rows[i] = draw(st.lists(decimal | other, max_size=5))
    return rows


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("entry", _ODD_ENTRIES, ids=_odd_id)
def test_json_matrix_names_an_odd_entry_as_the_entries_would(entry, at):
    rows = [["1", "2", "3"], ["4", "5", "6"]]
    rows[1][at] = entry
    assert _outcome(json_matrix, rows) \
        == _outcome(_json_matrix_by_entries, rows)
    assert [_outcome(json_ints, row) for row in rows] \
        == [_outcome(_json_ints_by_entries, row) for row in rows]


@given(_json_rows())
@example([["1", "2"], ["3", "4"]])
@example([["1,2"], ["3"]])
@example([["1", "2"], ["3", "4", "5"], ["6"]])
@example([[]])
def test_json_matrix_checks_rows_as_the_entries_would(rows):
    """A row checked whole gives the matrix, or the list, or the error
    text, that checking its entries one by one gives."""
    assert _outcome(json_matrix, rows) \
        == _outcome(_json_matrix_by_entries, rows)
    assert [_outcome(json_ints, row) for row in rows] \
        == [_outcome(_json_ints_by_entries, row) for row in rows]


def test_a_matrix_is_read_whole_unless_an_entry_has_a_leading_zero(
        tmp_path, monkeypatch):
    """Loading a built file sends only its markers through json_ints; a
    matrix with a leading zero, which json.loads refuses, is read row by
    row through json_ints and equals the reference."""
    calls = []

    def counted(x):
        calls.append(x)
        return json_ints(x)

    seq = _built()[2]
    path = str(tmp_path / "ecrs.json")
    seq.save(path)
    monkeypatch.setattr(realization, "json_ints", counted)
    assert RealizationSeq.load(path) == seq
    assert calls == [list(map(str, h)) for h in seq.markers]
    calls.clear()
    rows = [["1", "2", "3"], ["4", "05", "6"]]
    assert json_matrix(rows) == _json_matrix_by_entries(rows)
    assert calls == rows
