import io
import json

import pytest

from dimgroup import cli
from dimgroup.ecrs import EcrsProblem, ecrs_pipeline
from dimgroup.ecs import (ExtensionData, Stage, ecs_pipeline,
                          telescope_extension)
from dimgroup.errors import (BadCutPoints, DimensionMismatch,
                             InvariantViolated, SchemaError)
from dimgroup.ers import ErsStageData, ers_pipeline
from dimgroup.exact import Matrix
from dimgroup.realization import RealizationSeq, dump_json
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
            ers_pipeline(ErsStageData.from_json(ers_in), 2),
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
