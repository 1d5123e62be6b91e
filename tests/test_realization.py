import pytest

from dimgroup.errors import BadCutPoints, DimensionMismatch, SchemaError
from dimgroup.ecs import ExtensionData, Stage, telescope_extension
from dimgroup.exact import Matrix
from dimgroup.realization import RealizationSeq


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
