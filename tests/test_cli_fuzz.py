"""The CLI's exit-code contract on mutated input files.

Every run of ``cli.main`` on a mutated realization file, build input or
group file must end in a documented exit code (0, 2, 3, 4 or 5) and print
exactly one JSON object on stdout, never a traceback.  A string in place of
any array is a schema error (exit 2), even one that iterates like the array.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from dimgroup import cli

REALIZATION = {
    "version": "1", "kind": "realization",
    "properties": {"ecs": True, "ers": True, "ecrs": True},
    "stages": [{"matrix": [["1", "2"], ["2", "1"]], "p": "3"},
               {"matrix": [["1", "2"], ["2", "1"]], "p": "3"}],
    "markers": [["1", "1"], ["1", "1"], ["1", "1"]],
    "provenance": {"source": "hand-written"},
}
ECS_INPUT = {"k": 1, "stages": [{"p": 5, "v": [0], "B": [[1]]},
                                {"p": 7, "v": [0], "B": [[1]]}]}
ERS_INPUT = {"k": 1, "stages": [{"p": 25, "u": [8], "B": [[1]]},
                                {"p": 125, "u": [5], "B": [[1]]}],
             "trace_row": [[1, 3]]}
ECRS_INPUT = {"k": 2, "lambda": 3, "rho": [1, 1], "p_seq": [7, 13, 19]}
GROUP = {"finite": {"2": 3, "5": 2}, "infinite": [3]}

# (command line with IN and OUT for the file paths, the file it reads)
TARGETS = [
    (["verify", "-i", "IN"], REALIZATION),
    (["telescope", "-i", "IN", "--cuts", "1", "-o", "OUT"], REALIZATION),
    (["build", "ecs", "-i", "IN", "-o", "OUT"], ECS_INPUT),
    (["build", "ers", "-i", "IN", "-o", "OUT"], ERS_INPUT),
    (["build", "ecrs", "-i", "IN", "-o", "OUT"], ECRS_INPUT),
    (["decide", "--rank", "2", "--lambda", "3", "--group", "IN"], GROUP),
]

HUGE = 10 ** 40
ENTRIES = st.one_of(st.sampled_from([0, -1, 1, 2, -HUGE, HUGE]),
                    st.integers(-HUGE, HUGE))
WRONG_TYPES = st.sampled_from([None, 1.5, True, "x", "", {}, [[]], [None]])
VERSIONS = st.sampled_from(["2", 1, None, ""])
# Value mutations come up most often: they are what reaches the pipelines
# and the verifier rather than the parser.
KINDS = ["entry"] * 4 + ["drop", "empty", "ragged", "wrong-type", "version",
                         "deep", "string-array"]
DAMAGE = [None] * 6 + ["truncate", "non-utf8"]
DEEP = "@deep@"
DEPTH = 100_000                 # far past any recursion limit in use


def _slots(obj, out):
    """Every (container, key) pair under obj, parents before children."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        items = []
    for key, value in items:
        out.append((obj, key))
        _slots(value, out)
    return out


def _mutate(draw, obj, kind):
    if kind == "version":
        obj["version"] = draw(VERSIONS)
        return
    slots = _slots(obj, [])
    if kind in ("ragged", "string-array"):
        slots = [s for s in slots if isinstance(s[0][s[1]], list)]
    elif kind == "entry":
        slots = [s for s in slots if not isinstance(s[0][s[1]], (dict, list))]
    if not slots:
        return
    container, key = draw(st.sampled_from(slots))
    if kind == "drop":
        del container[key]
    elif kind == "empty":
        container[key] = []
    elif kind == "ragged":
        row = container[key]
        row.append(copy.deepcopy(row[0]) if row else "1")
    elif kind == "entry":
        value = draw(ENTRIES)
        container[key] = str(value) if draw(st.booleans()) else value
    elif kind == "string-array":
        container[key] = draw(strings_for(container[key]))
    elif kind == "wrong-type":
        container[key] = copy.deepcopy(draw(WRONG_TYPES))
    else:                                   # nesting past the recursion limit
        container[key] = DEEP


def strings_for(array):
    """Strings to put in place of ``array``: its items run together, so
    that iterating the string gives them back when each is one character,
    its JSON text, and the empty string."""
    joined = "".join(x if isinstance(x, str) else json.dumps(x)
                     for x in array)
    return st.sampled_from([joined, json.dumps(array), ""])


@st.composite
def mutated_files(draw):
    argv, base = draw(st.sampled_from(TARGETS))
    obj = copy.deepcopy(base)
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=3))
    for kind in kinds:
        _mutate(draw, obj, kind)
    data = json.dumps(obj).replace(
        json.dumps(DEEP), "[" * DEPTH + "]" * DEPTH).encode()
    damage = draw(st.sampled_from(DAMAGE))
    if damage == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif damage == "non-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) \
            + data[at:]
    return argv, data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(workdir, case):
    """Exit code and parsed stdout of ``cli.main`` on one generated file."""
    argv, data = case
    path = workdir / "in.json"
    path.write_bytes(data)
    paths = {"IN": str(path), "OUT": str(workdir / "out.json")}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([paths.get(arg, arg) for arg in argv])
    return code, json.loads(out.getvalue())


@settings(deadline=None, max_examples=500)
@given(case=mutated_files())
def test_every_input_keeps_the_exit_code_contract(workdir, case):
    code, payload = run_main(workdir, case)
    assert code in (0, 2, 3, 4, 5)
    assert isinstance(payload, dict)


@st.composite
def arrays_as_strings(draw):
    argv, base = draw(st.sampled_from(TARGETS))
    obj = copy.deepcopy(base)
    _mutate(draw, obj, "string-array")
    return argv, json.dumps(obj).encode()


@settings(deadline=None, max_examples=200)
@given(case=arrays_as_strings())
def test_a_string_in_place_of_an_array_is_a_schema_error(workdir, case):
    code, payload = run_main(workdir, case)
    assert (code, payload["error"]) == (2, "SchemaError"), case
