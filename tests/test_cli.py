import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from dimgroup import cli, errors

EXE = [sys.executable, "-m", "dimgroup"]

ECS_INPUT = {"k": 1, "stages": [{"p": 5, "v": [0], "B": [[1]]},
                                {"p": 7, "v": [0], "B": [[1]]},
                                {"p": 11, "v": [0], "B": [[1]]}]}
ERS_INPUT = {"k": 1, "stages": [{"p": 25, "u": [8], "B": [[1]]},
                                {"p": 125, "u": [5], "B": [[1]]}],
             "trace_row": [[1, 3]]}
ECRS_INPUT = {"k": 2, "lambda": 3, "rho": [1, 1], "p_seq": [7, 13, 19]}


def run_cli(*args):
    proc = subprocess.run(EXE + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("kind,payload", [
    ("ecs", ECS_INPUT), ("ers", ERS_INPUT), ("ecrs", ECRS_INPUT)])
def test_build_verify_round_trip(tmp_path, kind, payload):
    inp = write(tmp_path, "in.json", payload)
    out = str(tmp_path / "out.json")
    code, stdout = run_cli("build", kind, "-i", inp, "-o", out)
    assert code == 0, stdout
    code, stdout = run_cli("verify", "-i", out)
    assert code == 0, stdout
    report = json.loads(stdout)
    assert report["ok"]
    assert report["claim_checks"][kind]


def test_verify_detects_perturbation(tmp_path):
    inp = write(tmp_path, "in.json", ECS_INPUT)
    out = str(tmp_path / "out.json")
    assert run_cli("build", "ecs", "-i", inp, "-o", out)[0] == 0
    blob = json.loads(open(out).read())
    entry = int(blob["stages"][1]["matrix"][0][0])
    blob["stages"][1]["matrix"][0][0] = str(entry + 1)
    open(out, "w").write(json.dumps(blob))
    code, stdout = run_cli("verify", "-i", out)
    assert code == 4
    report = json.loads(stdout)
    assert not report["ok"]
    assert any(f["stage"] == 2 for f in report["failures"])


def test_build_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, stdout = run_cli("build", "ecs", "-i", str(bad),
                           "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert json.loads(stdout)["error"] == "SchemaError"


def test_build_missing_file(tmp_path):
    code, stdout = run_cli("build", "ecs", "-i", str(tmp_path / "none.json"),
                           "-o", str(tmp_path / "x.json"))
    assert code == 5


def test_build_lambda_too_small(tmp_path):
    inp = write(tmp_path, "in.json",
                {"k": 2, "lambda": 2, "rho": [1, 1], "p_seq": [5, 9]})
    code, stdout = run_cli("build", "ecrs", "-i", inp,
                           "-o", str(tmp_path / "x.json"))
    assert code == 3
    payload = json.loads(stdout)
    assert payload["error"] == "LambdaTooSmall"
    assert "rank" in payload["message"]


def test_decide_command(tmp_path):
    group = write(tmp_path, "g.json", {"finite": {"2": 3, "5": 2},
                                       "infinite": []})
    code, stdout = run_cli("decide", "--rank", "3", "--group", group,
                           "--lambda", "2")
    assert code == 0
    decision = json.loads(stdout)
    assert decision["exists"] is False
    assert decision["reason"] == "rank-exceeds-index"

    group2 = write(tmp_path, "g2.json", {"finite": {}, "infinite": [2]})
    code, stdout = run_cli("decide", "--rank", "inf", "--group", group2,
                           "--lambda", "4")
    assert json.loads(stdout)["exists"] is True


@pytest.mark.parametrize("rank,code", [("inf", 0), ("INF ", 0), ("x", 2),
                                       ("oo", 2), ("infinite", 2),
                                       (" 3", 0), ("1_0", 2), ("+3", 2),
                                       ("\u0663", 2)])
def test_decide_rank_is_a_count_or_inf(tmp_path, capsys, rank, code):
    # Only ASCII decimal digits are a count: int() would also take "1_0",
    # "+3" and the Arabic-Indic digit three.
    group = write(tmp_path, "g.json", {"finite": {}, "infinite": [2]})
    assert cli.main(["decide", "--rank", rank, "--group", group,
                     "--lambda", "4"]) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert out["error"] == "SchemaError"
        assert "not a positive count" in out["message"]
    else:
        assert out["exists"] is True


@pytest.mark.parametrize("stages,strict,text", [
    ([{"p": 125, "u": [5], "B": [[1]]}, {"p": 25, "u": [8], "B": [[1]]}],
     False, "stage 2: stage values must be nondecreasing"),
    ([{"p": 25, "u": [-25], "B": [[1]]}],
     False, "stage 1: ||u|| = 25 not below p = 25"),
    ([{"p": 65537, "u": [17], "B": [[1]]}],
     True, "stage 1: strict bound ||u|| <= p^(1/4) fails"),
], ids=["decreasing-p", "plain-u-bound", "strict-u-bound"])
def test_build_ers_regime_is_checked(tmp_path, capsys, stages, strict, text):
    inp = write(tmp_path, "in.json", {"k": 1, "stages": stages,
                                      "trace_row": [[1, 3]]})
    out = tmp_path / "out.json"
    argv = ["build", "ers", "-i", inp, "-o", str(out)]
    assert cli.main(argv + ["--strict-bounds"] * strict) == 3
    payload = json.loads(capsys.readouterr().out)
    assert (payload["error"], payload["message"]) == ("RegimeViolation", text)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["ecs", "ecrs"])
def test_strict_bounds_is_refused_outside_build_ers(tmp_path, capsys, kind):
    """The flag bounds the ERS regime only; another build is refused with
    exit 2 before its input is read, and writes no file."""
    inp = write(tmp_path, "in.json",
                {"ecs": ECS_INPUT, "ecrs": ECRS_INPUT}[kind])
    out = tmp_path / "out.json"
    assert cli.main(["build", kind, "-i", inp, "-o", str(out),
                     "--strict-bounds"]) == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == {
        "error": "SchemaError",
        "message": "--strict-bounds applies to build ers only"}
    assert not out.exists()
    assert cli.main(["build", kind, "-i", inp, "-o", str(out)]) == cli.EXIT_OK


def test_telescope_command(tmp_path):
    inp = write(tmp_path, "in.json", ECS_INPUT)
    built = str(tmp_path / "out.json")
    assert run_cli("build", "ecs", "-i", inp, "-o", built)[0] == 0

    tel = str(tmp_path / "tel.json")
    code, stdout = run_cli("telescope", "-i", built, "--cuts", "1,3", "-o", tel)
    assert code == 0
    result = json.loads(stdout)
    assert result["lost_flags"] == []
    code, stdout = run_cli("verify", "-i", tel)
    assert code == 0
    report = json.loads(stdout)
    values = [st["designed_value"] for st in report["stages"]]
    assert values == ["35", "11"]       # column sums multiply

    # trivial cuts reproduce the input stages
    code, stdout = run_cli("telescope", "-i", built, "--cuts", "1,2,3",
                           "-o", str(tmp_path / "t2.json"))
    assert code == 0
    assert json.loads(open(tmp_path / "t2.json").read())["stages"] == \
        json.loads(open(built).read())["stages"]

    code, stdout = run_cli("telescope", "-i", built, "--cuts", "5",
                           "-o", str(tmp_path / "t3.json"))
    assert code == 3


def test_verify_handwritten_stationary_ecrs(tmp_path):
    blob = {
        "version": "1",
        "kind": "realization",
        "properties": {"ecs": True, "ers": True, "ecrs": True},
        "stages": [{"matrix": [["1", "2"], ["2", "1"]], "p": "3"},
                   {"matrix": [["1", "2"], ["2", "1"]], "p": "3"}],
        "markers": [["1", "1"], ["1", "1"], ["1", "1"]],
        "provenance": {"source": "hand-written"},
    }
    path = tmp_path / "stationary.json"
    path.write_text(json.dumps(blob))
    code, stdout = run_cli("verify", "-i", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert report["derived"] == {"ecs": True, "ers": True, "ecrs": True}


def test_telescope_preserves_ecrs(tmp_path):
    inp = write(tmp_path, "in.json", ECRS_INPUT)
    built = str(tmp_path / "out.json")
    assert run_cli("build", "ecrs", "-i", inp, "-o", built)[0] == 0
    tel = str(tmp_path / "tel.json")
    code, stdout = run_cli("telescope", "-i", built, "--cuts", "1", "-o", tel)
    assert code == 0
    result = json.loads(stdout)
    assert result["properties"]["ecrs"] is True
    assert run_cli("verify", "-i", tel)[0] == 0


@pytest.mark.parametrize("command", ["verify", "telescope"])
@pytest.mark.parametrize("stages", [
    [{"matrix": [["1", "2"], ["2", "1"]], "p": "3"},      # 2x2 then 3x3
     {"matrix": [["1", "1", "1"]] * 3, "p": "3"}],
    [{"matrix": [], "p": "3"}],
], ids=["non-chaining", "empty-matrix"])
def test_unbuildable_file_is_schema_error(tmp_path, command, stages):
    path = write(tmp_path, "bad.json", {"version": "1", "kind": "realization",
                                        "properties": {}, "stages": stages,
                                        "markers": None})
    extra = (["--cuts", "1", "-o", str(tmp_path / "t.json")]
             if command == "telescope" else [])
    code, stdout = run_cli(command, "-i", path, *extra)
    assert code == 2
    assert json.loads(stdout)["error"] == "SchemaError"


def realization_file(tmp_path, matrix, p, flags):
    return write(tmp_path, "seq.json", {
        "version": "1", "kind": "realization",
        "properties": dict.fromkeys(flags, True),
        "stages": [{"matrix": [[str(x) for x in row] for row in matrix],
                    "p": str(p)}],
        "markers": None})


def test_non_primitive_stage_fails_every_claim(tmp_path):
    path = realization_file(tmp_path, [[2, 0], [0, 2]], 2,
                            ("ecs", "ers", "ecrs"))
    code, stdout = run_cli("verify", "-i", path)
    assert code == 4
    report = json.loads(stdout)
    assert report["derived"] == {"ecs": False, "ers": False, "ecrs": False}
    assert report["failures"] == [{"stage": 1, "check": flag}
                                  for flag in ("ecs", "ers", "ecrs")]


@pytest.mark.parametrize("flags", [(), ("ecs", "ers", "ecrs")],
                         ids=["no-claims", "claims"])
@pytest.mark.parametrize("command", ["verify", "telescope"])
def test_zero_matrix_file_reports_without_traceback(tmp_path, command, flags):
    path = realization_file(tmp_path, [[0, 0], [0, 0]], 0, flags)
    extra = (["--cuts", "1", "-o", str(tmp_path / "t.json")]
             if command == "telescope" else [])
    proc = subprocess.run(EXE + [command, "-i", path, *extra],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    if command == "verify":
        assert proc.returncode == (4 if flags else 0)
        assert payload["trace"] is None
    else:
        assert proc.returncode == 0
        assert payload["lost_flags"] == list(flags)


@pytest.mark.parametrize("command", ["verify", "telescope"])
def test_verification_error_exits_4_with_payload(tmp_path, monkeypatch,
                                                 capsys, command):
    def fail(seq):
        raise errors.NotPrimitive("not primitive", stage=1)
    monkeypatch.setattr(cli, "structural_report", fail)
    inp = write(tmp_path, "in.json", ECS_INPUT)
    built = str(tmp_path / "out.json")
    assert run_cli("build", "ecs", "-i", inp, "-o", built)[0] == 0
    out = tmp_path / "t.json"
    extra = ["--cuts", "1", "-o", str(out)] if command == "telescope" else []
    assert cli.main([command, "-i", built, *extra]) == cli.EXIT_VERIFY
    assert json.loads(capsys.readouterr().out) == {
        "error": "NotPrimitive", "message": "stage 1: not primitive",
        "stage": 1}
    assert not out.exists()


def test_broken_invariant_exits_3_with_payload(tmp_path, monkeypatch, capsys):
    # Without the normalizer the stages keep rho (1, 2), so the check that
    # every stage came out normalized fails at stage 1.
    from dimgroup import ecrs
    from dimgroup.exact import UnimodularTransform
    monkeypatch.setattr(ecrs, "normalize_to_ones",
                        lambda prob: UnimodularTransform(prob.k + 1, ()))
    inp = write(tmp_path, "in.json",
                {"k": 2, "lambda": 3, "rho": [1, 2], "p_seq": [7, 13]})
    out = tmp_path / "out.json"
    assert cli.main(["build", "ecrs", "-i", inp, "-o", str(out)]) \
        == cli.EXIT_CONSTRUCTION
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InvariantViolated"
    assert payload["stage"] == 1
    assert not out.exists()


STRICT_BASE = {"version": "1", "kind": "realization",
               "properties": {"ecs": True, "ers": True, "ecrs": True},
               "stages": [{"matrix": [["2"]], "p": "2"}], "markers": None}


@pytest.mark.parametrize("command", ["verify", "telescope"])
@pytest.mark.parametrize("change", [
    {},
    {"stages": [{"matrix": [[2.5]], "p": "2"}]},
    {"stages": [{"matrix": [[True]], "p": "1"}]},
    {"stages": [{"matrix": [["2"]], "p": 2.0}]},
    {"stages": [{"matrix": [["2"]], "p": "2.0"}]},
    {"markers": [[1.5], ["1"]]},
    {"properties": [1]},
    {"properties": {"ecs": "no"}},
    {"provenance": [1]},
    {"stages": [{"matrix": ["2"], "p": "2"}]},
    {"stages": [{"matrix": "2", "p": "2"}]},
    {"stages": [{"matrix": [["1", "2"], ["2", "1"]], "p": "3"}],
     "markers": ["11", "11"]},
], ids=["valid", "float-entry", "bool-entry", "float-p", "decimal-string-p",
        "float-marker", "properties-list", "string-flag", "provenance-list",
        "string-row", "string-matrix", "string-markers"])
def test_file_values_are_parsed_strictly(tmp_path, capsys, command, change):
    path = write(tmp_path, "seq.json", {**STRICT_BASE, **change})
    extra = (["--cuts", "1", "-o", str(tmp_path / "t.json")]
             if command == "telescope" else [])
    code = cli.main([command, "-i", path, *extra])
    payload = json.loads(capsys.readouterr().out)
    if not change:
        assert code == cli.EXIT_OK
        return
    assert code == cli.EXIT_SCHEMA
    assert payload["error"] == "SchemaError"


@pytest.mark.parametrize("entry,message", [
    ("+5", "not an integer: '+5'"),
    (" 5", "not an integer: ' 5'"),
    ("5_0", "not an integer: '5_0'"),
    ("\u0663", "not an integer: '\u0663'"),
    ("1,2", "not an integer: '1,2'"),
    (True, "not an integer: True"),
    (1.0, "not an integer: 1.0"),
    (None, "not an integer: None"),
    ([], "not an integer: []"),
], ids=["plus", "space", "underscore", "arabic-indic-digit", "comma", "true",
        "float", "null", "array"])
def test_bad_matrix_entry_is_named(tmp_path, capsys, entry, message):
    """A row is read in one pass only when every entry is a decimal
    string; a row with any other entry is read entry by entry, so the
    error names the first bad entry.  The entries that int() would accept
    but a realization file does not are refused too."""
    path = write(tmp_path, "seq.json", {
        **STRICT_BASE, "stages": [{"matrix": [["1", "1"], ["1", entry]],
                                   "p": "2"}]})
    assert cli.main(["verify", "-i", path]) == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == {"error": "SchemaError",
                                                   "message": message}


@pytest.mark.parametrize("kind,payload", [
    ("ecs", {**ECS_INPUT, "k": 1.0}),
    ("ecs", {"k": 1, "stages": [{"p": 5.5, "v": [0], "B": [[1]]}]}),
    ("ers", {**ERS_INPUT, "trace_row": [[1, True]]}),
    ("ers", {"k": 1, "stages": [{"p": 25, "u": [8.9], "B": [[1]]}],
             "trace_row": [[1, 3]]}),
    ("ecrs", {**ECRS_INPUT, "lambda": 3.0}),
    ("ecrs", {**ECRS_INPUT, "p_seq": [7, 13.0, 19]}),
    ("ecs", {"k": 1, "stages": [{"p": 5, "v": "0", "B": [[1]]}]}),
    ("ecs", {"k": 1, "stages": [{"p": 5, "v": [0], "B": ["1"]}]}),
    ("ers", {**ERS_INPUT, "trace_row": ["13"]}),
    ("ecrs", {**ECRS_INPUT, "rho": "11"}),
    ("ecrs", {**ECRS_INPUT, "p_seq": "7"}),
    ("ecrs", {"k": 1, "lambda": 1, "rho": [1], "p_seq": [2],
              "seed_matrix": ["11", "11"]}),
], ids=["ecs-k", "ecs-p", "ers-trace-row", "ers-u", "ecrs-lambda",
        "ecrs-p-seq", "ecs-string-v", "ecs-string-row", "ers-string-pair",
        "ecrs-string-rho", "ecrs-string-p-seq",
        "ecrs-string-seed-rows"])
def test_build_input_is_parsed_strictly(tmp_path, capsys, kind, payload):
    inp = write(tmp_path, "in.json", payload)
    out = tmp_path / "out.json"
    assert cli.main(["build", kind, "-i", inp, "-o", str(out)]) \
        == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"
    assert not out.exists()


@pytest.mark.parametrize("kind,payload", [
    ("ecs", {"k": 1, "stages": [{"p": 5, "v": [0], "B": []}]}),
    ("ecs", {"k": 1, "stages": [{"p": 5, "v": [0, 1], "B": [[1]]}]}),
    ("ecs", {"k": 1, "stages": [{"p": 5, "v": [0], "B": [[1, 2]]}]}),
    ("ers", {**ERS_INPUT, "trace_row": [[1, 3], [1, 2]]}),
    ("ecrs", {**ECRS_INPUT, "seed_matrix": [[]]}),
    ("ecrs", {**ECRS_INPUT, "rho": [1]}),
    ("ecrs", {"k": 1, "lambda": 2, "rho": [1], "p_seq": []}),
    ("ecrs", {"k": 1, "lambda": 1, "rho": [1], "p_seq": [3],
              "seed_matrix": [[1, 1]]}),
], ids=["ecs-empty-B", "ecs-long-v", "ecs-non-square-B", "ers-long-trace-row",
        "ecrs-empty-seed", "ecrs-short-rho", "ecrs-no-factors",
        "ecrs-non-square-seed"])
def test_misshapen_build_input_is_schema_error(tmp_path, capsys, kind,
                                               payload):
    inp = write(tmp_path, "in.json", payload)
    out = tmp_path / "out.json"
    assert cli.main(["build", kind, "-i", inp, "-o", str(out)]) \
        == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b'{"version": "1\xff"}',
    b"[" * 100000 + b"]" * 100000,
], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("command", ["verify", "build", "telescope",
                                     "decide"])
def test_unreadable_json_is_schema_error(tmp_path, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    out = str(tmp_path / "out.json")
    argv = {"verify": ["verify", "-i", str(path)],
            "build": ["build", "ers", "-i", str(path), "-o", out],
            "telescope": ["telescope", "-i", str(path), "--cuts", "1",
                          "-o", out],
            "decide": ["decide", "--rank", "1", "--lambda", "2",
                       "--group", str(path)]}[command]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"


def _assert_horizon_is_refused(tmp_path, capsys, horizon):
    inp = write(tmp_path, "in.json", ERS_INPUT)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "ers", "-i", inp, "-o", str(out),
                  "--horizon", horizon])
    assert exc.value.code == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: dimgroup")
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_ers_horizon_below_one_is_schema_error(tmp_path, capsys, horizon):
    """build has no --horizon option, so a horizon below one is still a
    schema error (exit 2), now refused by argparse with no output."""
    _assert_horizon_is_refused(tmp_path, capsys, horizon)


def test_build_has_no_horizon_option(tmp_path, capsys):
    """build ers builds the stages it is given; --horizon is refused by
    argparse (exit 2, usage on stderr, no output) and not in build --help."""
    _assert_horizon_is_refused(tmp_path, capsys, "1")
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--help"])
    assert exc.value.code == cli.EXIT_OK
    help_text = capsys.readouterr().out
    assert "--strict-bounds" in help_text and "--horizon" not in help_text


@pytest.mark.parametrize("n", [1, 2])
def test_ers_provenance_horizon_counts_the_stages_built(tmp_path, capsys, n):
    """The provenance horizon is the input's stage count."""
    inp = write(tmp_path, "in.json",
                {**ERS_INPUT, "stages": ERS_INPUT["stages"][:n]})
    out = tmp_path / "out.json"
    assert cli.main(["build", "ers", "-i", inp, "-o", str(out)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["stages"] == n
    assert json.loads(out.read_text())["provenance"]["horizon"] == n


# sha256 of the files that `build ers --horizon N` wrote for the whole input
# before the option was removed; a build of the input's first N stages must
# write the same bytes.  NON_SYMMETRIC_B_INPUT is the first k = 2 input of
# test_ers.NON_SYMMETRIC_B.
NON_SYMMETRIC_B_INPUT = {"k": 2, "stages": [
    {"p": 67, "u": [6, -5], "B": [[1, 1], [0, 1]]},
    {"p": 82, "u": [-5, -8], "B": [[1, 2], [0, 1]]},
    {"p": 111, "u": [4, -6], "B": [[1, 1], [0, 1]]}],
    "trace_row": [[2, 9], [-1, 4]]}
HORIZON_BUILD_SHA256 = [
    (ERS_INPUT, 1,
     "4c6a266a9e03f86465692331a749f7abc8acd3c0401d3bfd87478e0c24595806"),
    (ERS_INPUT, 2,
     "56aa1ac32e2627299f2c5b04d143593c3bb4c6d745670ee565247f07f289e7c2"),
    (NON_SYMMETRIC_B_INPUT, 1,
     "8b764c5aca75e5df6b5d44b15c80ef93c106b8c3bc07be110774b806ec863d0c"),
    (NON_SYMMETRIC_B_INPUT, 2,
     "e9b2541ccf2cdc1fff68c99742063acf790a993bd06e5f3682eaaf1a9e44784f"),
    (NON_SYMMETRIC_B_INPUT, 3,
     "622ec36905efa2051a09c8af504398c66538f00fddba92c4b3b4a8c0f063d39e"),
]


@pytest.mark.parametrize("payload,n,digest", HORIZON_BUILD_SHA256,
                         ids=["readme-1", "readme-2", "non-symmetric-b-1",
                              "non-symmetric-b-2", "non-symmetric-b-3"])
def test_ers_prefix_build_writes_the_horizon_build_bytes(tmp_path, capsys,
                                                         payload, n, digest):
    inp = write(tmp_path, "in.json",
                {**payload, "stages": payload["stages"][:n]})
    out = tmp_path / "out.json"
    assert cli.main(["build", "ers", "-i", inp, "-o", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_STAGE = {"p": 25, "u": [1, 2], "B": [[1, 0], [0, 1]]}


def _stage(drop=(), **changes):
    """_STAGE with the given entries changed and the keys in drop left out."""
    st = {**_STAGE, **changes}
    return {key: st[key] for key in st if key not in drop}


def _ers(stages, drop=(), **changes):
    """A k = 2 ERS input of the given stages, changed likewise."""
    obj = {"k": 2, "stages": stages, "trace_row": [[1, 3], [1, 5]],
           **changes}
    return {key: obj[key] for key in obj if key not in drop}


# The error text of each malformed ERS input; each exits 2 with a
# SchemaError.  ERS stages are read and checked as ECS stages, so two texts
# are the ECS ones: a B that is not k x k for its vector, where the ERS
# reader used to say "stage B must be k x k with u of length k", and a
# vector whose length is not k, where it used to say "stage row length !=
# k".  The rest, and which error a doubly malformed input reports, are as
# the ERS reader had them.
_M = "malformed ERS stage data: "
_DIM = _M + "stage B must be k x k, k the length of the stage vector"
_LEN = _M + "stage vector length != k"
ERS_INPUT_ERRORS = {
    "missing-u": (_ers([_STAGE, _stage(drop=("u",))]), _M + "'u'"),
    "missing-B": (_ers([_stage(drop=("B",))]), _M + "'B'"),
    "missing-p-and-u": (_ers([_stage(drop=("p", "u"))]), _M + "'p'"),
    "bad-u-and-missing-B": (_ers([_stage(u="12", drop=("B",))]),
                            "not an array: '12'"),
    "ragged-B": (_ers([_stage(B=[[1, 0], [0]])]), _M + "ragged rows"),
    "float-in-B": (_ers([_stage(B=[[1, 0], [0, 1.5]])]),
                   "not an integer: 1.5"),
    "B-not-square": (_ers([_stage(B=[[1, 0, 0], [0, 1, 0]])]), _DIM),
    "u-longer-than-B": (_ers([_stage(u=[1, 2, 3])]), _DIM),
    "u-shorter-than-B": (_ers([_stage(u=[1])]), _DIM),
    "u-length-not-k": (_ers([_STAGE, _stage(u=[1], B=[[1]])]), _LEN),
    "singular-B": (_ers([_stage(B=[[1, 2], [2, 4]])] * 2),
                   "stage B must have nonzero determinant"),
    "p-1": (_ers([_stage(p=1)]), "stage factor must exceed 1, got 1"),
    "p-not-an-integer": (_ers([_stage(p="abc")]), "not an integer: 'abc'"),
    "stage-not-an-object": (
        _ers([[25, [1, 2], [[1, 0], [0, 1]]]]),
        _M + "list indices must be integers or slices, not str"),
    "zero-denominator-in-trace-row": (
        _ers([_STAGE], trace_row=[[1, 0], [1, 5]]), _M + "Fraction(1, 0)"),
    "long-trace-row": (_ers([_STAGE], trace_row=[[1, 3], [1, 5], [1, 7]]),
                       _M + "trace row length != k"),
    "triple-in-trace-row": (_ers([_STAGE], trace_row=[[1, 3, 4], [1, 5]]),
                            _M + "too many values to unpack (expected 2)"),
    "missing-trace-row": (_ers([_STAGE], drop=("trace_row",)),
                          _M + "'trace_row'"),
    "bad-stage-before-bad-trace-row": (
        _ers([_stage(p=1)], trace_row=[[1, 0]]),
        "stage factor must exceed 1, got 1"),
    "empty-stage-list": (_ers([]), "need at least one stage"),
    "stages-not-an-array": (_ers({"p": 25}), "not an array: {'p': 25}"),
    "k-0": (_ers([_STAGE], k=0), "k must be >= 1"),
    "k-0-before-empty-stage-list": (_ers([], k=0), "k must be >= 1"),
    "missing-k": (_ers([_STAGE], drop=("k",)), _M + "'k'"),
}


@pytest.mark.parametrize("payload,message", ERS_INPUT_ERRORS.values(),
                         ids=ERS_INPUT_ERRORS)
def test_ers_input_error_texts(tmp_path, capsys, payload, message):
    inp = write(tmp_path, "in.json", payload)
    out = tmp_path / "out.json"
    assert cli.main(["build", "ers", "-i", inp, "-o", str(out)]) \
        == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) \
        == {"error": "SchemaError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("group,rank,lam", [
    ({"finite": {"2": 1.5}}, "1", "2"),
    ({"finite": {"2": True}}, "1", "2"),
    ({"infinite": [1]}, "1", "2"),
    ({"infinite": [0]}, "1", "2"),
    ({"infinite": [-2]}, "1", "2"),
    ({"finite": {"1": 2}}, "1", "2"),
    ({"finite": {"2": 1}}, "0", "2"),
    ({"finite": {"2": 1}}, "1", "0"),
    ({"finite": {"2": 1}}, "1", "-3"),
    ({"finite": {"4": 1}}, "2", "3"),
    ({"infinite": [91]}, "2", "3"),
    ({"finite": {"2047": 1}}, "2", "3"),
    ({"infinite": "23"}, "2", "3"),
    ({"infinite": {"2": 1}}, "2", "3"),
], ids=["float-multiplicity", "bool-multiplicity", "infinite-1",
        "infinite-0", "infinite-negative", "finite-1", "rank-0", "lambda-0",
        "lambda-negative", "finite-composite", "infinite-composite",
        "strong-pseudoprime-to-base-2", "infinite-string", "infinite-object"])
def test_decide_rejects_non_primes_and_counts_below_one(tmp_path, capsys,
                                                        group, rank, lam):
    path = write(tmp_path, "g.json", group)
    assert cli.main(["decide", "--rank", rank, "--group", path,
                     "--lambda", lam]) == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"


# 6 * 10^4299 has the most digits (4,300) that a JSON reader accepts.
BIG = "6" + "0" * 4299


@pytest.mark.parametrize("command,stages", [
    ("verify", [{"matrix": [[BIG, BIG], [BIG, BIG]], "p": "2"}]),
    ("telescope", [{"matrix": [[BIG]], "p": BIG},
                   {"matrix": [[BIG]], "p": BIG}]),
], ids=["verify-column-sums", "telescope-product"])
def test_number_past_the_digit_limit_is_refused_not_written(
        tmp_path, command, stages):
    path = write(tmp_path, "big.json", {"version": "1", "kind": "realization",
                                        "properties": {"ecs": True},
                                        "stages": stages, "markers": None})
    out = tmp_path / "t.json"
    extra = (["--cuts", "1", "-o", str(out)] if command == "telescope"
             else [])
    proc = subprocess.run(EXE + [command, "-i", path, *extra],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"] == "NumberTooLarge"
    assert not out.exists()


def test_ecrs_size_past_any_matrix_is_schema_error(tmp_path):
    """lambda q = 3 * 10^40 stage rows cannot be allocated; the input is
    refused before anything is built."""
    inp = write(tmp_path, "in.json", {**ECRS_INPUT, "q": 10 ** 40})
    out = tmp_path / "out.json"
    proc = subprocess.run(EXE + ["build", "ecrs", "-i", inp, "-o", str(out)],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"] == "SchemaError"
    assert "lambda q" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("command,obj", [
    ("verify", {"version": "1", "kind": "realization",
                "stages": [{"matrix": "1" * 100000, "p": "2"}]}),
    ("decide", {"finite": {"2" + "0" * 4299: 1}}),
], ids=["string-matrix", "composite-key"])
def test_error_echoes_a_bounded_part_of_a_huge_value(tmp_path, capsys,
                                                     command, obj):
    path = write(tmp_path, "in.json", obj)
    argv = (["verify", "-i", path] if command == "verify" else
            ["decide", "--rank", "1", "--lambda", "2", "--group", path])
    assert cli.main(argv) == cli.EXIT_SCHEMA
    out = capsys.readouterr().out
    assert json.loads(out)["error"] == "SchemaError"
    assert "characters)" in out
    assert len(out) < 1024


def test_converted_error_repeats_a_bounded_part_of_its_text(tmp_path,
                                                            capsys):
    """A trace row with a zero denominator fails inside Fraction, whose
    error text repeats the 4,300-digit numerator; the schema error made of
    it stays short."""
    path = write(tmp_path, "in.json",
                 {**ERS_INPUT, "stages": ERS_INPUT["stages"][:1],
                  "trace_row": [["7" + "0" * 4299, 0]]})
    argv = ["build", "ers", "-i", path, "-o", str(tmp_path / "out.json")]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    out = capsys.readouterr().out
    assert json.loads(out)["error"] == "SchemaError"
    assert "characters)" in out
    assert len(out.encode()) < 1024


def test_verify_of_an_18_digit_prime_stage_is_fast(tmp_path, capsys):
    """Factoring the column sum 10^18 + 3 takes trial division to a fixed
    bound and one primality test, not trial division to its square root."""
    p = str(10 ** 18 + 3)
    path = write(tmp_path, "big.json", {
        "version": "1", "kind": "realization", "properties": {"ecs": True},
        "stages": [{"matrix": [[p]], "p": p}], "markers": None})
    start = time.perf_counter()
    assert cli.main(["verify", "-i", path]) == cli.EXIT_OK
    assert time.perf_counter() - start < 0.1
    value_group = json.loads(capsys.readouterr().out)["trace"]["value_group"]
    assert value_group == [[p, 1, True]]


def test_verify_of_a_64_bit_semiprime_stage_is_fast(tmp_path, capsys):
    """A column sum with two 64-bit prime factors is written as one coprime
    factor, which gcds cannot split further, rather than factored into
    primes, whose cost grows with the square root of the smaller one."""
    n = str((2**64 - 59) * (2**64 - 83))
    path = write(tmp_path, "semiprime.json", {
        "version": "1", "kind": "realization", "properties": {"ecs": True},
        "stages": [{"matrix": [[n]], "p": n}], "markers": None})
    start = time.perf_counter()
    assert cli.main(["verify", "-i", path]) == cli.EXIT_OK
    assert time.perf_counter() - start < 0.1
    value_group = json.loads(capsys.readouterr().out)["trace"]["value_group"]
    assert value_group == [[n, 1, False]]


def test_long_ecs_verify_report_is_linear_in_the_stage_count(tmp_path,
                                                             capsys):
    """A 512-stage ECS file (p_i = 101 + 2i, B = I) verifies to a report of
    at most 300 KB: per-level trace values, quadratic in the stage count,
    are not written."""
    stages = [{"p": 101 + 2 * i, "v": [1, 2], "B": [[1, 0], [0, 1]]}
              for i in range(512)]
    path = write(tmp_path, "in.json", {"k": 2, "stages": stages})
    out = str(tmp_path / "ecs.json")
    assert cli.main(["build", "ecs", "-i", path, "-o", out]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", "-i", out]) == cli.EXIT_OK
    report = capsys.readouterr().out
    assert len(json.loads(report)["stages"]) == 512
    assert len(report.encode()) <= 300_000


def test_build_has_no_epsilon_option(tmp_path, capsys):
    """ECS groupings are found from the stage checks alone: no threshold
    is read, and --epsilon is an unknown argument."""
    inp = write(tmp_path, "in.json", ECS_INPUT)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "ecs", "-i", inp, "-o", str(out),
                  "--epsilon", "1/20"])
    assert exc.value.code == cli.EXIT_SCHEMA
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
    assert cli.main(["build", "ecs", "-i", inp, "-o", str(out)]) == 0
    assert "epsilon" not in json.loads(out.read_text())["provenance"]


def test_p_divisible_q_needs_only_to_exceed_1(tmp_path, capsys):
    """q = 6 is 1 mod 5 but not a prime power: the route checks only
    q > 1 and q = 1 (mod lambda), and its output verifies.  q = 1 is
    refused with a text that says what is checked."""
    problem = {"k": 1, "lambda": 5, "rho": [1], "p_seq": [151, 191]}
    inp = write(tmp_path, "in.json", {**problem, "q": 6})
    out = str(tmp_path / "out.json")
    assert cli.main(["build", "ecrs", "-i", inp, "-o", out]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["stages"] == 2
    assert cli.main(["verify", "-i", out]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True
    inp = write(tmp_path, "q1.json", {**problem, "q": 1})
    out = tmp_path / "q1-out.json"
    assert cli.main(["build", "ecrs", "-i", inp, "-o", str(out)]) \
        == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == {
        "error": "SchemaError", "message": "q must exceed 1, got 1"}
    assert not out.exists()


def test_telescope_non_integer_cuts_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "in.json", ECS_INPUT)
    built = str(tmp_path / "out.json")
    assert cli.main(["build", "ecs", "-i", inp, "-o", built]) == cli.EXIT_OK
    capsys.readouterr()
    tel = tmp_path / "tel.json"
    assert cli.main(["telescope", "-i", built, "--cuts", "1,a",
                     "-o", str(tel)]) == cli.EXIT_SCHEMA
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "SchemaError"
    assert "bad cuts" in payload["message"]
    assert not tel.exists()


@pytest.mark.parametrize("cuts,code", [("1, 2", 0), ("1_0", 2), ("1,+2", 2),
                                       ("1,\u0661", 2)])
def test_telescope_cuts_are_decimal_integers(tmp_path, capsys, cuts, code):
    """A cut is ASCII decimal digits, blanks around it stripped; int()
    would also read "1_0" (then BadCutPoints, exit 3), "+2" and the
    Arabic-Indic digit one."""
    inp = write(tmp_path, "in.json", ECS_INPUT)
    built = str(tmp_path / "out.json")
    assert cli.main(["build", "ecs", "-i", inp, "-o", built]) == cli.EXIT_OK
    capsys.readouterr()
    tel = tmp_path / "tel.json"
    assert cli.main(["telescope", "-i", built, "--cuts", cuts,
                     "-o", str(tel)]) == code
    payload = json.loads(capsys.readouterr().out)
    if code:
        assert payload == {"error": "SchemaError",
                           "message": f"bad cuts {cuts!r}"}
        assert not tel.exists()
    else:
        assert payload["stages"] == 2


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """A build, a verify and a rejected command line in one process
    construct one parser tree: the top parser and its four subparsers."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    inp = write(tmp_path, "in.json", ECS_INPUT)
    out = str(tmp_path / "out.json")
    assert cli.main(["build", "ecs", "-i", inp, "-o", out]) == cli.EXIT_OK
    assert cli.main(["verify", "-i", out]) == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == cli.EXIT_SCHEMA
    assert built == ["dimgroup", "dimgroup build", "dimgroup verify",
                     "dimgroup decide", "dimgroup telescope"]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_shared_parser_carries_no_options_between_calls(tmp_path, capsys,
                                                        monkeypatch):
    """An option given to one call is back at its default in the next:
    --strict-bounds then no flag passes strict=False (the p = 65537 stage
    fails only the strict bound), and every call builds every stage."""
    seen = []
    real = cli.ers_pipeline

    def recording(data, strict=False):
        seen.append(strict)
        return real(data, strict=strict)

    monkeypatch.setattr(cli, "ers_pipeline", recording)
    out = str(tmp_path / "out.json")
    inp = write(tmp_path, "in.json", ERS_INPUT)
    assert cli.main(["build", "ers", "-i", inp, "-o", out]) == 0
    assert json.loads(capsys.readouterr().out)["stages"] == 2
    big = write(tmp_path, "big.json", {
        "k": 1, "stages": [{"p": 65537, "u": [17], "B": [[1]]}],
        "trace_row": [[1, 3]]})
    for extra, code in ((["--strict-bounds"], 3), ([], 0)):
        assert cli.main(["build", "ers", "-i", big, "-o", out, *extra]) \
            == code
    assert seen == [False, True, False]


def test_rejected_command_line_leaves_the_parser_unchanged(tmp_path, capsys):
    """After command lines that argparse rejects (exit 2, usage on stderr,
    nothing on stdout) a verify exits 0 and prints the same bytes as the
    same verify made first."""
    inp = write(tmp_path, "in.json", ECS_INPUT)
    out = str(tmp_path / "out.json")
    assert cli.main(["build", "ecs", "-i", inp, "-o", out]) == cli.EXIT_OK
    capsys.readouterr()
    cli.build_parser.cache_clear()
    assert cli.main(["verify", "-i", out]) == cli.EXIT_OK
    first = capsys.readouterr().out
    for argv in (["verify"], ["verify", "-i", out, "--strict-bounds"],
                 ["build", "erx", "-i", inp, "-o", out],
                 ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dimgroup")
    assert cli.main(["verify", "-i", out]) == cli.EXIT_OK
    assert capsys.readouterr().out == first


_MERGE_STREAM = {"k": 2, "stages": [{"p": 101 + 2 * i, "v": [(3 + i) % 5, 7],
                                     "B": [[1, 0], [0, 2]]}
                                    for i in range(12)]}
_MERGES = [f"dimgroup.ecs: grouping {cuts}: Infeasible at stage {stage}, "
           f"merging stages {gone} and {gone + 1}"
           for cuts, stage, gone in (
               (list(range(12)), 1, 1),
               ([0, *range(2, 12)], 5, 5),
               ([0, 2, 3, 4, 5, *range(7, 12)], 10, 9))]


def _stderr_of_builds(tmp_path, prelude: str, levels) -> list[str]:
    """Run ``prelude``, then one ``build ecs`` of the merge stream per entry
    of ``levels`` (None leaves DIMGROUP_LOG unset), all in one fresh
    process; return its stderr lines, each call's after a ``call`` line."""
    inp = write(tmp_path, "in.json", _MERGE_STREAM)
    script = "\n".join([
        "import logging, os, sys",
        "from dimgroup import cli",
        prelude,
        "for level in sys.argv[2:]:",
        "    if level != 'None':",
        "        os.environ['DIMGROUP_LOG'] = level",
        "    print('call', level, file=sys.stderr)",
        "    assert cli.main(['build', 'ecs', '-i', sys.argv[1],",
        "                     '-o', sys.argv[1] + '.out']) == 0"])
    env = {k: v for k, v in os.environ.items() if k != "DIMGROUP_LOG"}
    proc = subprocess.run([sys.executable, "-c", script, inp,
                           *map(str, levels)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()


def test_dimgroup_log_is_read_on_every_call(tmp_path):
    """DIMGROUP_LOG set after a first call still takes effect: the second
    call logs each of the three merges once on stderr, and a third call at
    WARNING logs none."""
    lines = _stderr_of_builds(tmp_path, "", [None, "INFO", "WARNING"])
    assert lines == ["call None", "call INFO",
                     *(f"INFO {merge}" for merge in _MERGES), "call WARNING"]


def test_unset_dimgroup_log_keeps_the_callers_logging(tmp_path):
    """With DIMGROUP_LOG unset, a caller's own handler and level stand: the
    merges go through the caller's format only, and no stderr handler of
    the CLI's is added beside it."""
    lines = _stderr_of_builds(
        tmp_path,
        "logging.basicConfig(level=logging.INFO, format='mine %(message)s')",
        [None, None])
    merges = [f"mine {merge.split(': ', 1)[1]}" for merge in _MERGES]
    assert lines == ["call None", *merges, "call None", *merges]
