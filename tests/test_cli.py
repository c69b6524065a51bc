import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati3.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_flat(tmp_path, capsys):
    out_file = tmp_path / "flat.json"
    code, _ = run(capsys, "analyze", "flat", "-n", "10", "-m", "16", "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["verdict"] == "unobstructed-at-samples"
    assert rep["obstruction"]["quantiles"]["max"] == 0.0
    assert rep["rank_histogram"]["0"] == 10


def test_analyze_heisenberg(tmp_path, capsys):
    code, out = run(
        capsys, "analyze", "heisenberg", "--param", "L=1", "-n", "4", "-m", "32", "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "obstructed"
    assert rep["rank_histogram"]["3"] == 4
    assert rep["ric_nonpositive_everywhere"] is False


def test_analyze_reports_isotropic_directions(capsys):
    counts = {}
    for name in ("sphere", "flat", "heisenberg"):
        code, out = run(capsys, "analyze", name, "-n", "3", "-m", "16", "--json")
        assert code == 0
        counts[name] = json.loads(out)["obstruction"]["isotropic"]
    assert counts["sphere"] == counts["flat"] == 3 * 16
    assert counts["heisenberg"] < 3 * 16


def test_analyze_sol_rank1(capsys):
    code, out = run(capsys, "analyze", "sol", "-n", "4", "-m", "16", "--json")
    rep = json.loads(out)
    assert rep["verdict"] == "obstructed"
    assert rep["rank_histogram"]["1"] == 4
    assert rep["rank1_checks"]["flagged"]
    assert rep["rank1_checks"]["defect_max"] > 0


def test_analyze_remaining_zoo_verdicts(capsys):
    _, out = run(capsys, "analyze", "sphere", "-n", "3", "-m", "16", "--json")
    assert json.loads(out)["verdict"] == "unobstructed-at-samples"
    _, out = run(capsys, "analyze", "h2xr", "-n", "3", "-m", "16", "--json")
    rep = json.loads(out)
    assert rep["verdict"] == "obstructed"  # symmetric but curved: lhs > 0, rhs = 0
    assert rep["rank_histogram"]["2"] == 3
    assert rep["ric_nonpositive_everywhere"] is True


def test_analyze_deterministic_and_csv(tmp_path, capsys):
    csv_file = tmp_path / "sweep.csv"
    code, out1 = run(
        capsys, "analyze", "hyperbolic", "-n", "3", "-m", "8", "--seed", "5", "--json",
        "--csv", str(csv_file),
    )
    _, out2 = run(capsys, "analyze", "hyperbolic", "-n", "3", "-m", "8", "--seed", "5", "--json")
    assert out1 == out2
    rows = list(csv.reader(csv_file.open()))
    assert rows[0][:5] == ["point_idx", "x1", "x2", "x3", "dir_idx"]
    assert len(rows) == 1 + 3 * 8


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# defaults\nseed = 5\npoints = 3\ndirs = 8\n")
    _, out1 = run(capsys, "analyze", "hyperbolic", "--config", str(cfg), "--json")
    _, out2 = run(capsys, "analyze", "hyperbolic", "-n", "3", "-m", "8", "--seed", "5", "--json")
    assert out1 == out2


def test_riccati_cmd_flat_blowup(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, text = run(
        capsys, "riccati", "flat", "--point", "0,0,0", "--dir", "1,0,0",
        "--u0", "1,0,-1", "--T", "1.2", "--dt", "0.001", "--out", str(out),
    )
    assert code == 0
    summary = json.loads(text)
    assert summary["blown_up"] and abs(summary["blowup_time"] - 1.0) < 1e-3
    rows = list(csv.reader(out.open()))
    assert rows[0] == "t x1 x2 x3 u11 u12 u22 trace_defect".split()


def test_riccati_cmd_constant_rows(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    _, text = run(
        capsys, "riccati", "hyperbolic", "--point", "0,0,1", "--dir", "0,0,1",
        "--u0", "1,0,1", "--T", "1.0", "--dt", "0.01", "--out", str(out),
    )
    rows = list(csv.reader(out.open()))[1:]
    u11 = [float(r[4]) for r in rows]
    assert max(abs(x - 1.0) for x in u11) < 1e-8


def test_classify_cmd(tmp_path, capsys):
    inst = {
        "regime": "a12", "Lambda": "4",
        "a": ["1", "1/2", "2"], "c": ["1", "1"], "d1": ["2", "1", "4"], "P": ["0"],
    }
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    code, out = run(capsys, "classify", str(f), "--json")
    rep = json.loads(out)
    assert code == 0
    assert rep["branch"] == "DEqualsSqrtLambdaA" and rep["signs"] == [1]
    assert rep["oracle_residual"] == 0.0

    czero = {"regime": "a12", "Lambda": "1", "a": ["0", "0", "1"], "c": [], "d1": ["1"], "P": []}
    f2 = tmp_path / "cz.json"
    f2.write_text(json.dumps(czero))
    code, out = run(capsys, "classify", str(f2), "--json")
    assert json.loads(out)["branch"] == "CZero"

    rnd = {
        "regime": "a12", "Lambda": "2",
        "a": ["1", "1", "1"], "c": ["1"], "d1": ["1", "2"], "P": ["3", "0", "1"],
    }
    f3 = tmp_path / "rnd.json"
    f3.write_text(json.dumps(rnd))
    code, out = run(capsys, "classify", str(f3), "--json", "--allow-infeasible")
    rep = json.loads(out)
    assert rep["branch"] == "Infeasible" and rep["oracle_residual"] > 0
    assert code == 0
    code, out = run(capsys, "classify", str(f3), "--json")
    assert code == 1 and json.loads(out)["branch"] == "Infeasible"


def test_custom_metric_file(tmp_path, capsys):
    spec = {
        "components": {
            "g11": "1", "g12": "0", "g13": "0",
            "g22": "1 + L^2*x1^2", "g23": "-L*x1", "g33": "1",
        },
        "params": {"L": 1.0},
    }
    f = tmp_path / "metric.json"
    f.write_text(json.dumps(spec))
    code, out = run(capsys, "analyze", str(f), "-n", "2", "-m", "8", "--json")
    rep = json.loads(out)
    assert rep["verdict"] == "obstructed"


def test_frame_check_cmd(tmp_path, capsys):
    dump = tmp_path / "frame.txt"
    code, out = run(
        capsys, "frame-check", "--count", "25", "--json", "--dump-frame", str(dump)
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["b1_factor_worst"] < 1e-10
    assert rep["rigid_tables_ok"] and rep["eds_contradictions_ok"]
    assert dump.exists()
    from riccati3.frame_algebra import frame_from_text

    frame_from_text(dump.read_text())


def test_selftest_pass_and_tamper(capsys):
    code, out = run(capsys, "selftest", "--json")
    rep = json.loads(out)
    assert code == 0 and rep["failures"] == 0
    code, out = run(capsys, "selftest", "--json", "--tamper-sign")
    rep = json.loads(out)
    assert code == 1 and rep["failures"] >= 1
    failed = {r["check"] for r in rep["results"] if not r["pass"]}
    assert "identity_suite" in failed
    # text mode prints a failed check's detail indented under its [FAIL] line
    code, out = run(capsys, "selftest", "--tamper-sign")
    lines = out.splitlines()
    at = lines.index("[FAIL] identity_suite")
    assert code == 1 and [line.split(" = ")[0] for line in lines[at + 1 : at + 4]] == [
        "    j2",
        "    bianchi",
        "    kulkarni",
    ]
    assert lines[at + 4].startswith("[")


def run_bad(argv):
    """A rejected input: exit code 2, nothing on stdout, one line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 2, argv
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("riccati3 "), err.getvalue()
    return lines[0]


RICCATI = ("riccati", "flat", "--point", "0,0,0", "--dir", "1,0,0")


@pytest.mark.parametrize(
    "argv,words",
    [
        (("riccati", "flat", "--point", "0,0", "--dir", "1,0,0"), "--point"),
        (RICCATI + ("--u0", "1,2"), "--u0"),
        (("riccati", "flat", "--point", "a,0,0", "--dir", "1,0,0"), "--point"),
        (("riccati", "flat", "--point", "0,0,0", "--dir", "0,0,0"), "--dir"),
        (RICCATI + ("--dt", "0"), "--dt"),
        (RICCATI + ("--T", "-1"), "--T"),
        (RICCATI + ("--dt", "1e-13"), "MAX_STEPS"),
    ],
)
def test_riccati_bad_input_exits_2(tmp_path, argv, words):
    out = tmp_path / "traj.csv"
    line = run_bad(argv + ("--out", str(out)))
    assert words in line
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,words",
    [
        (("analyze", "flat", "-m", "0"), "--dirs"),
        (("analyze", "flat", "-n", "0"), "--points"),
        (("analyze", "nosuch"), "nosuch"),
        (("analyze", "heisenberg", "--param", "Q=1"), "'Q'"),
        (("analyze", "hyperbolic", "--param", "c=0"), "division by ~0"),
    ],
)
def test_analyze_bad_input_exits_2(argv, words):
    assert words in run_bad(argv)


@pytest.mark.parametrize(
    "argv,words",
    [
        (("analyze", "{missing}.json"), "nosuch.json"),
        (("analyze", "{truncated}"), "line 1"),
        (("classify", "{missing}.json"), "nosuch.json"),
        (("classify", "{truncated}"), "line 1"),
        (("analyze", "flat", "--config", "{missing}.cfg"), "nosuch.cfg"),
    ],
)
def test_unreadable_input_file_exits_2(tmp_path, argv, words):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"builtin": "heisen')
    files = {"missing": tmp_path / "nosuch", "truncated": truncated}
    line = run_bad([a.format(**files) for a in argv])
    assert words in line
    if "{truncated}" in argv:
        assert "truncated.json" in line


_number = st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
_bad_token = st.sampled_from(["", "a", "nan", "inf", "-inf", "1e999", "0x1", "1..2", " ", "--"])
_malformed = st.one_of(
    # the wrong count of numbers
    st.lists(_number, min_size=0, max_size=6).filter(lambda xs: len(xs) != 3).map(",".join),
    # three fields, at least one not a finite number
    st.tuples(_number, _number, _bad_token).flatmap(
        lambda t: st.permutations(list(t)).map(",".join)
    ),
)


@settings(max_examples=60, deadline=None)
@given(option=st.sampled_from(["--point", "--dir", "--u0"]), value=_malformed)
def test_riccati_malformed_lists_exit_2(tmp_path_factory, option, value):
    out = tmp_path_factory.mktemp("bad") / "traj.csv"
    args = {"--point": "0.1,0.2,0.3", "--dir": "1,0,0", "--u0": "0,0,0", option: value}
    argv = ["riccati", "flat", "--T", "0.01", "--dt", "0.01", "--out", str(out)]
    assert option in run_bad(argv + [f"{key}={val}" for key, val in args.items()])
