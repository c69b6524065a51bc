import contextlib
import csv
import functools
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati3 import cli, metrics, obstruction
from riccati3.cli import (
    OBSTRUCTED_REL,
    POINT_BLOCK,
    SWEEP_BLOCK,
    _csv_writer,
    _json_text,
    _rel_statistics,
    _sample_points,
    _unit_directions,
    main,
)
from riccati3.curvature import identity_residuals, pack_at, ricci_rank
from riccati3.exprjet import Tape
from riccati3.obstruction import fibonacci_directions, obstruction_values, rank1_checks
from riccati3.riccati import SAMPLE_BLOCK, integrate_geodesic, integrate_riccati, jacobi_along


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


def test_parser_is_built_once_and_param_lists_are_not_shared(capsys):
    """The cached parser keeps no --param values from one call to the next."""
    from riccati3.cli import build_parser

    assert build_parser() is build_parser()
    argv = ("analyze", "heisenberg", "-n", "1", "-m", "2", "--json")
    for param, want in (("L=0.5", 0.5), (None, 1.0), ("L=2", 2.0), (None, 1.0)):
        code, out = run(capsys, *argv, *(("--param", param) if param else ()))
        assert code == 0
        assert json.loads(out)["params"] == {"L": want}


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


def test_analyze_rank1_checks_come_from_the_first_rank1_point(capsys):
    """The report's rank-1 block is ``rank1_checks`` at the first rank-1
    point's own one-point pack."""
    _, out = run(capsys, "analyze", "sol", "--seed", "5", "--json")
    rep = json.loads(out)
    p = next(row["point"] for row in rep["per_point"] if row["rank"] == 1)
    want = rank1_checks(pack_at(metrics.builtin("sol"), tuple(p)))
    for key, got in rep["rank1_checks"].items():
        if key == "flagged":
            assert got is want.flagged
        else:
            assert got == pytest.approx(getattr(want, key), abs=1e-12), key


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


def test_csv_helper_writes_the_bytes_of_csv_writer(tmp_path):
    """``_csv_writer`` writes what ``csv.writer`` writes for a header and rows
    of floats and ints handed over several calls, an empty one included:
    signed zeros, subnormals, huge values, nan and inf included."""
    header = ["t", "x1", "u11"]
    rows = [[-0.0, 5e-324, 1e308], [float("nan"), float("inf"), -float("inf")], [3, -7, 0.1], [0, 2**70, -1e-310]]
    with _csv_writer(tmp_path / "helper.csv", header) as write:
        for part in (rows[:1], [], rows[1:3], iter(rows[3:])):
            write(part)
    with open(tmp_path / "writer.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    assert (tmp_path / "helper.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()


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


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RICCATI = {
    "flat_blowup": ("flat", "--point", "0,0,0", "--dir", "1,0,0", "--u0", "1,0,-1", "--T", "1.2", "--dt", "1e-2"),
    "hyperbolic_tanh": ("hyperbolic", "--point", "0,0,1", "--dir", "0,0,1", "--T", "1", "--dt", "1e-2"),
    "sphere_bounded": (
        "sphere", "--point", "0.1,0.2,0.3", "--dir", "0.3,-0.2,0.5", "--u0", "1.5,0.2,2", "--T", "1", "--dt", "1e-2",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_RICCATI)
def test_riccati_cmd_matches_golden_bytes(name, tmp_path, capsys, monkeypatch):
    """The summary and the CSV of three requests, byte for byte: a flat
    blow-up found by bisection, the hyperbolic tanh solution and a bounded
    sphere trajectory.  The CSV is named relative to the working directory,
    so the summary's "csv" entry is the same wherever the test runs."""
    monkeypatch.chdir(tmp_path)
    csv_name = f"riccati_{name}.csv"
    code, text = run(capsys, "riccati", *GOLDEN_RICCATI[name], "--out", csv_name)
    assert code == 0
    assert text == (GOLDEN / f"riccati_{name}.json").read_text(encoding="utf-8")
    assert (tmp_path / csv_name).read_bytes() == (GOLDEN / csv_name).read_bytes()


def test_riccati_vector_option_takes_a_negative_value_as_its_next_argument(tmp_path, capsys, monkeypatch):
    """``--point -0.1,0.2,0.3`` reads as ``--point=-0.1,0.2,0.3``, and so for
    ``--dir`` and ``--u0``: the same summary and the same CSV bytes."""
    monkeypatch.chdir(tmp_path)
    vectors = {"--point": "-0.1,0.2,0.3", "--dir": "-1,0.5,-.2", "--u0": "-0.5,0,0.5"}
    readings = []
    for joined in (True, False):
        argv = ["riccati", "sphere", "--T", "0.1", "--dt", "0.01", "--out", "traj.csv"]
        for option, value in vectors.items():
            argv += [f"{option}={value}"] if joined else [option, value]
        code, text = run(capsys, *argv)
        readings.append((code, text, (tmp_path / "traj.csv").read_bytes()))
    assert readings[0] == readings[1] and readings[0][0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("hyperbolic", "--point", "0.1,0.2,1", "--dir", "0.3,-0.2,1", "--T", "6", "--dt", "1e-2"),
        ("heisenberg", "--point", "0.1,0.2,0.3", "--dir", "0.3,-0.2,0.5", "--u0", "-1.2,0.1,-1.4", "--T", "6"),
    ],
    ids=["no-blowup", "blowup"],
)
def test_riccati_csv_of_several_blocks_is_the_whole_table(argv, tmp_path, capsys, monkeypatch):
    """A request whose CSV holds rows of three SAMPLE_BLOCKs or more writes
    the bytes of its whole table converted to Python floats at once, and
    so it does with the rows converted in blocks of 1 and of 7: 601 rows
    without a blow-up, and the 669 before heisenberg's at t = 0.66825 of
    6,001 path samples."""
    monkeypatch.chdir(tmp_path)
    spec = metrics.resolve(argv[0], {})
    option = dict(zip(argv[1::2], argv[2::2]))
    floats = {k: [float(x) for x in option.get(k, "0,0,0").split(",")] for k in ("--point", "--dir", "--u0")}
    path = integrate_geodesic(spec, floats["--point"], floats["--dir"], float(option["--T"]),
                              float(option.get("--dt", "1e-3")))
    res = integrate_riccati(path, jacobi_along(path), floats["--u0"])
    k = len(res.ts)
    assert k > 2 * SAMPLE_BLOCK, k
    table = np.column_stack([res.ts, path.xs[:k], res.u, res.trace_defect]).tolist()
    lines = ["t,x1,x2,x3,u11,u12,u22,trace_defect"] + [",".join(map(repr, row)) for row in table]
    want = "".join(line + "\r\n" for line in lines).encode()
    for block in (SAMPLE_BLOCK, 1, 7):
        monkeypatch.setattr("riccati3.cli.SAMPLE_BLOCK", block)
        code, text = run(capsys, "riccati", *argv, "--out", "traj.csv")
        assert code == 0 and json.loads(text)["samples"] == k
        assert (tmp_path / "traj.csv").read_bytes() == want


def test_classify_trailing_zero_in_either_eigenvalue_order(tmp_path, capsys):
    """An a3 instance whose 'a' ends in a zero, with lambda2 > lambda3 (the
    tilde path reverses it), and its tilde transform written with lambda2 <
    lambda3 take the same branch and exit code."""
    swapped = {
        "regime": "a3", "lambda2": "-1", "lambda3": "-2", "a": ["1", "0", "1/2", "0"], "c": ["1"], "d1": [], "P": [],
    }
    ordered = {**swapped, "lambda2": "-2", "lambda3": "-1", "a": ["1/2", "0", "1"]}
    readings = []
    for name, inst in (("swapped", swapped), ("ordered", ordered)):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(inst))
        code, out = run(capsys, "classify", str(f), "--json")
        rep = json.loads(out)
        readings.append((code, rep["branch"], rep["signs"]))
    assert readings[0] == readings[1] == (1, "Infeasible", [])


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
    from oracles import frame_from_text

    frame_from_text(dump.read_text())
    assert rep["seed"] == 0 and rep["frames"] == 25


GOLDEN_FRAME_CHECK = [(0, 0), (4, 1), (7, 25), (3, 100), (2, 256), (9, 257)]


@pytest.mark.parametrize("seed,count", GOLDEN_FRAME_CHECK)
def test_frame_check_matches_golden_bytes(seed, count, capsys):
    """frame-check --json byte for byte, at counts on both sides of one
    FRAME_BLOCK (256) and of none."""
    code, text = run(capsys, "frame-check", "--seed", str(seed), "--count", str(count), "--json")
    assert code == 0
    assert text == (GOLDEN / f"frame_check_s{seed}_c{count}.json").read_text(encoding="utf-8")


def _nan_after(real, calls=1):
    """real, with each float value of its first ``calls`` results made NaN:
    the columns of a tuple or dict, or the value itself."""
    seen = []

    def nan(x):
        return np.asarray(x) * np.nan

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(1)
        if len(seen) > calls:
            return out
        if isinstance(out, dict):
            return {k: nan(v) for k, v in out.items()}
        return tuple(nan(v) for v in out) if isinstance(out, tuple) else nan(out)

    return patched


@pytest.mark.parametrize(
    "target,key",
    [
        ("bianchi_frame_residuals", "bianchi_worst"),
        ("root_identities", "root_identities_worst"),
        ("a1_crosscheck", "a1_crosscheck_worst"),
        ("PolyBundle.b1_factor_residual", "b1_factor_worst"),
    ],
)
def test_frame_check_reports_a_nan_residual_and_fails(target, key, capsys, monkeypatch):
    """A NaN residual in the first of two blocks is the sweep's worst: the
    report shows NaN under its key and frame-check exits 1 (``max`` would
    keep 0.0 against it, or the next block's finite worst)."""
    from riccati3 import frame_algebra as fa

    owner, _, attr = target.rpartition(".")
    holder = getattr(fa, owner) if owner else fa
    calls = 3 if owner else 1  # three bundles a block
    monkeypatch.setattr(holder, attr, _nan_after(getattr(holder, attr), calls))
    code, out = run(capsys, "frame-check", "--seed", "3", "--count", str(cli.FRAME_BLOCK + 5), "--json")
    rep = json.loads(out)
    assert code == 1 and math.isnan(rep[key])
    assert '"' + key + '": NaN' in out
    assert all(rep[k] < 1e-9 for k in cli.FRAME_LIMITS if k != key)


def test_selftest_fails_identity_suite_on_nan_residuals(capsys, monkeypatch):
    """NaN identity residuals fail selftest's identity_suite with NaN in its
    detail, where a fold by ``max`` passed it with 0.0."""
    monkeypatch.setattr(cli, "identity_residuals", _nan_after(cli.identity_residuals, 10**6))
    code, out = run(capsys, "selftest", "--json")
    rows = {r["check"]: r for r in json.loads(out)["results"]}
    assert code == 1 and not rows["identity_suite"]["pass"]
    assert all(math.isnan(v) for v in rows["identity_suite"]["detail"].values())


def test_analyze_reports_nan_identity_residuals(capsys, monkeypatch):
    """analyze's identity_residuals is the worst of its per_point entries,
    NaN when one is NaN."""
    monkeypatch.setattr(cli, "identity_residuals", _nan_after(cli.identity_residuals))
    code, out = run(capsys, "analyze", "sol", "-n", "4", "-m", "8", "--json")
    rep = json.loads(out)
    assert all(math.isnan(pp[k]) for pp in rep["per_point"] for k in ("j2", "bianchi", "kulkarni"))
    assert all(math.isnan(v) for v in rep["identity_residuals"].values())


def test_frame_check_dumps_the_first_frame_of_its_sweep(tmp_path, capsys, monkeypatch):
    """--dump-frame writes the first frame the reported sweep drew: the
    consistent frame of the first row of the sweep's first draw."""
    from oracles import frame_from_text

    from riccati3 import frame_algebra as fa

    draws = []
    real = fa.free_frames

    def recorded(rng, n):
        draws.append(real(rng, n))
        return draws[-1]

    monkeypatch.setattr(fa, "free_frames", recorded)
    dump = tmp_path / "frame.txt"
    code, out = run(capsys, "frame-check", "--seed", "11", "--count", "5", "--json", "--dump-frame", str(dump))
    assert code == 0 and json.loads(out)["seed"] == 11
    first = fa.consistent_from_free(draws[0])
    got = frame_from_text(dump.read_text())
    assert got.mode == "consistent" and (got.lambda2, got.lambda3) == (first.lambda2[0], first.lambda3[0])
    assert np.array_equal(got.dlam, first.dlam[0]) and np.array_equal(got.gamma, first.gamma[0])


@pytest.fixture
def fresh_frame_verdicts():
    """frame-check's input-free verdicts, which a process computes once,
    computed anew in the test and not kept after it: a frame_algebra
    function the test patches is run, and what it gave is not kept."""
    from riccati3 import cli

    cli._frame_verdicts.cache_clear()
    yield
    cli._frame_verdicts.cache_clear()


def test_frame_check_fails_on_a_failed_certificate(capsys, monkeypatch, fresh_frame_verdicts):
    """A root planted into a case-elimination polynomial fails frame-check as
    it fails selftest's certificate row; the JSON report still shows it."""
    from riccati3 import frame_algebra as fa

    real = fa.contradiction_certificates

    def planted():
        return {**real(), "r3+6r2+21r+8": [0.5]}

    monkeypatch.setattr(fa, "contradiction_certificates", planted)
    code, out = run(capsys, "frame-check", "--count", "10", "--json")
    assert code == 1
    assert json.loads(out)["certificates"]["r3+6r2+21r+8"] == [0.5]


def test_selftest_pass_and_tamper(capsys):
    code, out = run(capsys, "selftest", "--json")
    rep = json.loads(out)
    assert code == 0 and rep["failures"] == 0
    # every frame-algebra sweep limit is a row, the Bianchi residual included
    assert "frame_bianchi" in {r["check"] for r in rep["results"]}
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
        (("riccati", "heisenberg", "--param", "L=-inf") + RICCATI[2:], "--param L must be a finite number, got '-inf'"),
    ],
)
def test_riccati_bad_input_exits_2(tmp_path, argv, words):
    out = tmp_path / "traj.csv"
    line = run_bad(argv + ("--out", str(out)))
    assert words in line
    assert not out.exists()


def test_riccati_sin_of_an_infinite_stage_point_names_the_subtree(tmp_path):
    """A stage point that overflows to inf reaches sin(inf): the one line names
    that fault and its subtree, not --T/--dt, which only a MAX_STEPS refusal
    is blamed on."""
    metric = tmp_path / "M.json"
    metric.write_text(json.dumps({"components": {**FLAT, "g33": "2 + sin(x1)"}}))
    out = tmp_path / "traj.csv"
    argv = ("riccati", str(metric), "--point", "1.7e308,0,0", "--dir", "1,0,0", "--T", "1e308", "--dt", "1e307")
    line = run_bad(argv + ("--out", str(out)))
    assert line == "riccati3 riccati: error: sin of infinite value in subtree 'sin(x1)'"
    assert not out.exists()


@pytest.mark.parametrize("direction", ["1,0,0", "0,1,0"])
def test_riccati_non_positive_definite_start_point_exits_2(tmp_path, direction):
    """A start point where the metric is not positive definite is named as
    such, not blamed on --T/--dt."""
    f = tmp_path / "m.json"
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    f.write_text(json.dumps({"components": {"g11": "x1", **flat}}))
    out = tmp_path / "traj.csv"
    line = run_bad(("riccati", str(f), "--point=-0.5,0,0", "--dir", direction, "--out", str(out)))
    assert "--T/--dt" not in line
    assert "not positive definite at (-0.5, 0.0, 0.0)" in line
    assert not out.exists()


def test_riccati_reads_a_direction_of_any_size(tmp_path, capsys, monkeypatch):
    """The direction is normalized without its g-length overflowing or
    underflowing: c (0.3, -0.2, 0.5) with c = 2^700 and 2^-700 gives the
    summary and the CSV bytes of c = 1, and c = 1e200 and 1e-200 run, on the
    path of c = 1 to rounding (1e200 (0.3, -0.2, 0.5) is not exactly c times
    the direction).  So do the subnormal directions (5e-324, 0, 0), the bytes
    of (1, 0, 0), and (1e-310, 0, 0), whose scaling factors 2^1074 and 2^1029
    are beyond the floats."""
    monkeypatch.chdir(tmp_path)

    def reading(c, base=(0.3, -0.2, 0.5)):
        direction = ",".join(repr(c * x) for x in base)
        argv = ["riccati", "sphere", "--point", "0.1,0.2,0.3", "--dir", direction, "--u0", "1.5,0.2,2",
                "--T", "0.5", "--dt", "0.01", "--out", "traj.csv"]
        code, text = run(capsys, *argv)
        assert code == 0
        return text, (tmp_path / "traj.csv").read_bytes()

    unit = reading(1.0)
    assert reading(2.0**700) == reading(2.0**-700) == unit
    rows = np.loadtxt(io.StringIO(unit[1].decode()), delimiter=",", skiprows=1)
    assert np.ptp(rows[:, 1]) > 0.1  # the path moves
    for c in (1e200, 1e-200):
        text, data = reading(c)
        assert text == unit[0]
        got = np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1)
        assert np.allclose(got, rows, rtol=1e-13, atol=1e-13)
    axis = reading(1.0, (1.0, 0.0, 0.0))
    assert reading(5e-324, (1.0, 0.0, 0.0)) == axis
    text, data = reading(1e-310, (1.0, 0.0, 0.0))
    assert text == axis[0]
    got = np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1)
    want = np.loadtxt(io.StringIO(axis[1].decode()), delimiter=",", skiprows=1)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_riccati_path_leaving_positive_definite_region_exits_2(tmp_path):
    """g11 = x1 with the direction toward x1 = 0: an RK4 stage point crosses
    into x1 < 0, which is named instead of integrated through."""
    f = tmp_path / "m.json"
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    f.write_text(json.dumps({"components": {"g11": "x1", **flat}}))
    out = tmp_path / "traj.csv"
    argv = ("riccati", str(f), "--point", "0.3,0,0", "--dir=-1,0,0", "--T", "1", "--dt", "0.01")
    line = run_bad(argv + ("--out", str(out)))
    assert "metric 'custom' not positive definite at (-" in line
    assert not out.exists()


def test_riccati_exp_overflow_exits_2(tmp_path):
    """exp of a stage point beyond the float range is a domain fault naming
    the subtree, not a traceback."""
    f = tmp_path / "m.json"
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    f.write_text(json.dumps({"components": {"g11": "1 + exp(x1) - exp(x1)", **flat}}))
    out = tmp_path / "traj.csv"
    line = run_bad(("riccati", str(f), "--point", "1000,0,0", "--dir", "1,0,0", "--out", str(out)))
    assert line == "riccati3 riccati: error: exp overflows the float range in subtree 'exp(x1)'"
    assert not out.exists()


@pytest.mark.parametrize(
    "g11,direction,value",
    [("1 + x1*x1*x1*x1 - x1*x1*x1*x1", "1,0,0", "nan"), ("1 + x1*x1*x1*x1", "0,1,0", "inf")],
)
def test_riccati_non_finite_metric_exits_2(tmp_path, g11, direction, value):
    """A metric value that overflows at the start point is named as not
    finite, not as an indefinite metric or a direction without length."""
    f = tmp_path / "m.json"
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    f.write_text(json.dumps({"components": {"g11": g11, **flat}}))
    out = tmp_path / "traj.csv"
    with np.errstate(all="ignore"):
        line = run_bad(("riccati", str(f), "--point", "1e100,0,0", "--dir", direction, "--out", str(out)))
    assert line == f"riccati3 riccati: error: metric 'custom' is not finite at (1e+100, 0.0, 0.0): g11 = {value}"
    assert not out.exists()


def test_riccati_overflow_warns_nothing_before_its_error(tmp_path):
    """In a fresh interpreter, with numpy's warnings on, stderr holds the one
    error line: the products that overflow and cancel to nan at the start
    point print no RuntimeWarning before it."""
    f = tmp_path / "m.json"
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    f.write_text(json.dumps({"components": {"g11": "1 + x1*x1*x1*x1 - x1*x1*x1*x1", **flat}}))
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); from riccati3.cli import main; sys.exit(main())"
    argv = ("riccati", str(f), "--point", "1e100,0,0", "--dir", "1,0,0", "--out", str(tmp_path / "traj.csv"))
    proc = subprocess.run([sys.executable, "-I", "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "riccati3 riccati: error: metric 'custom' is not finite at (1e+100, 0.0, 0.0): g11 = nan\n"


def test_riccati_power_overflow_exits_2(tmp_path):
    """An integer power of a stage point beyond the float range is a domain
    fault naming the subtree, not a traceback."""
    f = tmp_path / "pw.json"
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    f.write_text(json.dumps({"components": {"g11": "1 + x1^4 - x1^4", **flat}}))
    out = tmp_path / "traj.csv"
    line = run_bad(("riccati", str(f), "--point", "1e100,0,0", "--dir", "1,0,0", "--out", str(out)))
    assert line == "riccati3 riccati: error: power 4 overflows the float range in subtree '(x1^4)'"
    assert not out.exists()


_INSTANCE = {"regime": "a12", "Lambda": "4", "a": ["1", "0", "1"], "c": ["1"], "d1": ["2"], "P": []}
_A3_INSTANCE = {"regime": "a3", "lambda2": "-2", "lambda3": "-1", "a": ["1", "0", "1"], "c": ["1"], "d1": ["2"], "P": []}


@pytest.mark.parametrize(
    "text,words",
    [
        (json.dumps({**_INSTANCE, "Lambda": "1/0"}), "'1/0'"),
        (json.dumps({**_INSTANCE, "a": ["1", "0", "x"]}), "'x'"),
        (json.dumps({**_INSTANCE, "a": ["1", "0", "1e400"]}), "'1e400' is not a finite number"),
        (json.dumps({**_INSTANCE, "c": [None]}), "None"),
        (json.dumps({**_INSTANCE, "d1": "2"}), "'d1' must be a list"),
        (json.dumps([_INSTANCE]), "JSON object, got list"),
        (json.dumps({k: v for k, v in _INSTANCE.items() if k != "regime"}), "lacks regime"),
        (json.dumps({**_INSTANCE, "a": [1.0, 0.0, float("nan")]}), "coefficient nan"),
        (json.dumps({**_INSTANCE, "P": [float("inf")]}), "coefficient inf"),
        (json.dumps({**_INSTANCE, "a": ["1", "0", "1e300"], "c": ["1e300"]}), "float range"),
        (json.dumps({**_INSTANCE, "a": [1.0, 0.0, 1e300], "c": [1e300]}), "float range"),
        (
            json.dumps({**_A3_INSTANCE, "lambda2": "-1", "lambda3": "-1"}),
            "lambda2 and lambda3 must differ",
        ),
        (
            json.dumps({**_INSTANCE, "Lambda": "1e-800", "d1": ["1e-400", "0", "1e-400"]}),
            "Lambda is positive but underflows to 0.0 as a float",
        ),
        (
            json.dumps({**_INSTANCE, "lambda2": "-1"}),
            "instance: unknown key 'lambda2' for regime a12 (have regime, a, c, d1, P, Lambda)",
        ),
        (
            json.dumps({**_A3_INSTANCE, "Lambda": "4"}),
            "instance: unknown key 'Lambda' for regime a3 (have regime, a, c, d1, P, lambda2, lambda3)",
        ),
        (json.dumps({**_INSTANCE, "p": ["1"]}), "instance: unknown key 'p' for regime a12"),
        (json.dumps({**_INSTANCE, "regime": ["a12"]}), "unknown regime '['a12']'"),
    ],
    ids=[
        "zero-denominator", "not-a-number", "beyond-float-range", "null", "not-a-list",
        "not-an-object", "no-regime", "nan", "inf", "exact-products-overflow",
        "float-products-overflow", "equal-eigenvalues", "sqrt-Lambda-underflows",
        "a3-key-in-a12", "a12-key-in-a3", "misspelt-key", "regime-not-a-string",
    ],
)
def test_classify_malformed_instance_exits_2(tmp_path, text, words):
    f = tmp_path / "inst.json"
    f.write_text(text)
    assert words in run_bad(("classify", str(f), "--json"))


@pytest.mark.parametrize(
    "argv,words",
    [
        (("analyze", "flat", "-m", "0"), "--dirs"),
        (("analyze", "flat", "-n", "0"), "--points"),
        (("analyze", "nosuch"), "nosuch"),
        (("analyze", "heisenberg", "--param", "Q=1"), "'Q'"),
        (("analyze", "hyperbolic", "--param", "c=0"), "division by ~0"),
        (("analyze", "flat", "--tol", "-1"), "--tol"),
        (("analyze", "flat", "--tol", "nan"), "--tol"),
        (("analyze", "heisenberg", "--param", "L=inf"), "--param L must be a finite number, got 'inf'"),
        (("analyze", "heisenberg", "--param", "L=nan"), "--param L must be a finite number, got 'nan'"),
    ],
)
def test_analyze_bad_input_exits_2(argv, words):
    assert words in run_bad(argv)


@pytest.mark.parametrize(
    "line,words",
    [
        ("seed = abc", "--config: seed = 'abc' is not a valid int"),
        ("tol = x", "--config: tol = 'x' is not a valid float"),
        ("tol = -1e-9", "--tol must be a finite number at least 0"),
        ("points = 1.5", "--config: points = '1.5' is not a valid int"),
        ("dirs = many", "--config: dirs = 'many' is not a valid int"),
    ],
)
def test_analyze_bad_config_value_exits_2(tmp_path, line, words):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    assert words in run_bad(("analyze", "flat", "--config", str(config)))


@pytest.mark.parametrize("key", ["seeds", "tolerance", "point", "dir", "Seed"])
def test_analyze_unknown_config_key_exits_2(tmp_path, key):
    """A misspelt key is refused by name, not run at the default it failed to set."""
    config = tmp_path / "typo.cfg"
    config.write_text(f"# defaults\npoints = 2\n{key} = 3\n")
    line = run_bad(("analyze", "flat", "--config", str(config)))
    assert f"--config: unknown key {key!r} (have seed, tol, points, dirs)" in line


@pytest.mark.parametrize(
    "argv,words",
    [
        (("analyze", "flat", "--seed", "-1"), "--seed"),
        (("analyze", "flat", "--config", "{config}"), "--seed"),
        (("frame-check", "--seed", "-1"), "--seed"),
        (("frame-check", "--count", "-3"), "--count"),
    ],
)
def test_negative_seed_or_count_exits_2(tmp_path, argv, words):
    config = tmp_path / "neg.cfg"
    config.write_text("seed = -5\n")
    line = run_bad([a.format(config=config) for a in argv])
    assert words in line and "at least 0" in line


def test_frame_check_count_zero(capsys):
    code, out = run(capsys, "frame-check", "--count", "0", "--json")
    rep = json.loads(out)
    assert code == 0 and rep["frames"] == 0
    for key in ("b1_factor_worst", "a1_crosscheck_worst", "root_identities_worst", "bianchi_worst"):
        assert rep[key] == 0.0


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


def test_sample_points_are_pinned():
    """The sample points of a seed are fixed numbers, as Python float tuples:
    those of 3n scalar draws, point by point, whatever the draw's shape."""
    rng = np.random.default_rng(1919)
    points = _sample_points(metrics.builtin("hyperbolic"), 2, rng)
    assert points == [
        (-0.12319802611338604, 0.7940713698965829, 1.6623070220289318),
        (0.2694876931729817, 0.6721325424507629, 0.9590961263221846),
    ]
    assert all(type(x) is float for p in points for x in p)
    scalar = np.random.default_rng(1919)
    for _ in range(6):
        scalar.uniform(0.0, 1.0)
    assert rng.random() == scalar.random()  # the generator advanced by 3n draws


def _identity_vectors(seed, n_points, ip):
    """The 8 identity vectors of sample point ip in ``analyze``: row ip - start
    of one draw from default_rng(seed + start) for its block at start."""
    start = ip - ip % POINT_BLOCK
    size = min(POINT_BLOCK, n_points - start)
    return np.random.default_rng(seed + start).standard_normal((size, 8, 3))[ip - start]


@pytest.mark.parametrize("name", ["heisenberg", "sol", "h2xr", "sphere"])
def test_analyze_blocks_match_point_by_point_calls(name, tmp_path, capsys):
    """More points than one block: the batched run gives the ranks, verdict,
    quantiles and identity residuals of one-point calls on the same points.
    Its quantiles are numpy's of its own residuals (the CSV's rel column) bit
    for bit; the one-point residuals differ from the batched ones in the last
    bits, so theirs agree to 1e-10."""
    n = POINT_BLOCK + 3
    sweep = tmp_path / "sweep.csv"
    code, out = run(capsys, "analyze", name, "-n", str(n), "-m", "8", "--seed", "3", "--json", "--csv", str(sweep))
    assert code == 0
    rep = json.loads(out)
    own = np.array([float(row["rel"]) for row in csv.DictReader(sweep.open())])
    q25, median, q75 = np.quantile(own, [0.25, 0.5, 0.75]).tolist()
    assert rep["obstruction"]["quantiles"] == {
        "min": own.min(), "q25": q25, "median": median, "q75": q75, "max": own.max()
    }
    spec = metrics.builtin(name)
    points = _sample_points(spec, n, np.random.default_rng(3))
    dirs = fibonacci_directions(8)
    rels = []
    for ip, p in enumerate(points):
        pack = pack_at(spec, p)
        assert rep["per_point"][ip]["point"] == list(p)
        assert rep["per_point"][ip]["rank"] == ricci_rank(pack).rank
        for key, value in identity_residuals(pack, _identity_vectors(3, n, ip)).items():
            assert abs(rep["per_point"][ip][key] - value) <= 1e-11, (ip, key)
        ov = obstruction_values(pack, _unit_directions(pack, dirs))
        rels.append(np.abs(ov.residual) / ov.scale)
    rels = np.concatenate(rels)
    frac = float(np.mean(rels > OBSTRUCTED_REL))
    assert rep["obstruction"]["fraction_exceeding"] == frac
    if frac >= 0.1:
        assert rep["verdict"] == "obstructed"
    else:
        assert rep["verdict"] == ("unobstructed-at-samples" if rels.max() <= 1e-9 else "degenerate")
    want = {"min": rels.min(), "q25": np.quantile(rels, 0.25), "median": np.quantile(rels, 0.5),
            "q75": np.quantile(rels, 0.75), "max": rels.max()}
    for key, value in want.items():
        assert abs(rep["obstruction"]["quantiles"][key] - value) <= 1e-10 * abs(value), key


def test_analyze_draws_identity_vectors_per_point(capsys, monkeypatch):
    """Across blocks, point ip checks the identities on its own row of its
    block's draw (``_identity_vectors``): with the curvature sign tampered the
    residuals are O(1) and tell the draws apart."""
    tampered = functools.partial(pack_at, tamper=True)
    monkeypatch.setattr("riccati3.cli.pack_at", tampered)
    n = POINT_BLOCK + 3
    code, out = run(capsys, "analyze", "heisenberg", "-n", str(n), "-m", "2", "--seed", "4", "--json")
    assert code == 0
    per_point = json.loads(out)["per_point"]
    spec = metrics.builtin("heisenberg")
    for ip, p in enumerate(_sample_points(spec, n, np.random.default_rng(4))):
        for key, value in identity_residuals(tampered(spec, p), _identity_vectors(4, n, ip)).items():
            assert abs(per_point[ip][key] - value) <= 1e-12 * max(1.0, value), (ip, key)
        assert per_point[ip]["kulkarni"] > 1e-3


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_rel_statistics_are_numpys_bit_for_bit():
    """The statistics of one sort are rels.min(), np.quantile(rels, [0.25,
    0.5, 0.75]), rels.max() and np.mean(rels > OBSTRUCTED_REL) bit for bit,
    the sign of a zero included, as Python floats: on 1 to 600 values about
    the threshold, with ties, zeros, subnormals and infinities.  A relative
    residual |r| / scale is never -0.0, so none is drawn."""
    rng = np.random.default_rng(40)
    pool = np.array([0.0, 5e-324, 1e-310, OBSTRUCTED_REL, 0.5, 1.0, 1.0 + 2**-52, np.inf])
    sizes = list(range(1, 41)) + rng.integers(41, 601, 60).tolist()
    with np.errstate(invalid="ignore"):
        for n in sizes:
            draws = (
                rng.random(n) * 2e-6,
                rng.choice(pool, n),
                rng.choice(pool[:5], n),
                np.where(rng.random(n) < 0.3, 0.0, rng.random(n) * 1e-308),
            )
            for x in draws:
                stats, frac = _rel_statistics(x)
                assert all(type(v) is float for v in (*stats, frac))
                want = [x.min(), *np.quantile(x, [0.25, 0.5, 0.75]), x.max()]
                assert _bits(stats) == _bits(want), (n, x)
                assert _bits(frac) == _bits(np.mean(x > OBSTRUCTED_REL)), (n, x)


def test_rel_statistics_are_nan_when_any_value_is():
    """A nan anywhere makes min, the quartiles and max nan, as it makes numpy's;
    the fraction counts the values above the threshold over all of them."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 7, 64, 599):
        x = rng.random(n) * 2e-6
        x[rng.integers(n)] = np.nan
        stats, frac = _rel_statistics(x)
        assert np.isnan(stats).all()
        assert np.isnan([x.min(), *np.quantile(x, [0.25, 0.5, 0.75]), x.max()]).all()
        assert frac == np.mean(x > OBSTRUCTED_REL)


@pytest.mark.parametrize("name", ["heisenberg", "sol", "sphere", "h2xr"])
def test_analyze_detector_calls_keep_the_bytes(name, tmp_path, capsys, monkeypatch):
    """A block's points split into detector calls of at most SWEEP_BLOCK
    point-directions give the JSON and CSV of one call per block, byte for
    byte: calls of 1, 7 and 63 points, and of one point where the directions
    alone are more than SWEEP_BLOCK.  The sweep and points workloads' sizes
    and -n 200 -m 256 are one call per block."""
    assert 2 * 256 <= SWEEP_BLOCK and POINT_BLOCK * 256 <= SWEEP_BLOCK
    argv = ("analyze", name, "-n", str(POINT_BLOCK + 3), "-m", "50", "--seed", "6", "--json")
    outputs = set()
    for block in (SWEEP_BLOCK, 1, 50, 7 * 50, 63 * 50 + 49):
        monkeypatch.setattr("riccati3.cli.SWEEP_BLOCK", block)
        sweep = tmp_path / f"sweep{block}.csv"
        code, out = run(capsys, *argv, "--csv", str(sweep))
        assert code == 0
        outputs.add((out, sweep.read_bytes()))
    assert len(outputs) == 1


def test_analyze_memory_is_bounded_in_directions(capsys, tmp_path):
    """The detector runs on at most SWEEP_BLOCK point-directions a call, so
    a block of POINT_BLOCK points at eight times the directions of one full
    call adds little more than the residuals (8 bytes a sample) to analyze's
    peak memory, which one call over the block would multiply about eightfold
    (traced by tracemalloc, where numpy reports its arrays).  --csv writes
    each point's rows as its detector call returns, so it adds little to the
    same run without it, where rows kept to the end of the run would add
    about 740 bytes a point-direction.  That case runs a quarter block, as
    tracing every string of a whole block's rows takes about ten seconds."""
    m = SWEEP_BLOCK // POINT_BLOCK
    quarter = str(POINT_BLOCK // 4)
    runs = ((str(POINT_BLOCK), m, ()), (str(POINT_BLOCK), 8 * m, ()), (quarter, 8 * m, ()),
            (quarter, 8 * m, ("--csv", str(tmp_path / "sweep.csv"))))
    peaks = []
    for n, dirs, more in runs:
        tracemalloc.start()
        try:
            code, _ = run(capsys, "analyze", "heisenberg", "-n", n, "-m", str(dirs), "--json", *more)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] < 1.5 * peaks[0], peaks
    assert peaks[3] < 1.25 * peaks[2], peaks


MIXED_FAULTS = {"g11": "2+log(x1+0.9)", "g22": "x2+0.9", "g33": "1/(x3-0.95)^2"}


@pytest.mark.parametrize(
    "comps,argv,line",
    [
        # the default run: the second sample point is not positive definite
        (
            {"g11": "x1"},
            (),
            "metric 'custom' not positive definite at (-0.9669447289429418, 0.6265404784005448, "
            "0.8255111545554434): leading principal minors -9.669e-01, -9.669e-01, -9.669e-01",
        ),
        # the first fault is the 69th point, in the second block
        (
            {"g11": "x1+0.99"},
            ("-n", "100", "--seed", "5"),
            "metric 'custom' not positive definite at (-0.9999972797485162, -0.879144983102643, "
            "-0.570697083593666): leading principal minors -9.997e-03, -9.997e-03, -9.997e-03",
        ),
        # a domain fault later in the block does not mask the earlier point
        (
            MIXED_FAULTS,
            ("-n", "100", "--seed", "2"),
            "metric 'custom' not positive definite at (-0.8161681157298062, 0.200201051931308, "
            "0.45712105362358924): leading principal minors -4.789e-01, -5.269e-01, -2.169e+00",
        ),
        (MIXED_FAULTS, ("-n", "100", "--seed", "0"), "log of non-positive value in subtree 'log((x1 + 0.9))'"),
    ],
)
def test_analyze_fault_names_the_first_faulting_point(tmp_path, comps, argv, line):
    """A faulting point stops the run with the one-point message of the first
    faulting point in sample order, whatever else faults in its block."""
    path = tmp_path / "metric.json"
    components = {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1", **comps}
    path.write_text(json.dumps({"components": components}))
    assert run_bad(("analyze", str(path), *argv, "--json")) == "riccati3 analyze: error: " + line


FLAT = {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}


def test_analyze_fault_keeps_the_csv_rows_of_the_blocks_before_it(tmp_path, capsys):
    """A run that stops at a faulting point keeps in its --csv file the rows
    of every block before that point's block: the 69th point of seed 5
    faults in the second block, so the file is the CSV of the first 64
    points, byte for byte.  A fault in the first block leaves the header."""
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"components": {**FLAT, "g11": "x1+0.99"}}))
    stopped, whole = tmp_path / "stopped.csv", tmp_path / "whole.csv"
    line = run_bad(("analyze", str(path), "-n", "100", "--seed", "5", "--json", "--csv", str(stopped)))
    assert line.startswith("riccati3 analyze: error: metric 'custom' not positive definite at (-0.9999972797485162,")
    code, _ = run(capsys, "analyze", str(path), "-n", "64", "--seed", "5", "--json", "--csv", str(whole))
    assert code == 0
    assert stopped.read_bytes() == whole.read_bytes()
    assert len(whole.read_bytes().splitlines()) == 1 + 64 * 64
    path.write_text(json.dumps({"components": {**FLAT, "g11": "x1"}}))
    run_bad(("analyze", str(path), "--csv", str(stopped)))
    assert stopped.read_bytes() == whole.read_bytes().splitlines(keepends=True)[0]


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "metric file must hold a JSON object, got list"),
        (json.dumps({"components": FLAT, "params": {"c": "abc"}}), "parameter 'c' must be a number, got 'abc'"),
        (
            json.dumps({"builtin": "custom", "components": FLAT, "params": {"c": "x"}}),
            "parameter 'c' must be a number, got 'x'",
        ),
        (json.dumps({"builtin": "hyperbolic", "params": {"c": "abc"}}), "parameter 'c' must be a number, got 'abc'"),
        (json.dumps({"builtin": "heisenberg", "params": {"L": True}}), "parameter 'L' must be a number, got boolean True"),
        (json.dumps({"components": FLAT, "params": [1]}), "'params' must be a JSON object, got list"),
        (json.dumps({"builtin": "flat", "params": [1]}), "'params' must be a JSON object, got list"),
        (json.dumps({"components": {**FLAT, "g22": 1}}), "component 'g22' must be a string, got 1"),
        (
            json.dumps({"components": FLAT, "box": [[0, 1], [2, 1], [0, 1]]}),
            "'box' pair [2.0, 1.0] needs finite bounds with lo <= hi",
        ),
        (json.dumps({"components": FLAT, "box": [[0, 1], ["a", 1], [0, 1]]}), "'box' bound must be a number, got 'a'"),
        (
            json.dumps({"components": FLAT, "box": [[False, True], [0, 1], [0, 1]]}),
            "'box' bound must be a number, got boolean False",
        ),
        (
            '{"components": %s, "box": [[0, 1e400], [0, 1], [0, 1]]}' % json.dumps(FLAT),
            "'box' pair [0.0, inf] needs finite bounds with lo <= hi",
        ),
        (json.dumps({"components": FLAT, "box": [[0, 1]]}), "'box' must be three [lo, hi] pairs, got [[0, 1]]"),
        ('{"builtin": "heisenberg", "params": {"L": Infinity}}', "parameter 'L' must be a finite number, got inf"),
        (
            '{"components": %s, "params": {"c": NaN}}' % json.dumps(FLAT),
            "parameter 'c' must be a finite number, got nan",
        ),
        (
            json.dumps({"builtin": "heisenberg", "parms": {"L": 0.3}}),
            "metric file: unknown key 'parms' (have builtin, params, components, name, box)",
        ),
        (
            json.dumps({"components": FLAT, "Box": [[0, 1]] * 3}),
            "metric file: unknown key 'Box' (have builtin, params, components, name, box)",
        ),
        (
            json.dumps({"components": {**FLAT, "g21": "0"}}),
            "metric file: unknown component 'g21' (have g11, g12, g13, g22, g23, g33)",
        ),
        (
            json.dumps({"builtin": "sol", "box": [[0, 0.1]] * 3, "name": "mysol"}),
            "metric file: key 'name' does not go with 'builtin' (a builtin metric takes only 'params')",
        ),
        (
            json.dumps({"builtin": "sol", "box": [[0, 0.1]] * 3}),
            "metric file: key 'box' does not go with 'builtin' (a builtin metric takes only 'params')",
        ),
        (
            json.dumps({"builtin": "flat", "components": FLAT}),
            "metric file: key 'components' does not go with 'builtin' (a builtin metric takes only 'params')",
        ),
    ],
    ids=[
        "list", "param-text", "param-custom-form", "param-builtin-form", "param-boolean", "params-list",
        "builtin-params-list", "component-number", "box-reversed", "box-text", "box-boolean", "box-overflow", "box-one-pair", "param-infinity",
        "param-nan", "misspelt-params", "misspelt-box", "unknown-component", "builtin-with-name",
        "builtin-with-box", "builtin-with-components",
    ],
)
@pytest.mark.parametrize("command", ["analyze", "riccati"])
def test_malformed_metric_file_exits_2(tmp_path, command, text, message):
    """A metric file of the wrong shape is refused when it is read, naming the
    key, by every command that reads it: one line and exit 2."""
    path = tmp_path / "metric.json"
    path.write_text(text)
    out = tmp_path / "traj.csv"
    argv = ("analyze", str(path)) if command == "analyze" else ("riccati", str(path), *RICCATI[2:], "--out", str(out))
    assert run_bad(argv) == f"riccati3 {command}: error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("box", [None, [[0, 1], [0.5, 0.5], [-2, -1]]])
def test_metric_file_box_is_read_as_given(tmp_path, box):
    """A well-formed box, a pair with lo = hi included, is read as its float
    pairs, and a file without one keeps the default box."""
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"components": FLAT, **({} if box is None else {"box": box})}))
    spec = metrics.from_file(path)
    assert spec.box == (((-1.0, 1.0),) * 3 if box is None else ((0.0, 1.0), (0.5, 0.5), (-2.0, -1.0)))


def test_resolve_compiles_a_builtin_once(monkeypatch):
    """The same builtin with the same parameters resolves to one spec, whose
    tape is compiled once; other parameters give another spec."""
    metrics._compiled.cache_clear()
    compiled = []

    def counted(*args):
        compiled.append(args)
        return Tape(*args)

    monkeypatch.setattr(metrics, "Tape", counted)
    spec = metrics.resolve("heisenberg", {"L": 0.3})
    for _ in range(3):
        again = metrics.resolve("heisenberg", {"L": 0.3})
        assert again is spec
        metrics.metric_jets(again, (0.1, 0.2, 0.3))
    assert len(compiled) == 1
    assert metrics.resolve("heisenberg", {"L": 2.0}) is not spec
    assert metrics.resolve("heisenberg") is metrics.resolve("heisenberg", {})


def test_signed_zero_parameters_keep_their_own_params(capsys):
    """L = 0.0 and L = -0.0 compare equal but are two keys: each request of
    one process reports its own parameter."""
    for value in ("0.0", "-0.0", "0.0"):
        code, out = run(capsys, "analyze", "heisenberg", "--param", f"L={value}", "-n", "1", "-m", "2", "--json")
        assert code == 0
        assert f'"L": {value}' in out


def test_rewritten_metric_file_is_read_again(tmp_path, capsys):
    """A metric file is read on every request: rewritten between two calls in
    one process, it gives the new metric's report."""
    path = tmp_path / "metric.json"
    reports = []
    for g22 in ("1", "cosh(x1)^2", "1"):
        path.write_text(json.dumps({"name": "m", "components": {**FLAT, "g22": g22}}))
        code, out = run(capsys, "analyze", str(path), "-n", "2", "-m", "8", "--json")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[2]
    assert reports[0]["verdict"] == "unobstructed-at-samples" and reports[1]["verdict"] == "obstructed"


def test_bad_metric_file_fails_on_every_call(tmp_path):
    """A refused source is not kept: the same bad file, or builtin parameter,
    fails the same way each time."""
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"builtin": "heisenberg", "params": {"L": "x"}}))
    for _ in range(3):
        assert run_bad(("analyze", str(path))) == "riccati3 analyze: error: parameter 'L' must be a number, got 'x'"
        assert run_bad(("analyze", "heisenberg", "--param", "c=1")) == (
            "riccati3 analyze: error: metric 'heisenberg' takes no parameter 'c'"
        )


def test_fibonacci_directions_returns_a_fresh_table():
    """Writing into one result leaves the next call's table as it was."""
    want = fibonacci_directions(16).copy()
    first = fibonacci_directions(16)
    first[:] = 0.0
    assert np.array_equal(fibonacci_directions(16), want)


# the benchmark's eleven metrics: the builtins, three Heisenberg scales and
# three custom files written with exp, sin and cosh
_BENCH_BUILTINS = (
    ("flat",), ("hyperbolic",), ("sphere",), ("sol",), ("h2xr",),
    ("heisenberg", "--param", "L=0.3"), ("heisenberg", "--param", "L=1"), ("heisenberg", "--param", "L=2"),
)
_BENCH_FILES = {
    "h3exp": {"name": "h3exp", "components": {**FLAT, "g22": "exp(2*x1)", "g33": "exp(2*x1)"}},
    "s3sin": {
        "name": "s3sin",
        "components": {**FLAT, "g22": "sin(x1)^2", "g33": "sin(x1)^2*sin(x2)^2"},
        "box": [[0.6, 2.5], [0.6, 2.5], [-1.0, 1.0]],
    },
    "h2coshr": {"name": "h2coshr", "components": {**FLAT, "g22": "cosh(x1)^2"}},
}


def test_analyze_output_is_the_same_on_a_cold_and_a_warm_cache(tmp_path, capsys):
    """``analyze --json`` on the eleven benchmark metrics at the sweep size
    (-n 2 -m 256) and the points size (-n 16 -m 4) prints the same bytes with
    the caches cold, warm, and cleared again."""
    requests = list(_BENCH_BUILTINS)
    for stem, data in _BENCH_FILES.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(data))
        requests.append((str(path),))
    runs = []
    for clear in (True, False, True):
        if clear:
            metrics._compiled.cache_clear()
            obstruction._fibonacci_table.cache_clear()
        outputs = []
        for size in (("-n", "2", "-m", "256"), ("-n", "16", "-m", "4")):
            for seed, metric in enumerate(requests):
                code, out = run(capsys, "analyze", *metric, *size, "--seed", str(seed), "--json")
                assert code == 0
                outputs.append(out)
        runs.append(outputs)
    assert runs[0] == runs[1] == runs[2]


def _analyze_reading(capsys, metric, *argv):
    """(verdict, rank histogram, isotropic count) of ``analyze --json``."""
    code, out = run(capsys, "analyze", metric, *argv, "--json")
    assert code == 0
    rep = json.loads(out)
    return rep["verdict"], rep["rank_histogram"], rep["obstruction"]["isotropic"]


def test_analyze_reads_the_same_under_homothety(tmp_path, capsys):
    """g -> g / c^2 does not change the geometry: hyperbolic reads the same at
    c = 1, 1e5 and 1e6, and 1e-12 times flat space reads like flat."""
    want = _analyze_reading(capsys, "hyperbolic")
    for c in ("1e5", "1e6"):
        assert _analyze_reading(capsys, "hyperbolic", "--param", f"c={c}") == want
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"components": {**FLAT, "g11": "1e-12", "g22": "1e-12", "g33": "1e-12"}}))
    assert _analyze_reading(capsys, str(tiny)) == _analyze_reading(capsys, "flat")


def test_riccati_reads_the_same_under_homothety(tmp_path, capsys):
    """1e-12 times flat space integrates like flat: the same samples and blow-up."""
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"components": {**FLAT, "g11": "1e-12", "g22": "1e-12", "g33": "1e-12"}}))
    summaries = []
    for metric in ("flat", str(tiny)):
        argv = ("riccati", metric, "--point", "0,0,0", "--dir", "1,0,0", "--u0", "1,0,-1", "--T", "1.2")
        code, out = run(capsys, *argv, "--out", str(tmp_path / "traj.csv"))
        assert code == 0
        summaries.append(json.loads(out))
    assert summaries[1]["samples"] == summaries[0]["samples"]
    assert summaries[1]["blown_up"] and summaries[0]["blown_up"]


def test_tiny_determinant_is_refused_by_analyze_and_riccati(tmp_path):
    """diag(1e-9, 1e6, 1e6), whose determinant is below 1e-14 max(g_ii)^3, is
    refused with one line naming the point and its leading minors."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"components": {**FLAT, "g11": "1e-9", "g22": "1e6", "g33": "1e6"}}))
    minors = "leading principal minors 1.000e-09, 1.000e-03, 1.000e+03, det below 1e-14 max(g_ii)^3"
    line = run_bad(("analyze", str(f), "--json"))
    assert line.startswith("riccati3 analyze: error: metric 'custom' not positive definite at (")
    assert line.endswith("): " + minors)
    out = tmp_path / "traj.csv"
    line = run_bad(("riccati", str(f), "--point", "0.1,0.2,0.3", "--dir", "1,0,0", "--out", str(out)))
    assert line == "riccati3 riccati: error: metric 'custom' not positive definite at (0.1, 0.2, 0.3): " + minors
    assert not out.exists()


def test_cli_import_leaves_numpy_polynomial_out():
    """Importing the command line in a fresh interpreter does not load
    numpy.polynomial or numpy.random, which numpy does not import on its own
    and which would add their import time to every start (the frame draws
    load numpy.random on first use)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import json, sys; sys.path.insert(0, {str(src)!r}); import riccati3.cli; print(json.dumps(list(sys.modules)))"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    modules = json.loads(out.stdout)
    assert "riccati3.cli" in modules and "numpy" in modules
    assert "numpy.polynomial" not in modules
    assert "numpy.random" not in modules


def test_first_analyze_leaves_numpy_ma_out():
    """A fresh interpreter that imports the command line and runs one
    analyze request has not loaded numpy.ma, which np.quantile would load
    and which would add its import time to every cold analyze."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import contextlib, io, json, sys; sys.path.insert(0, {str(src)!r}); import riccati3.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert riccati3.cli.main(['analyze', 'sol', '--json']) == 0\n"
        "print(json.dumps(list(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    modules = json.loads(out.stdout)
    assert "riccati3.cli" in modules and "numpy" in modules
    assert "numpy.ma" not in modules


def test_cli_import_generates_no_source_and_a_path_generates_one_walk(tmp_path):
    """In a fresh interpreter, importing the command line generates no tape
    source; a riccati request generates its metric's geodesic walk once,
    and a second request on the same metric reuses it."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["riccati", "sphere", "--point", "0.1,0.2,0.3", "--dir", "1,0,0", "--T", "0.02", "--dt", "0.01",
            "--out", str(tmp_path / "traj.csv")]
    code = (
        f"import contextlib, gc, io, sys; sys.path.insert(0, {str(src)!r})\n"
        "def generated():\n"
        "    code = (getattr(f, '__code__', None) for f in gc.get_objects())\n"
        "    return sorted(c.co_name for c in code if c and c.co_filename.endswith(' of a tape>'))\n"
        "import riccati3.cli\n"
        "seen = [generated()]\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert riccati3.cli.main({argv!r}) == 0\n"
        "    seen.append(generated())\n"
        "print(seen)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[[], ['walk'], ['walk']]\n"


def test_cli_import_builds_records_without_dataclasses_and_defers_nothing():
    """Importing the command line in a fresh interpreter does not load
    dataclasses (the records are NamedTuples and plain classes, so no class
    compiles generated methods at import), and it loads every module of the
    package, so no import is put off until first use."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import json, sys; sys.path.insert(0, {str(src)!r}); import riccati3.cli; print(json.dumps(list(sys.modules)))"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    modules = json.loads(out.stdout)
    assert "dataclasses" not in modules
    package = {"riccati3"} | {f"riccati3.{f.stem}" for f in (src / "riccati3").glob("*.py") if f.stem != "__init__"}
    assert len(package) == 9
    assert package <= set(modules)


# --- the JSON writer, the parse path and the per-process verdicts ----------

_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e16, 1e-7, 1.0]),
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é ü ß", " \ud800\U0001f600", '"\\/', "\t\n\r\b\f"]),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(st.text(), kids, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(tree=_JSON_TREES)
def test_json_writer_gives_the_bytes_of_json_dumps_indent_2(tree):
    """On trees of dicts with str keys, lists, tuples, empty containers,
    strings with non-ASCII and control characters, big ints, bools, None and
    floats (nan, +-inf, -0.0, subnormals, 1e16, 1e-7, np.float64), the
    writer's text is json.dumps(x, indent=2)."""
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), {1, 2}, np.bool_(True), np.float32(0.5), object(), [1.0, {"a": np.int64(3)}]],
    ids=["int64", "set", "bool_", "float32", "object", "nested-int64"],
)
def test_json_writer_raises_json_s_type_error_on_an_unsupported_value(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        _json_text(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("key", [1, 0.5, True, None, (1, 2)])
def test_json_writer_takes_only_str_keys(key):
    with pytest.raises(TypeError):
        _json_text({"a": [{key: 1}]})


def test_reports_are_written_by_the_json_writer(capsys, monkeypatch):
    """analyze, classify, frame-check, the riccati summary and selftest --json
    print their report through the writer, and never through json.dumps."""
    from riccati3 import cli

    def refused(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(cli.json, "dumps", refused)
    assert run(capsys, "analyze", "sol", "-n", "2", "-m", "3", "--json")[0] == 0
    assert run(capsys, "frame-check", "--count", "3", "--json")[0] == 0
    assert run(capsys, "selftest", "--json")[0] == 0


_PARSE_VALID = [
    ("analyze", "heisenberg", "-n", "3", "-m", "5", "--param", "L=2", "--param", "x=1", "--seed", "4",
     "--tol", "1e-8", "--config", "c.cfg", "--out", "o.json", "--csv", "o.csv", "--json"),
    ("analyze", "flat"),
    ("analyze", "flat", "--poi", "2", "--di", "3"),
    ("analyze", "--", "flat"),
    ("riccati", "sphere", "--point=-0.1,0,0", "--dir", "1,0,0", "--u0", "1,0,1", "--T", "2", "--dt", "0.01",
     "--param", "c=2", "--out", "t.csv"),
    ("riccati", "flat", "--point", "0,0,0", "--dir", "1,0,0"),
    ("classify", "inst.json", "--json", "--allow-infeasible", "--out", "o.json"),
    ("classify", "inst.json"),
    ("frame-check", "--seed", "3", "--count", "7", "--dump-frame", "f.txt", "--out", "o.json", "--json"),
    ("frame-check",),
    ("selftest", "--json", "--tamper-sign"),
    ("selftest",),
]


@pytest.mark.parametrize("argv", _PARSE_VALID, ids=lambda a: " ".join(a))
def test_each_command_s_own_parser_gives_the_whole_parser_s_namespace(argv):
    from riccati3.cli import _parse_args, build_parser

    got, want = _parse_args(list(argv)), build_parser().parse_args(list(argv))
    assert got == want and repr(got) == repr(want)


def _parse_outcome(parse, argv):
    """(stdout, stderr, exit code) of a parse that exits: help or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
        parse(list(argv))
    return out.getvalue(), err.getvalue(), stop.value.code


@pytest.mark.parametrize(
    "argv,first_line",
    [
        (("-h",), "usage: riccati3 [-h]"),
        (("analyze", "-h"), "usage: riccati3 analyze [-h]"),
        (("riccati", "-h"), "usage: riccati3 riccati [-h]"),
        (("classify", "-h"), "usage: riccati3 classify [-h]"),
        (("frame-check", "-h"), "usage: riccati3 frame-check [-h]"),
        (("selftest", "-h"), "usage: riccati3 selftest [-h]"),
        ((), "usage: riccati3 [-h]"),
        (("bogus",), "usage: riccati3 [-h]"),
        (("--bogus",), "usage: riccati3 [-h]"),
        (("selftest", "--bogus"), "usage: riccati3 [-h]"),
        (("analyze", "flat", "-n", "2", "extra"), "usage: riccati3 [-h]"),
        (("analyze", "flat", "--", "-n"), "usage: riccati3 [-h]"),
        (("riccati", "flat"), "usage: riccati3 riccati [-h]"),
        (("analyze", "flat", "-n", "x"), "usage: riccati3 analyze [-h]"),
    ],
    ids=lambda a: " ".join(a) if isinstance(a, tuple) else None,
)
def test_help_and_usage_errors_are_the_whole_parser_s(argv, first_line):
    """main prints the help and the usage errors of build_parser().parse_args,
    byte for byte, with its exit code; arguments a command's parser leaves
    over get the top-level usage line, as with the whole parser."""
    from riccati3.cli import build_parser

    got = _parse_outcome(main, argv)
    assert got == _parse_outcome(build_parser().parse_args, argv)
    assert (got[0] or got[1]).startswith(first_line)
    assert got[2] == (0 if "-h" in argv else 2)


def test_frame_check_computes_its_input_free_verdicts_once_per_process(capsys, monkeypatch, fresh_frame_verdicts):
    """The rigid frames, their EDS closures and the certificate roots are
    computed by the first frame-check of a process only.  A second request's
    report equals the first's and a fresh interpreter's, and a report that a
    caller changes leaves the next one unchanged."""
    import collections

    from riccati3 import cli
    from riccati3 import frame_algebra as fa

    calls = collections.Counter()
    for name in ("rigid_frame", "eds_closure", "_roots_in_unit_interval"):
        real = getattr(fa, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(fa, name, counted)
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report) or emit(report, args))
    argv = ("frame-check", "--seed", "3", "--count", "7", "--json")
    code, first = run(capsys, *argv)
    assert code == 0 and calls == {"rigid_frame": 8, "eds_closure": 8, "_roots_in_unit_interval": 3}
    calls.clear()
    code, second = run(capsys, *argv)
    assert code == 0 and second == first and not calls
    certificates = reports[-1]["certificates"]
    for roots in certificates.values():
        with contextlib.suppress(AttributeError):  # a tuple of roots has no append
            roots.append(0.5)
    certificates.clear()
    reports[-1]["rigid_tables_ok"] = False
    assert run(capsys, *argv) == (0, first)
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); from riccati3.cli import main; sys.exit(main())"
    fresh = subprocess.run([sys.executable, "-I", "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0 and fresh.stdout == first


@pytest.mark.parametrize(
    "argv,words",
    [
        (("analyze", "flat", "-n", "100000000000", "-m", "1"), "-n/--points is 100000000000, more than MAX_POINTS"),
        (("analyze", "flat", "-n", "1", "-m", "100000000000"), "-m/--dirs is 100000000000, more than MAX_POINT_DIRECTIONS"),
        (("analyze", "flat", "-n", "100001", "-m", "1"), "more than MAX_POINTS = 100000"),
        (("analyze", "flat", "-n", "100000", "-m", "101"), "more than MAX_POINT_DIRECTIONS = 10000000"),
        (("analyze", "flat", "-n", "1", "-m", "200001"), "-m/--dirs is 200001, more than MAX_DIRS = 200000"),
    ],
)
def test_analyze_refuses_a_sample_count_above_its_bound_before_sampling(monkeypatch, argv, words):
    """-n above MAX_POINTS, -n times -m above MAX_POINT_DIRECTIONS, or -m
    above MAX_DIRS is a one-line usage error, raised before the metric is
    resolved or anything is sampled; the bounds themselves pass that check."""
    from riccati3 import cli

    def unreached(*args, **kwargs):
        raise AssertionError("sampled past the bound")

    monkeypatch.setattr(cli, "_sample_points", unreached)
    assert words in run_bad(argv)

    def past_the_bounds(*args, **kwargs):
        raise cli.UsageError("past the bounds")

    monkeypatch.setattr(cli.metrics, "resolve", past_the_bounds)
    for n, m in (
        (cli.MAX_POINTS, cli.MAX_POINT_DIRECTIONS // cli.MAX_POINTS),
        (cli.MAX_POINT_DIRECTIONS // cli.MAX_DIRS, cli.MAX_DIRS),
        (1, cli.MAX_DIRS),
    ):
        assert run_bad(("analyze", "flat", "-n", str(n), "-m", str(m))).endswith("past the bounds")
