"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _build(workload, seed, tmp_path, sub):
    d = tmp_path / sub
    d.mkdir()
    reqs = workloads.build(workload, seed, str(d))
    files = {p.name: p.read_text() for p in sorted(d.iterdir())}
    # compare argument vectors with the input directory factored out
    argvs = [tuple(a.replace(str(d), "<in>") for a in r.argv) for r in reqs]
    return reqs, argvs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    reqs1, argv1, files1 = _build(workload, 7, tmp_path, "a")
    reqs2, argv2, files2 = _build(workload, 7, tmp_path, "b")
    _, argv3, files3 = _build(workload, 8, tmp_path, "c")
    assert argv1 == argv2 and files1 == files2
    assert [r.units for r in reqs1] == [r.units for r in reqs2]
    assert argv1 != argv3
    if workload == "exact":
        assert files1 != files3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_have_seed_independent_composition(workload, tmp_path):
    def rounds(seed, sub):
        reqs, _, _ = _build(workload, seed, tmp_path, sub)
        size = workloads.ROUND_SIZE[workload]
        keys = [
            (r.label, r.units, sorted(r.known_defect), repr(r.expect.get("dt")),
             r.expect.get("count"), r.expect.get("mode"))
            for r in reqs
        ]
        return [sorted(keys[k:k + size]) for k in range(0, len(keys), size)]

    assert rounds(1, "a") == rounds(2, "b")


def _analyze_request(tmp_path, label):
    reqs = workloads.build("sweep", 3, str(tmp_path))
    return next(r for r in reqs if r.label == label)


def _analyze_report(req, verdict):
    e = req.expect
    return json.dumps({
        "points": e["points"], "dirs": e["dirs"], "verdict": verdict,
        "rank_histogram": {str(k): e["points"] if k == e["rank"] else 0 for k in range(4)},
        "identity_residuals": {"j2": 0.0, "bianchi": 0.0, "kulkarni": 0.0},
        "rank1_checks": None,
    })


def test_oracle_rejects_wrong_verdict(tmp_path):
    req = _analyze_request(tmp_path, "h2coshr")
    assert oracle.check(req, 0, _analyze_report(req, "obstructed")) == []
    assert oracle.check(req, 0, _analyze_report(req, "unobstructed-at-samples")) == ["verdict"]
    assert oracle.check(req, 1, _analyze_report(req, "obstructed")) == ["exit"]
    assert oracle.check(req, None, "") == ["raised"]


def test_oracle_rejects_wrong_branch(tmp_path):
    reqs = workloads.build("exact", 3, str(tmp_path))
    req = next(r for r in reqs if r.label == "a12-CaseIII")
    good = {"branch": "CaseIII", "signs": req.expect["signs"], "tilde_applied": False}
    assert oracle.check(req, 0, json.dumps(good)) == []
    assert oracle.check(req, 0, json.dumps({**good, "branch": "CaseIV"})) == ["branch"]
    swapped = next(r for r in reqs if r.label == "a3-A3BranchII-swapped")
    assert oracle.check(swapped, 0, json.dumps({**good, "branch": "A3BranchII",
                                                 "signs": swapped.expect["signs"]})) == ["tilde"]


def _write_path_csv(path, ts, u):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x1,x2,x3,u11,u12,u22,trace_defect\n")
        for t in ts:
            fh.write(f"{t!r},0,0,0,{u(t)!r},0.0,{u(t)!r},0\n")


def _summary(ts):
    return json.dumps({"samples": len(ts), "blown_up": False, "blowup_time": None})


def test_oracle_rejects_truncated_path(tmp_path):
    reqs = workloads.build("paths", 3, str(tmp_path))
    req = next(r for r in reqs if r.expect["mode"] == "tanh")
    T, dt = req.expect["T"], req.expect["dt"]
    n = math.ceil(T / dt)
    full = [min(k * dt, T) for k in range(n + 1)]
    _write_path_csv(req.expect["csv"], full, math.tanh)
    assert oracle.check(req, 0, _summary(full)) == []
    # tanh is compared at the last sample, so a short path fails only ends_at_T
    _write_path_csv(req.expect["csv"], full[:-1], math.tanh)
    assert oracle.check(req, 0, _summary(full[:-1])) == ["ends_at_T"]
    _write_path_csv(req.expect["csv"], full, lambda t: math.tanh(t) + 1e-5)
    assert oracle.check(req, 0, _summary(full)) == ["tanh"]


def test_every_paths_round_has_live_closed_form_checks(tmp_path):
    reqs = workloads.build("paths", 3, str(tmp_path))
    size = workloads.ROUND_SIZE["paths"]
    for k in range(0, len(reqs), size):
        rnd = reqs[k:k + size]
        tanh = [r for r in rnd if r.expect["mode"] == "tanh"]
        flat = [r for r in rnd if r.expect["mode"] == "flat_blowup" and not r.known_defect]
        assert tanh and not any(r.known_defect for r in tanh)
        assert flat and all(r.expect["dt"] <= 1e-3 for r in flat)
    req = flat[0]
    report = {"samples": 2, "blown_up": True, "blowup_time": 1.0 + 3e-4}
    _write_path_csv(req.expect["csv"], [0.0, 0.998], lambda t: -1.0 / (1.0 - t))
    assert oracle.check(req, 0, json.dumps(report)) == []
    assert oracle.check(req, 0, json.dumps({**report, "blowup_time": 0.9985})) == ["blowup_time"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_has_ten_requests_beyond_it_in_the_shortest_run(workload):
    n = run.MIN_ROUNDS[workload] * workloads.ROUND_SIZE[workload]
    lat = np.arange(n, dtype=float)  # distinct latencies
    pct = run.tail_pct(workload)
    assert np.sum(lat > np.percentile(lat, pct)) >= run.TAIL_BEYOND
    assert np.sum(lat > np.percentile(lat, pct + 1)) < run.TAIL_BEYOND
    assert run.MIN_ROUNDS[workload] <= workloads.ROUNDS[workload]


def test_units_come_from_requests(tmp_path):
    paths = workloads.build("paths", 5, str(tmp_path))
    for r in paths:
        T = float(r.argv[r.argv.index("--T") + 1])
        dt = float(r.argv[r.argv.index("--dt") + 1])
        assert r.units == math.ceil(T / dt)
    sweep = workloads.build("sweep", 5, str(tmp_path))
    assert {r.units for r in sweep} == {2 * 256}
    points = workloads.build("points", 5, str(tmp_path))
    assert {r.units for r in points} == {16}
    # outputs never enter the count: an empty output gives the same units
    outcomes = [(r, 0.5, 0.25, 0, "") for r in paths[:4]]
    metrics = run.end_to_end("paths", outcomes, [(0.2, 0.1)], 40.0, 0)
    assert metrics["units_per_s"][0] == sum(r.units for r in paths[:4]) / 1.0
    assert metrics["setup_s"][0] == 0.1


def test_times_are_scaled_by_the_reference_around_each_request(monkeypatch):
    refs = iter([2.0 * run.REF_NOMINAL_S])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(refs))
    clock = iter([10.0, 10.3])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))

    class Cli:
        @staticmethod
        def main(argv):
            return 0

    req = workloads.Request(argv=("frame-check",), units=1, label="x", expect={})
    (outcome,), ref_after = run.run_requests(Cli, [req], 1.0 * run.REF_NOMINAL_S)
    # a machine at half speed on average around the request: scaled = wall / 1.5
    assert outcome[1] == pytest.approx(0.3)
    assert outcome[2] == pytest.approx(0.3 / 1.5)
    assert ref_after == 2.0 * run.REF_NOMINAL_S


def test_reference_is_sampled_inside_long_blocks_only():
    handler = signal.getsignal(signal.SIGALRM)
    with reference.sampled() as samples:
        pass
    assert samples == []
    with reference.sampled() as samples:
        t = time.perf_counter()
        while time.perf_counter() - t < 2.5 * reference.SAMPLE_EVERY_S:
            pass
    assert len(samples) >= 1
    assert all(0.0 < ref <= spent for ref, spent in samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_import_probe_reports_wall_and_scaled_seconds():
    wall, scaled = run.import_seconds()
    assert wall > 0.0 and scaled > 0.0


def test_every_wrapped_name_resolves():
    resolved = spans.resolve_targets()
    assert len(resolved) == len(spans.TARGETS)
    for module, attr, _, fn in resolved:
        assert getattr(module, attr) is fn


def test_tracer_restores_targets_and_computes_self_time():
    before = [getattr(m, a) for m, a, _, _ in spans.resolve_targets()]
    tracer = spans.Tracer()
    with tracer.installed():
        from riccati3 import metrics, riccati

        assert metrics.eval_jet is not before[0]
        tracer.call("cli.main", riccati.gamma_at, metrics.builtin("sphere"), (0.1, 0.2, 0.3))
    assert [getattr(m, a) for m, a, _, _ in spans.resolve_targets()] == before
    per = tracer.per_name()
    assert per["metrics.gamma_at"][0] == 1 and per["exprjet.eval_dual"][0] == 6
    assert per["cli.main"][0] == 1
    _, _, start, end, _ = tracer.arrays()
    total = end[0] - start[0]
    assert sum(v[1] for v in per.values()) == pytest.approx(total, rel=1e-9, abs=1e-12)
    assert all(v[1] >= 0.0 for v in per.values())


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("riccati3.cli", "no_such_fn", "cli.no_such_fn"),))
    with pytest.raises(LookupError, match="no_such_fn"):
        spans.resolve_targets()
