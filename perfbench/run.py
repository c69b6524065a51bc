#!/usr/bin/env python3
"""Benchmark of the riccati3 command line, driven in-process as one closed-loop client.

    python3 perfbench/run.py --workload {sweep,points,paths,exact,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ``src/`` and
each request is one ``riccati3.cli.main(argv)`` call; the next request is
sent when the previous one returns.  Every output is checked by ``oracle``.
Request times are scaled to a fixed machine speed by the reference work in
``reference``.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run (see README.md).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")  # scratch inputs and trace files, git-ignored

import oracle  # noqa: E402
import workloads  # noqa: E402
from reference import REF_NOMINAL_S, reference_seconds, sampled  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# Fresh interpreters timed per run, half before and half after the timed
# rounds; setup_s is their median.
SETUP_SAMPLES = 10
# Fewest whole rounds in a run, whatever the time: enough requests for a
# tail with TAIL_BEYOND requests beyond it.
MIN_ROUNDS = {"sweep": 12, "points": 12, "paths": 3, "exact": 40}
TAIL_BEYOND = 10


def tail_pct(workload):
    """The highest whole percentile with at least TAIL_BEYOND requests beyond it.

    It is taken at the shortest run, MIN_ROUNDS rounds, and then kept for
    every run of the workload, so two commits are compared at the same
    percentile; a longer run only puts more requests beyond it.
    """
    n = MIN_ROUNDS[workload] * workloads.ROUND_SIZE[workload]
    # np.percentile puts p at sorted position p (n - 1) / 100
    return max(p for p in range(100) if n - 1 - math.floor(p * (n - 1) / 100) >= TAIL_BEYOND)


# A fresh interpreter imports numpy and the reference, untimed, then times
# the import of riccati3.cli between two sets of reference runs (README, Timing).
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import numpy; "
    "from reference import reference_seconds; "
    "ref = lambda: sorted(reference_seconds() for _ in range(5))[2]; r0 = ref(); "
    "t = time.perf_counter(); import riccati3.cli; t = time.perf_counter() - t; "
    "print(t, (r0 + ref()) / 2)"
)


def load_program():
    """Import riccati3.cli from the checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "riccati3", "cli.py")):
        sys.stderr.write(f"perfbench: no riccati3 sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    from riccati3 import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: riccati3 imported from {cli.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return cli


def import_seconds():
    """(wall, scaled) seconds to import riccati3.cli in a fresh interpreter.

    numpy is imported first and not timed.  The reference work runs just
    before and just after the timed import, on the CPU the interpreter
    imports on.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, SRC, HERE],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    wall, ref = (float(x) for x in proc.stdout.strip().splitlines()[-1].split())
    return wall, wall * REF_NOMINAL_S / ref


def call(cli, argv):
    """(exit code, stdout) of one command; exit code None if it raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse errors, or a message passed to SystemExit
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # the loop must go on; the oracle counts the request as failed
        sys.stderr.write(f"perfbench: {' '.join(argv[:2])}: {type(exc).__name__}: {exc}\n")
        code = None
    return code, buf.getvalue()


def run_requests(cli, requests, ref_before, tracer=None):
    """Send ``requests`` back to back, each followed by the reference work.

    ``ref_before`` is the reference time measured just before the first
    request.  A request's time excludes the reference samples taken inside
    it; its scaled time divides by the mean of those samples and of the
    reference runs just before and just after it.  Returns [(request, s,
    scaled s, exit code, stdout)] and the reference time after the last
    request.
    """
    outcomes = []
    for req in requests:
        t0 = time.perf_counter()
        with sampled() as samples:
            if tracer is None:
                code, out = call(cli, req.argv)
            else:
                code, out = tracer.call("cli.main", call, cli, req.argv)
        wall = time.perf_counter() - t0 - sum(s[1] for s in samples)
        ref_after = reference_seconds()
        refs = [ref_before, ref_after] + [s[0] for s in samples]
        outcomes.append((req, wall, wall * REF_NOMINAL_S * len(refs) / sum(refs), code, out))
        ref_before = ref_after
    return outcomes, ref_before


def timed_rounds(cli, requests, workload, seconds):
    """Whole rounds, stopping at the round boundary nearest to ``seconds``.

    It runs at least MIN_ROUNDS rounds and at most every generated one.
    """
    size = workloads.ROUND_SIZE[workload]
    outcomes = []
    ref = reference_seconds()
    t_start = time.perf_counter()
    for n, start in enumerate(range(0, len(requests), size), 1):
        outs, ref = run_requests(cli, requests[start:start + size], ref)
        outcomes += outs
        elapsed = time.perf_counter() - t_start
        if n >= MIN_ROUNDS[workload] and elapsed + 0.5 * elapsed / n >= seconds:
            break
    return outcomes


def judge(outcomes):
    """[(request, failed checks, whether a known defect explains them)] for failing requests."""
    failed = []
    for req, _, _, code, out in outcomes:
        bad = oracle.check(req, code, out)
        if bad:
            failed.append((req, bad, set(bad) <= req.known_defect))
    return failed


def end_to_end(workload, outcomes, setup, rss_mb, n_failed):
    """The six end-to-end metrics, from scaled times; the notes give the wall times.

    A request's units count only if it exited 0.
    """
    wall = np.array([o[1] for o in outcomes])
    lat = np.array([o[2] for o in outcomes])
    units = sum(o[0].units for o in outcomes if o[3] == 0)
    pct = tail_pct(workload)
    tail = float(np.percentile(lat, pct)) * 1e3
    n = len(lat)
    setup_wall = statistics.median(s[0] for s in setup)
    return {
        "setup_s": (statistics.median(s[1] for s in setup), "s", len(setup),
                    f"median of fresh interpreters; wall {setup_wall:.4g} s"),
        "units_per_s": (units / float(lat.sum()), "1/s", units,
                        f"{workload} units, {n} requests; wall {units / float(wall.sum()):.4g}"),
        "latency_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms", n,
                           f"wall {np.percentile(wall, 50) * 1e3:.4g}"),
        "latency_tail_ms": (tail, "ms", n, f"p{pct}, {int(np.sum(lat * 1e3 > tail))} requests beyond; "
                                           f"wall {np.percentile(wall, pct) * 1e3:.4g}"),
        "peak_rss_mb": (rss_mb, "MB", 1, ""),
        "passed_frac": (1.0 - n_failed / n, "1", n, f"{n_failed} failed"),
    }


def describe_failures(failed):
    known = {}
    lines = []
    for req, bad, expected in failed:
        if expected:
            key = (req.label, req.defect_reason)
            known[key] = known.get(key, 0) + 1
        elif len(lines) < 20:
            lines.append(f"  UNEXPECTED {','.join(bad)}: {' '.join(req.argv)}")
    return [f"  known defect x{n}: {label}: {reason}" for (label, reason), n in sorted(known.items())] + lines


def run_workload(cli, workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics, report lines)."""
    os.makedirs(WORK, exist_ok=True)
    inputs_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        requests = workloads.build(workload, seed, inputs_dir)
        for argv in workloads.warmup_requests(inputs_dir):
            call(cli, argv)
        if not trace:
            import_seconds()  # fills the bytecode cache; not a sample
            setup = [import_seconds() for _ in range(SETUP_SAMPLES // 2)]
            outcomes = timed_rounds(cli, requests, workload, seconds)
            setup += [import_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
            failed = judge(outcomes)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(workload, outcomes, setup, rss_mb, len(failed))
        else:
            # an untraced and a traced pass over the same requests: their
            # scaled times give the tracing overhead
            plain = timed_rounds(cli, requests, workload, seconds / 2.0)
            tracer = Tracer()
            with tracer.installed():
                traced, _ = run_requests(cli, [o[0] for o in plain], reference_seconds(), tracer=tracer)
            outcomes = plain + traced
            failed = judge(outcomes)
            tracer.write(os.path.join(WORK, f"trace-{workload}.npz"))
            overhead = sum(o[2] for o in traced) / sum(o[2] for o in plain) - 1.0
            metrics = {
                k: (v, unit, 1, "")
                for k, (v, unit) in layer_metrics(tracer, overhead).items()
            }
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    tagged = sum(1 for o in outcomes if o[0].known_defect)
    tagged_failed = sum(1 for req, _, _ in failed if req.known_defect)
    lines = [
        f"{workload}: {len(outcomes)} requests, {len(failed)} failed; {tagged} carry a "
        f"documented known defect, {tagged - tagged_failed} of those pass"
    ]
    lines += describe_failures(failed)
    if not trace:
        for name, (value, unit, samples, note) in metrics.items():
            lines.append(f"  {name:16s} {value:14.6g} {unit:5s} samples={samples}  {note}".rstrip())
    else:
        lines += self_time_table(metrics)
    correct = all(expected for _, _, expected in failed)
    values = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    return correct, len(outcomes), len(failed), values, lines


def self_time_table(metrics):
    selfs = {k[: -len(".self_s")]: v[0] for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    lines = ["  self time by span (share of traced request time):"]
    for name, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        calls = metrics[f"{name}.calls"][0]
        if calls:
            lines.append(f"    {name:34s} {100.0 * s / total:6.2f}%  {s:9.4f} s  calls={calls}")
    for k in ("obstruction.isotropic_frac", "riccati.blowup_frac", "riccati.steps",
              "trace.spans", "trace.overhead_frac"):
        lines.append(f"    {k:34s} {metrics[k][0]:.6g}")
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description="riccati3 benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    cli = load_program()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, k, values, lines = run_workload(cli, name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        correct, attempted, failed = correct and ok, attempted + n, failed + k
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: v for key, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
