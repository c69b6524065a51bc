"""Seeded request lists for the four benchmark workloads.

Every input the program sees is generated here from the workload seed and
written into one input directory before any timing starts: the custom metric
files, the planted polynomial instances and the request list itself.  A
request is the argument vector of one ``riccati3`` command plus what the
oracle needs to check its output.

Requests come in rounds.  A round has the same composition for every seed
(which metrics, which step sizes, which branches); the seed only draws the
continuous inputs (sample seeds, points, directions, initial values, instance
coefficients).  A timed run covers a seed-independent mix, so two seeds
measure the same work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep", "points", "paths", "exact")
_WORKLOAD_STREAM = {name: k for k, name in enumerate(WORKLOADS)}

UNOBSTRUCTED = "unobstructed-at-samples"
OBSTRUCTED = "obstructed"

# The three custom metrics: known geometries written in coordinates that use
# exp, sin and cosh, so the expression layer runs its function series.
CUSTOM_METRICS = {
    "h3exp": {  # H^3 in horospherical coordinates
        "name": "h3exp",
        "components": {
            "g11": "1", "g12": "0", "g13": "0",
            "g22": "exp(2*x1)", "g23": "0", "g33": "exp(2*x1)",
        },
    },
    "s3sin": {  # unit S^3 in hyperspherical coordinates
        "name": "s3sin",
        "components": {
            "g11": "1", "g12": "0", "g13": "0",
            "g22": "sin(x1)^2", "g23": "0", "g33": "sin(x1)^2*sin(x2)^2",
        },
        "box": [[0.6, 2.5], [0.6, 2.5], [-1.0, 1.0]],
    },
    "h2coshr": {  # H^2 x R in Fermi coordinates
        "name": "h2coshr",
        "components": {
            "g11": "1", "g12": "0", "g13": "0",
            "g22": "cosh(x1)^2", "g23": "0", "g33": "1",
        },
    },
}


@dataclass(frozen=True)
class Metric:
    """One metric of the list, with the answers its geometry fixes."""

    label: str
    source: str  # builtin name or custom file stem
    params: tuple  # extra CLI arguments
    verdict: str
    rank: int
    path_box: tuple  # start-point box for geodesics that stay in the chart for T <= 1
    analyze_defect: frozenset = frozenset()  # analyze checks a known defect fails


_UNIT_BOX = ((-1.0, 1.0),) * 3

# Verdicts and Ricci ranks follow from the geometry: constant curvature carries
# the constrained family, the homogeneous non-constant-curvature spaces do not.
METRICS = (
    Metric("flat", "flat", (), UNOBSTRUCTED, 0, _UNIT_BOX),
    Metric("hyperbolic", "hyperbolic", (), UNOBSTRUCTED, 3, ((-1.0, 1.0), (-1.0, 1.0), (0.5, 2.0))),
    Metric("sphere", "sphere", (), UNOBSTRUCTED, 3, ((-0.6, 0.6),) * 3),
    Metric(
        "heisenberg-L0.3", "heisenberg", ("--param", "L=0.3"), OBSTRUCTED, 3, _UNIT_BOX,
        analyze_defect=frozenset({"verdict"}),
    ),
    Metric("heisenberg-L1", "heisenberg", ("--param", "L=1"), OBSTRUCTED, 3, _UNIT_BOX),
    Metric("heisenberg-L2", "heisenberg", ("--param", "L=2"), OBSTRUCTED, 3, _UNIT_BOX),
    Metric("sol", "sol", (), OBSTRUCTED, 1, ((-1.0, 1.0), (-1.0, 1.0), (-0.8, 0.8))),
    Metric("h2xr", "h2xr", (), OBSTRUCTED, 2, ((-1.0, 1.0), (0.5, 2.0), (-1.0, 1.0))),
    Metric("h3exp", "h3exp", (), UNOBSTRUCTED, 3, _UNIT_BOX),
    # distance >= 1.11 from the coordinate singularities, so unit-length geodesics stay regular
    Metric("s3sin", "s3sin", (), UNOBSTRUCTED, 3, ((1.25, 1.9), (1.25, 1.9), (-1.0, 1.0))),
    Metric("h2coshr", "h2coshr", (), OBSTRUCTED, 2, _UNIT_BOX),
)

# Known defects at the time the benchmark was defined (see README.md).  The
# oracle still runs every check; a request is counted as failed, and the run
# stays correct only if its failing checks are among those listed here.
DEFECT_SCALE = "verdict depends on curvature scale (heisenberg L=0.3 reads unobstructed)"
DEFECT_SHORT_PATH = "integrate_geodesic takes round(T/dt) steps and stops short of T"
DEFECT_LATE_BLOWUP = "blow-up time detected more than 1e-3 late at dt >= 3e-3"

# One round of `paths`, request by request: (metric label, mode, dt, short).
# Every round is this list; the seed draws only points, directions, initial
# values and the fraction of a step in each end time.  Most requests take the
# coarse step, so a pass holds more than one round.  The flat blow-up at
# t = 1 is checked twice: at dt = 1e-3, where the check is live, and at
# dt = 1e-2, where it shows the late blow-up defect.  `short` (set on bounded
# requests only) puts T/dt just above a whole number, which shows the
# short-path defect.
PATHS_ROUND = (
    ("flat", "flat_blowup", 1e-3, False),
    ("flat", "flat_blowup", 1e-2, False),
    ("hyperbolic", "tanh", 1e-2, False),
    ("sphere", "bounded", 1e-2, False),
    ("heisenberg-L0.3", "bounded", 1e-2, True),
    ("heisenberg-L1", "blowup", 1e-2, False),
    ("heisenberg-L2", "bounded", 1e-2, False),
    ("sol", "blowup", 1e-2, False),
    ("h2xr", "bounded", 1e-2, True),
    ("h3exp", "bounded", 1e-2, False),
    ("s3sin", "blowup", 1e-2, False),
    ("h2coshr", "bounded", 1e-2, True),
)
LATE_BLOWUP_DT = 3e-3

# Rounds generated per workload: about twice what a 25 s run of the program
# the benchmark was defined on uses.  A faster program that runs out of
# rounds measures fewer seconds, with every metric still valid.
ROUNDS = {"sweep": 50, "points": 50, "paths": 12, "exact": 256}


@dataclass(frozen=True)
class Request:
    """One CLI invocation with its oracle expectations.

    ``units`` comes from the request alone (never from the output), so a
    program that does less work than asked cannot raise its throughput.
    """

    argv: tuple
    units: int
    label: str
    expect: dict
    known_defect: frozenset = frozenset()
    defect_reason: str = ""


def _rng(workload, seed):
    return np.random.default_rng([int(seed), _WORKLOAD_STREAM[workload]])


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def write_custom_metrics(inputs_dir):
    """Write the custom metric files; returns label -> path."""
    paths = {}
    for stem, data in CUSTOM_METRICS.items():
        path = os.path.join(inputs_dir, f"{stem}.json")
        _write_json(path, data)
        paths[stem] = path
    return paths


def _metric_args(metric, files):
    return (files.get(metric.source, metric.source), *metric.params)


def _analyze_requests(workload, seed, files, n_points, n_dirs, units_of):
    rng = _rng(workload, seed)
    reqs = []
    for _ in range(ROUNDS[workload]):
        for k in rng.permutation(len(METRICS)):
            m = METRICS[k]
            cli_seed = int(rng.integers(0, 2**31 - 1))
            reqs.append(
                Request(
                    argv=(
                        "analyze", *_metric_args(m, files), "-n", str(n_points), "-m", str(n_dirs),
                        "--seed", str(cli_seed), "--json",
                    ),
                    units=units_of(n_points, n_dirs),
                    label=m.label,
                    expect={
                        "kind": "analyze", "verdict": m.verdict, "rank": m.rank,
                        "points": n_points, "dirs": n_dirs,
                    },
                    known_defect=m.analyze_defect,
                    defect_reason=DEFECT_SCALE if m.analyze_defect else "",
                )
            )
    return reqs


def sweep_requests(seed, inputs_dir):
    """Few points, many directions: the unit is one point-direction detector evaluation."""
    files = write_custom_metrics(inputs_dir)
    return _analyze_requests("sweep", seed, files, 2, 256, lambda n, m: n * m)


def points_requests(seed, inputs_dir):
    """Many points, few directions: the unit is one sample point."""
    files = write_custom_metrics(inputs_dir)
    return _analyze_requests("points", seed, files, 16, 4, lambda n, m: n)


def _fmt(x):
    return repr(float(x))


def _riccati_request(metric, files, point, direction, u0, T, dt, out, expect, known, reason):
    return Request(
        argv=(
            "riccati", *_metric_args(metric, files),
            f"--point={','.join(_fmt(x) for x in point)}",
            f"--dir={','.join(_fmt(x) for x in direction)}",
            f"--u0={','.join(_fmt(x) for x in u0)}",
            "--T", _fmt(T), "--dt", _fmt(dt), "--out", out,
        ),
        units=math.ceil(T / dt),
        label=metric.label,
        expect={"kind": "riccati", "T": T, "dt": dt, "u0": tuple(u0), "csv": out, **expect},
        known_defect=known,
        defect_reason=reason,
    )


def _end_time(rng, dt, short, near=0.9):
    """T = (n + f) dt with n dt = ``near``; f < 0.5 triggers the short-path defect.

    Only f is drawn, so a request's step count does not depend on the seed.
    """
    n = int(round(near / dt))
    f = rng.uniform(0.1, 0.4) if short else rng.uniform(0.6, 0.9)
    return (n + f) * dt


def paths_requests(seed, inputs_dir):
    """Riccati integrations along geodesics: the unit is one requested step, ceil(T/dt).

    Every round runs ``PATHS_ROUND``.  Two modes have exact answers: on
    flat, u0 = diag(1, -1) blows up at t = 1; on hyperbolic, the vertical
    geodesic with u0 = 0 has u = tanh(t) I.
    """
    files = write_custom_metrics(inputs_dir)
    by_label = {m.label: m for m in METRICS}
    rng = _rng("paths", seed)
    reqs = []
    for r in range(ROUNDS["paths"]):
        for j, (label, mode, dt, short) in enumerate(PATHS_ROUND):
            m = by_label[label]
            point = [rng.uniform(lo, hi) for lo, hi in m.path_box]
            out = os.path.join(inputs_dir, f"path_{r:03d}_{j:02d}.csv")
            known, reason = frozenset(), ""
            if mode == "flat_blowup":
                # u22' = -u22^2 from -1: u22 = -1/(1 - t); T leaves room for the detection lag
                T = _end_time(rng, dt, short, near=1.0 if dt < LATE_BLOWUP_DT else 1.02)
                direction, u0 = rng.standard_normal(3), (1.0, 0.0, -1.0)
                if dt >= LATE_BLOWUP_DT:
                    known, reason = frozenset({"blowup_time"}), DEFECT_LATE_BLOWUP
            elif mode == "tanh":
                # J = -I along every geodesic: u' = 1 - u^2, u = tanh(t)
                T = _end_time(rng, dt, short)
                direction, u0 = (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)
            elif mode == "blowup":
                # strongly negative u0: blows up near 1/mu whatever the curvature
                T = _end_time(rng, dt, short)
                direction = rng.standard_normal(3)
                u0 = (-rng.uniform(6.0, 10.0), rng.uniform(-1.0, 1.0), -rng.uniform(6.0, 10.0))
            else:
                # u0 >= 1 with sectional curvature <= 1: bounded until after t = 2
                T = _end_time(rng, dt, short)
                direction = rng.standard_normal(3)
                u0 = (rng.uniform(1.5, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(1.5, 2.5))
            if short:
                known, reason = frozenset({"ends_at_T"}), DEFECT_SHORT_PATH
            expect = {"mode": mode}
            reqs.append(_riccati_request(m, files, point, direction, u0, T, dt, out, expect, known, reason))
    return reqs


A12_BRANCHES = ("CZero", "DEqualsSqrtLambdaA", "CaseIII", "CaseIV", "Infeasible")
A3_BRANCHES = ("CZero", "A3BranchII", "Infeasible")
FRAME_CHECK_COUNTS = (10, 40, 70, 100)


def _instance_file(inputs_dir, r, k, inst):
    from riccati3 import polyclass

    path = os.path.join(inputs_dir, f"inst_{r:03d}_{k:02d}.json")
    _write_json(path, polyclass.instance_to_dict(inst))
    return path


def exact_requests(seed, inputs_dir):
    """Exact classifiers and frame-algebra checks: the unit is one request.

    A round holds every a12 branch, every a3 branch in both eigenvalue orders
    (the swapped order goes through the tilde transform) and two frame-check
    runs with counts that rotate over rounds.  Instances are planted by the
    polyclass generators and written as instance files.
    """
    from riccati3 import polyclass

    rng = _rng("exact", seed)
    reqs = []
    for r in range(ROUNDS["exact"]):
        rnd = []
        for branch in A12_BRANCHES:
            sign = 1 if rng.integers(0, 2) else -1
            inst, verdict = polyclass.plant_a12(rng, branch, sign)
            rnd.append((f"a12-{branch}", inst, verdict, False))
        for branch in A3_BRANCHES:
            signs = (1 if rng.integers(0, 2) else -1, 1 if rng.integers(0, 2) else -1)
            inst, verdict = polyclass.plant_a3(rng, branch, signs)
            rnd.append((f"a3-{branch}", inst, verdict, False))
            rnd.append((f"a3-{branch}-swapped", polyclass.tilde_transform(inst), verdict, True))
        rnd = [
            Request(
                argv=("classify", _instance_file(inputs_dir, r, k, inst), "--json", "--allow-infeasible"),
                units=1,
                label=label,
                expect={
                    "kind": "classify", "branch": verdict.branch,
                    "signs": list(verdict.signs), "tilde": swapped,
                },
            )
            for k, (label, inst, verdict, swapped) in enumerate(rnd)
        ]
        # the two counts of a round always sum to 110, so every round costs the same
        for count in (FRAME_CHECK_COUNTS[r % 4], FRAME_CHECK_COUNTS[3 - r % 4]):
            fc_seed = int(rng.integers(0, 100000))
            rnd.append(
                Request(
                    argv=("frame-check", "--seed", str(fc_seed), "--count", str(count), "--json"),
                    units=1,
                    label="frame-check",
                    expect={"kind": "frame_check", "count": count},
                )
            )
        reqs.extend(rnd[k] for k in rng.permutation(len(rnd)))
    return reqs


ROUND_SIZE = {
    "sweep": len(METRICS),
    "points": len(METRICS),
    "paths": len(PATHS_ROUND),
    "exact": len(A12_BRANCHES) + 2 * len(A3_BRANCHES) + 2,
}

BUILDERS = {
    "sweep": sweep_requests,
    "points": points_requests,
    "paths": paths_requests,
    "exact": exact_requests,
}


def build(workload, seed, inputs_dir):
    """Generate every input of a workload into ``inputs_dir``; returns the request list."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload '{workload}' (have {', '.join(WORKLOADS)})")
    return BUILDERS[workload](seed, inputs_dir)


def warmup_requests(inputs_dir):
    """Small requests of every command, run untimed so lazy set-up finishes first."""
    from riccati3 import polyclass

    files = write_custom_metrics(inputs_dir)
    inst, _ = polyclass.plant_a12(np.random.default_rng(0), "CaseIII")
    inst_path = os.path.join(inputs_dir, "warmup_instance.json")
    _write_json(inst_path, polyclass.instance_to_dict(inst))
    return [
        ("analyze", files["s3sin"], "-n", "1", "-m", "2", "--json"),
        ("analyze", "sol", "-n", "1", "-m", "2", "--json"),
        ("riccati", files["h3exp"], "--point", "0,0,0", "--dir", "1,1,0", "--T", "0.05", "--dt", "0.01",
         "--out", os.path.join(inputs_dir, "warmup.csv")),
        ("classify", inst_path, "--json"),
        ("frame-check", "--count", "1", "--json"),
    ]
