"""Command-line interface: analyze | riccati | classify | frame-check | selftest.

All commands are deterministic under a fixed --seed.  --json prints the
machine-readable report to stdout; --out writes it to a file.  A plain-text
config file (key = value per line, # comments) can supply defaults for
seed / tol / points / dirs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import frame_algebra as fa
from . import metrics, polyclass
from .curvature import identity_residuals, pack_at, ricci_rank
from .exprjet import ExprError
from .obstruction import (
    RankPrecondition,
    fibonacci_directions,
    obstruction_values,
    rank1_checks,
)
from .riccati import integrate_geodesic, integrate_riccati, jacobi_along

OBSTRUCTED_REL = 1e-6
OBSTRUCTED_FRACTION = 0.10


class UsageError(ValueError):
    """A command-line value that fails validation."""


def load_config(path):
    cfg = {}
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


def _parse_params(items):
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"--param needs key=number, got {item!r}") from None
    return out


def _floats(text, option):
    """The three finite numbers of a comma-separated option value."""
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 3 or not all(math.isfinite(x) for x in vals):
        raise UsageError(f"{option} needs 3 finite comma-separated numbers, got {text!r}")
    return vals


def _emit(report, args):
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False) or not args.out:
        print(text)


def _sample_points(spec, n, rng):
    box = spec.box
    return [
        tuple(rng.uniform(lo, hi) for lo, hi in box)
        for _ in range(n)
    ]


def _unit_directions(pack, dirs):
    """The rows of ``dirs`` scaled to unit length in the metric of ``pack``."""
    return dirs / np.sqrt(np.einsum("mi,mi->m", dirs @ pack.g, dirs))[:, None]


def cmd_analyze(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    tol = args.tol if args.tol is not None else float(cfg.get("tol", 1e-9))
    n_points = args.points if args.points is not None else int(cfg.get("points", 10))
    n_dirs = args.dirs if args.dirs is not None else int(cfg.get("dirs", 64))
    if n_points < 1 or n_dirs < 1:
        raise UsageError(f"-n/--points and -m/--dirs must be at least 1, got {n_points}, {n_dirs}")

    spec = metrics.resolve(args.metric, _parse_params(args.param))
    rng = np.random.default_rng(seed)
    points = _sample_points(spec, n_points, rng)
    dirs = fibonacci_directions(n_dirs)

    ident = {"j2": 0.0, "bianchi": 0.0, "kulkarni": 0.0}
    per_point = []
    hist = {str(k): 0 for k in range(4)}
    rows = []
    rels = []
    isotropic = 0
    rank1 = None
    any_nonpositive = True
    for ip, p in enumerate(points):
        pack = pack_at(spec, p)
        res = identity_residuals(pack, n=8, seed=seed + ip)
        per_point.append({"point": list(p), **{k: float(v) for k, v in res.items()}})
        for k in ident:
            ident[k] = max(ident[k], res[k])
        rr = ricci_rank(pack)
        per_point[-1]["rank"] = rr.rank
        hist[str(rr.rank)] += 1
        any_nonpositive = any_nonpositive and rr.ric_nonpositive
        if rr.rank == 1 and rank1 is None:
            try:
                rep = rank1_checks(spec, p, rr)
                rank1 = {
                    "lie_e3_scal": rep.lie_e3_scal,
                    "div_e3": rep.div_e3,
                    "defect_min": rep.defect_min,
                    "defect_max": rep.defect_max,
                    "flagged": rep.flagged,
                }
            except RankPrecondition:
                pass
        X = _unit_directions(pack, dirs)
        ov = obstruction_values(pack, X)
        rel = np.abs(ov.residual) / ov.scale
        rels.append(rel)
        isotropic += int(np.count_nonzero(ov.frame.isotropic))
        if args.csv:
            cols = (ov.D1, ov.D2, ov.D, ov.P, ov.lhs, ov.rhs, ov.residual, ov.scale, rel)
            sweep = np.column_stack((X,) + cols).tolist()
            rows += [[ip, *p, idir, *row] for idir, row in enumerate(sweep)]

    rels = np.concatenate(rels)
    frac = float(np.mean(rels > OBSTRUCTED_REL))
    if frac >= OBSTRUCTED_FRACTION:
        verdict = "obstructed"
    elif float(rels.max()) <= tol:
        verdict = "unobstructed-at-samples"
    else:
        verdict = "degenerate"

    report = {
        "metric": spec.name,
        "params": spec.params,
        "seed": seed,
        "points": n_points,
        "dirs": n_dirs,
        "identity_residuals": ident,
        "per_point": per_point,
        "rank_histogram": hist,
        "ric_nonpositive_everywhere": bool(any_nonpositive),
        "obstruction": {
            "quantiles": {
                "min": float(rels.min()),
                "q25": float(np.quantile(rels, 0.25)),
                "median": float(np.quantile(rels, 0.5)),
                "q75": float(np.quantile(rels, 0.75)),
                "max": float(rels.max()),
            },
            "fraction_exceeding": frac,
            "threshold": OBSTRUCTED_REL,
            "isotropic": isotropic,
        },
        "rank1_checks": rank1,
        "verdict": verdict,
    }
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(
                "point_idx x1 x2 x3 dir_idx X1 X2 X3 D1 D2 D P lhs rhs residual scale rel".split()
            )
            w.writerows(rows)
    _emit(report, args)
    return 0


def cmd_riccati(args):
    spec = metrics.resolve(args.metric, _parse_params(args.param))
    p = _floats(args.point, "--point")
    v = np.array(_floats(args.dir, "--dir"))
    if not v.any():
        raise UsageError("--dir must be a nonzero vector")
    u11, u12, u22 = _floats(args.u0, "--u0")
    u0 = np.array([[u11, u12], [u12, u22]])
    for option, value in (("--T", args.T), ("--dt", args.dt)):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{option} must be a positive number, got {value}")
    try:
        path = integrate_geodesic(spec, p, v, args.T, args.dt)
    except ValueError as exc:
        # a plain ValueError is an argument check, and dt and the direction are
        # checked above: past MAX_STEPS.  Its subclasses are metric faults.
        if type(exc) is not ValueError:
            raise
        raise UsageError(f"--T/--dt: {exc}") from None
    Js = jacobi_along(spec, path)
    res = integrate_riccati(path, Js, u0)
    out = args.out or "trajectory.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow("t x1 x2 x3 u11 u12 u22 trace_defect".split())
        for st, x in zip(res.states, path.xs):
            w.writerow([st.t, *x, st.u[0, 0], st.u[0, 1], st.u[1, 1], st.trace_defect])
    summary = {
        "samples": len(res.states),
        "trace_defect_max": res.trace_defect_max,
        "blown_up": res.blown_up,
        "blowup_time": res.blowup_time,
        "csv": out,
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_classify(args):
    inst = polyclass.instance_from_file(args.instance)
    verdict, tilded = polyclass.classify(inst)
    report = {
        "branch": verdict.branch,
        "signs": list(verdict.signs),
        "oracle_residual": verdict.oracle_residual,
        "certificate": verdict.certificate,
        "tilde_applied": tilded,
        "exact_backend": inst.exact,
    }
    _emit(report, args)
    return 0 if verdict.branch != "Infeasible" or args.allow_infeasible else 1


# worst-residual limits of the frame-algebra sweeps, shared by frame-check and selftest
FRAME_LIMITS = {
    "b1_factor_worst": 1e-10,
    "a1_crosscheck_worst": 1e-9,
    "root_identities_worst": 1e-9,
    "bianchi_worst": 1e-12,
}


def _frame_algebra_checks(seed, count):
    """Frame-algebra sweeps over ``count`` frames seeded seed, seed+1, ...:
    worst residuals (keys of FRAME_LIMITS) and the rigid-table/EDS sign checks."""
    b1_factor_worst = 0.0
    for k in range(count):
        fd = fa.consistent_frame(seed + k, "free")
        for case in fa.CASES:
            b1_factor_worst = max(b1_factor_worst, fa.special_direction_polys(fd, case).b1_factor_residual())
    cross_worst = 0.0
    roots_worst = 0.0
    bianchi_worst = 0.0
    for k in range(count):
        fd = fa.consistent_frame(seed + k, "consistent")
        r13, r23 = fa.a1_crosscheck(fd)
        cross_worst = max(cross_worst, r13, r23)
        roots_worst = max(roots_worst, max(abs(v) for v in fa.root_identities(fd).values()))
        bianchi_worst = max(bianchi_worst, float(np.max(np.abs(fa.bianchi_frame_residuals(fd)))))
    tables_ok = True
    eds_ok = True
    for which in ("eds1", "eds2"):
        for e1 in (1, -1):
            for e2 in (1, -1):
                fd = fa.rigid_frame(which, -1.0, (e1, e2))
                tables_ok = tables_ok and (
                    float(np.max(np.abs(fa.bianchi_frame_residuals(fd)))) < 1e-12
                    and abs(fa.ric111_residual(fd)) < 1e-12
                )
                eds_ok = eds_ok and fa.eds_closure(which, -1.0, (e1, e2)).contradiction
    return {
        "b1_factor_worst": b1_factor_worst,
        "a1_crosscheck_worst": cross_worst,
        "root_identities_worst": roots_worst,
        "bianchi_worst": bianchi_worst,
        "rigid_tables_ok": tables_ok,
        "eds_contradictions_ok": eds_ok,
    }


def cmd_frame_check(args):
    seed = args.seed if args.seed is not None else 0
    count = args.count
    checks = _frame_algebra_checks(seed, count)
    certs = fa.contradiction_certificates()
    report = {
        "frames": count,
        **checks,
        "certificates": {
            k: v for k, v in certs.items() if k != "silver_ratio_root"
        },
        "silver_ratio_root": certs["silver_ratio_root"],
    }
    if args.dump_frame is not None:
        fd = fa.consistent_frame(seed, "consistent")
        with open(args.dump_frame, "w", encoding="utf-8") as fh:
            fh.write(fa.frame_to_text(fd))
    _emit(report, args)
    ok = (
        all(checks[k] < limit for k, limit in FRAME_LIMITS.items())
        and checks["rigid_tables_ok"]
        and checks["eds_contradictions_ok"]
    )
    return 0 if ok else 1


def _selftest_checks(tamper=False):
    """Yield (name, passed, detail) across the whole invariant suite."""
    zoo = [
        ("flat", {}),
        ("hyperbolic", {}),
        ("sphere", {}),
        ("heisenberg", {}),
        ("sol", {}),
        ("h2xr", {}),
    ]
    rng = np.random.default_rng(0)

    worst = {"j2": 0.0, "bianchi": 0.0, "kulkarni": 0.0}
    sign_lock = 0.0
    for name, params in zoo:
        spec = metrics.builtin(name, **params)
        for p in _sample_points(spec, 6, rng):
            pack = pack_at(spec, p, tamper=tamper)
            res = identity_residuals(pack, n=10, seed=1)
            for k in worst:
                worst[k] = max(worst[k], res[k])
            for v in rng.standard_normal((5, 3)):
                J = np.einsum("ijkl,j,k->li", pack.R, v, v)
                sign_lock = max(sign_lock, abs(np.trace(J) - float(v @ pack.ric @ v)))
    yield "identity_suite", all(v < 1e-7 for v in worst.values()), worst
    yield "sign_lock", sign_lock < 1e-9, {"max": sign_lock}

    spec = metrics.builtin("hyperbolic", c=1.0)
    pack = pack_at(spec, (0.1, -0.2, 0.9))
    cc = max(
        float(np.max(np.abs(pack.ric + 2.0 * pack.g))),
        abs(pack.scal + 6.0),
    )
    yield "constant_curvature", cc < 1e-9, {"max": cc}

    eig_err = 0.0
    for lam in (0.5, 1.0, 2.0):
        spec = metrics.builtin("heisenberg", L=lam)
        rr = ricci_rank(pack_at(spec, (0.3, -0.4, 0.2)))
        expect = np.array([-lam**2 / 2, -lam**2 / 2, lam**2 / 2])
        eig_err = max(eig_err, float(np.max(np.abs(rr.eigenvalues - expect))))
    yield "heisenberg_eigenvalues", eig_err < 1e-8, {"max": eig_err}

    dirs = fibonacci_directions(32)
    pass_ok = True
    fail_ok = True
    for name in ("flat", "hyperbolic"):
        spec = metrics.builtin(name)
        for p in _sample_points(spec, 3, rng):
            pack = pack_at(spec, p, tamper=tamper)
            ov = obstruction_values(pack, _unit_directions(pack, dirs))
            pass_ok = pass_ok and bool(np.all(np.abs(ov.residual) / ov.scale < 1e-9))
    for name in ("heisenberg", "sol"):
        spec = metrics.builtin(name)
        for p in _sample_points(spec, 3, rng):
            pack = pack_at(spec, p, tamper=tamper)
            ov = obstruction_values(pack, _unit_directions(pack, dirs))
            cnt = int(np.count_nonzero(np.abs(ov.residual) / ov.scale > 1e-6))
            fail_ok = fail_ok and cnt >= 0.9 * len(dirs)
    yield "obstruction_separation", pass_ok and fail_ok, {"pass": pass_ok, "fail": fail_ok}

    spec = metrics.builtin("heisenberg")
    pack = pack_at(spec, (0.4, 0.7, -0.3))
    X = np.array([0.3, 0.8, 0.5])
    ov1 = obstruction_values(pack, X)
    ov2 = obstruction_values(pack, 2.0 * X)
    degs = {
        "D1": (ov2.D1 / ov1.D1, 8.0),
        "D2": (ov2.D2 / ov1.D2, 16.0),
        "trJJ": (ov2.tr_JJ / ov1.tr_JJ, 16.0),
        "trJJp": (ov2.tr_JJp / ov1.tr_JJp, 32.0),
        "P": (ov2.P / ov1.P, 256.0),
        "D": (ov2.D / ov1.D, 1024.0),
        "lhs": (ov2.lhs / ov1.lhs, 65536.0),
        "rhs": (ov2.rhs / ov1.rhs, 65536.0),
    }
    hom_ok = all(abs(got / want - 1.0) < 1e-8 for got, want in degs.values())
    yield "homogeneity_degrees", hom_ok, {k: v[0] for k, v in degs.items()}

    frame = _frame_algebra_checks(0, 200)
    for name, key in (
        ("b1_factorization", "b1_factor_worst"),
        ("a1_crosscheck", "a1_crosscheck_worst"),
        ("root_identities", "root_identities_worst"),
    ):
        yield name, frame[key] < FRAME_LIMITS[key], {"max": frame[key]}
    yield "rigid_tables", frame["rigid_tables_ok"], {}
    yield "eds_closure_all_signs", frame["eds_contradictions_ok"], {}

    certs = fa.contradiction_certificates()
    cert_ok = (
        not certs["r3+6r2+21r+8"]
        and not certs["(r-1)(r2+4)"]
        and certs["silver_ratio_root"] is not None
        and abs(certs["silver_ratio_root"] - fa.R_SILVER) < 1e-12
    )
    yield "certificates", cert_ok, certs

    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1.0, 0, 0), 1.2, 1e-3)
    Js = jacobi_along(spec, path)
    res = integrate_riccati(path, Js, np.diag([1.0, -1.0]))
    blow_ok = res.blown_up and abs(res.blowup_time - 1.0) < 1e-3
    yield "riccati_blowup", blow_ok, {"time": res.blowup_time}

    spec = metrics.builtin("hyperbolic", c=1.0)
    p0, v0 = (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)
    errs = []
    for dt in (0.02, 0.01):
        pth = integrate_geodesic(spec, p0, v0, 1.0, dt)
        errs.append(float(np.max(np.abs(pth.xs[-1] - np.array([0, 0, math.e])))))
    slope = math.log2(errs[0] / errs[1])
    yield "geodesic_order4", abs(slope - 4.0) < 0.2, {"slope": slope}

    errs = []
    for dt in (0.02, 0.01):
        pth = integrate_geodesic(spec, p0, v0, 1.0, dt)
        r = integrate_riccati(pth, jacobi_along(spec, pth), np.zeros((2, 2)))
        errs.append(abs(r.final[0, 0] - math.tanh(1.0)))
    slope = math.log2(errs[0] / errs[1])
    yield "riccati_order4", abs(slope - 4.0) < 0.2, {"slope": slope}

    rng2 = np.random.default_rng(5)
    ok = True
    for branch in ("CZero", "DEqualsSqrtLambdaA", "CaseIII", "CaseIV", "Infeasible"):
        inst, expect = polyclass.plant_a12(rng2, branch)
        got = polyclass.classify_a12(inst)
        ok = ok and got.branch == expect.branch
    for branch in ("CZero", "A3BranchII", "Infeasible"):
        inst, expect = polyclass.plant_a3(rng2, branch)
        got = polyclass.classify_a3(inst)
        ok = ok and got.branch == expect.branch
    yield "classifier_spotcheck", ok, {}

    inst, _ = polyclass.plant_a3(rng2, "A3BranchII", (1, -1))
    t2 = polyclass.tilde_transform(polyclass.tilde_transform(inst))
    yield "tilde_involution", t2.a == inst.a and t2.P == inst.P, {}


def cmd_selftest(args):
    results = []
    for name, ok, detail in _selftest_checks(tamper=args.tamper_sign):
        results.append({"check": name, "pass": bool(ok), "detail": _plain(detail)})
        if not args.json:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
            if not ok:
                for key, value in results[-1]["detail"].items():
                    print(f"    {key} = {value}")
    n_fail = sum(1 for r in results if not r["pass"])
    if args.json:
        print(json.dumps({"results": results, "failures": n_fail}, indent=2))
    else:
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every ``main`` call."""
    ap = argparse.ArgumentParser(prog="riccati3")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="curvature identities, rank structure, obstruction sweep")
    pa.add_argument("metric", help="builtin name or metric JSON file")
    pa.add_argument("-n", "--points", type=int, default=None)
    pa.add_argument("-m", "--dirs", type=int, default=None)
    pa.add_argument("--param", action="append", default=[])
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--tol", type=float, default=None)
    pa.add_argument("--config", default=None)
    pa.add_argument("--out", default=None)
    pa.add_argument("--csv", default=None)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("riccati", help="integrate the Riccati equation along a geodesic")
    pr.add_argument("metric")
    pr.add_argument("--point", required=True, help="x1,x2,x3")
    pr.add_argument("--dir", required=True, help="v1,v2,v3 (normalized internally)")
    pr.add_argument("--u0", default="0,0,0", help="u11,u12,u22")
    pr.add_argument("--T", type=float, default=1.0)
    pr.add_argument("--dt", type=float, default=1e-3)
    pr.add_argument("--param", action="append", default=[])
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_riccati)

    pc = sub.add_parser("classify", help="classify a polynomial constraint instance")
    pc.add_argument("instance", help="instance JSON file")
    pc.add_argument("--out", default=None)
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--allow-infeasible", action="store_true")
    pc.set_defaults(func=cmd_classify)

    pf = sub.add_parser("frame-check", help="frame-algebra identity sweeps and certificates")
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--count", type=int, default=200)
    pf.add_argument("--dump-frame", default=None)
    pf.add_argument("--out", default=None)
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_frame_check)

    ps = sub.add_parser("selftest", help="run the full invariant suite")
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--tamper-sign", action="store_true", help=argparse.SUPPRESS)
    ps.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    """Run one command; a bad input value, metric or instance, or a file that
    cannot be read or parsed, is reported as one line on stderr with exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError,
        metrics.MetricError,
        ExprError,
        polyclass.PolyclassError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"riccati3 {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
