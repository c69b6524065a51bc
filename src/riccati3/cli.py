"""Command-line interface: analyze | riccati | classify | frame-check | selftest.

All commands are deterministic under a fixed --seed.  --json prints the
machine-readable report to stdout; --out writes it to a file.  A plain-text
config file (key = value per line, # comments) can supply analyze's defaults
for seed / tol / points / dirs; any other key is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from math import isfinite

import numpy as np

from . import frame_algebra as fa
from . import metrics, polyclass
from .curvature import identity_residuals, jacobi_op, pack_at, ricci_rank
from .exprjet import ExprError
from .obstruction import fibonacci_directions, obstruction_values, rank1_checks
from .riccati import SAMPLE_BLOCK, DirectionError, StepsError, integrate_geodesic, integrate_riccati, jacobi_along

OBSTRUCTED_REL = 1e-6
OBSTRUCTED_FRACTION = 0.10
# sample points per batched curvature pack in ``analyze``, and point-directions
# per detector call within a block (a call takes one point at least): together
# they bound the memory of the (points, directions) arrays at large -n and -m
POINT_BLOCK = 64
SWEEP_BLOCK = 16384
# most sample points, point-directions (-n times -m) and directions one
# ``analyze`` may take, refused before anything is sampled: about 1.8 KB a
# point (its tuple, report entry and text) and 40 bytes a point-direction (its
# residual, kept for the statistics) make about 180 MB and 400 MB at the first
# two bounds; one point's detector call holds all its directions, about 780
# bytes each, so -n 1 at the last peaks at 200 MB of RSS, and 236 MB with
# --csv, whose rows go to the file one point at a time
MAX_POINTS = 10**5
MAX_POINT_DIRECTIONS = 10**7
MAX_DIRS = 2 * 10**5


class UsageError(ValueError):
    """A command-line value that fails validation."""


CONFIG_KEYS = ("seed", "tol", "points", "dirs")


def load_config(path):
    """The ``key = value`` entries of a config file; a key outside CONFIG_KEYS,
    a misspelt one say, is a UsageError rather than a silently unused entry."""
    cfg = {}
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(f"--config: unknown key {key!r} (have {', '.join(CONFIG_KEYS)})")
            cfg[key] = val.strip()
    return cfg


def _parse_params(items):
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        key = key.strip()
        try:
            out[key] = float(val)
        except ValueError:
            raise UsageError(f"--param needs key=number, got {item!r}") from None
        if not math.isfinite(out[key]):
            raise UsageError(f"--param {key} must be a finite number, got {val!r}")
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


# the options whose value is a comma-separated vector, and a value of theirs
# that starts with a minus sign
VECTOR_OPTIONS = ("--point", "--dir", "--u0")
_NEGATIVE = re.compile(r"-[0-9.]")


def _joined_vectors(argv):
    """argv with each ``--point -0.1,0.2,0.3`` written ``--point=-0.1,0.2,0.3``,
    and so for ``--dir`` and ``--u0``: argparse takes a value that starts with
    a minus sign and is not one plain number for an option of its own."""
    out = []
    for arg in argv:
        if out and out[-1] in VECTOR_OPTIONS and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _json_write(obj, append, nl):
    """Pass to ``append``, in order, the pieces of the text that
    ``json.dumps(obj, indent=2)`` gives ``obj`` where its lines start with
    ``nl``, a line break and the indent of its nesting ("\\n" at the top).

    The checks and texts are those of ``json``'s Python encoder, which
    ``indent`` selects: a str by ``encode_basestring_ascii``, None, True and
    False as null, true and false, an int (bool aside) by ``int.__repr__``, a
    float by ``float.__repr__`` or as NaN, Infinity or -Infinity, a list or
    tuple as an array and a dict, whose keys are str, as an object, each
    item on its own line; any other value is the TypeError json raises.  A
    finite float item, the commonest leaf of a report, is written in its
    container's loop.  It is a module function handed ``append``, so a call
    makes no closure and no reference cycle."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        inner = nl + "  "
        head = "[" + inner
        for item in obj:
            if type(item) is float and isfinite(item):
                append(head + float.__repr__(item))
            else:
                append(head)
                _json_write(item, append, inner)
            head = "," + inner
        append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for key, value in obj.items():
            head += encode_basestring_ascii(key) + ": "  # a TypeError for a key that is not a str
            if type(value) is float and isfinite(value):
                append(head + float.__repr__(value))
            else:
                append(head)
                _json_write(value, append, inner)
            head = "," + inner
        append(nl + "}")
    elif isinstance(obj, str):
        append(encode_basestring_ascii(obj))
    elif obj is None:
        append("null")
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif isinstance(obj, int):
        append(int.__repr__(obj))
    elif isinstance(obj, float):
        append(float.__repr__(obj) if isfinite(obj) else "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _json_text(obj):
    """``json.dumps(obj, indent=2)``, the same text, written by ``_json_write``."""
    parts = []
    _json_write(obj, parts.append, "\n")
    return "".join(parts)


def _emit(report, args):
    text = _json_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False) or not args.out:
        print(text)


@contextlib.contextmanager
def _csv_writer(path, header):
    """Open the CSV file at ``path`` with the line ``header`` (names) and give
    ``write(rows)``, which appends rows of Python floats and ints, call after
    call, with the bytes ``csv.writer`` gives them: each field its repr, none
    quoted, as none holds a comma, quote or line break, and each line ended
    by CR LF.  An exception closes the file with the rows written so far."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        yield lambda rows: fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _sample_points(spec, n, rng):
    """n points drawn uniformly from the box, as tuples: one (n, 3) draw, the
    same numbers as 3n scalar draws, point by point and coordinate by coordinate."""
    lo, hi = np.array(spec.box, dtype=float).T
    return list(map(tuple, rng.uniform(lo, hi, (n, 3)).tolist()))


def _unit_directions(pack, dirs):
    """The rows of ``dirs`` scaled to unit length in the metric of ``pack``:
    (m, 3), or (n, m, 3) at a pack of n points."""
    return dirs / np.sqrt(np.einsum("...i,...i->...", dirs @ pack.g, dirs))[..., None]


def _point_blocks(spec, points):
    """(index of the first point, points, their batched ``pack_at``) for each
    block of POINT_BLOCK sample points, packed when the caller asks for it.
    A block that faults is packed point by point, so the run stops at the
    first faulting point in sample order, with its one-point message, once
    the caller has taken every block before it."""
    for start in range(0, len(points), POINT_BLOCK):
        block = points[start : start + POINT_BLOCK]
        try:
            pack = pack_at(spec, np.array(block))
        except (metrics.MetricError, ExprError):
            for p in block:
                pack_at(spec, p)
            raise
        yield start, block, pack


def _rel_statistics(rels):
    """((min, q25, median, q75, max), fraction above OBSTRUCTED_REL) of the
    relative residuals ``rels``, a float array, as Python floats from one
    sort: the bits of ``rels.min()``, ``np.quantile(rels, [0.25, 0.5, 0.75])``,
    ``rels.max()`` and ``np.mean(rels > OBSTRUCTED_REL)``.  A residual
    |r| / scale is never -0.0, which a sort and numpy's selection may place
    apart from +0.0.

    The quantiles are numpy's default 'linear' method written out on floats:
    at v = q (n - 1), with a and b the sorted values at floor(v) and the next
    index, d = b - a and t = v - floor(v), a + d t for t < 0.5 and
    b - d (1 - t) otherwise.  At n = 1, a and b are the one value, whatever
    the t (d t is 0, or nan where the value is infinite, as numpy's is).  A
    nan sorts last, and makes every statistic but the fraction nan, as it
    makes numpy's."""
    s = np.sort(rels)
    n = len(s)
    frac = int(np.count_nonzero(s > OBSTRUCTED_REL)) / n
    hi = s[-1].item()
    if math.isnan(hi):
        return (math.nan,) * 5, frac
    stats = [s[0].item()]
    for q in (0.25, 0.5, 0.75):
        v = (n - 1) * q
        i = math.floor(v)
        a, b = s[i : i + 2].tolist() if i < n - 1 else (hi, hi)
        d, t = b - a, v - i
        stats.append(a + d * t if t < 0.5 else b - d * (1.0 - t))
    return (*stats, hi), frac


def _setting(args, cfg, key, default):
    """``key``'s command-line value, else its config-file entry parsed as the
    type of ``default``, else ``default``."""
    try:
        return getattr(args, key) if getattr(args, key) is not None else type(default)(cfg.get(key, default))
    except ValueError:
        raise UsageError(f"--config: {key} = {cfg[key]!r} is not a valid {type(default).__name__}") from None


def cmd_analyze(args):
    cfg = load_config(args.config)
    seed = _setting(args, cfg, "seed", 0)
    tol = _setting(args, cfg, "tol", 1e-9)
    n_points = _setting(args, cfg, "points", 10)
    n_dirs = _setting(args, cfg, "dirs", 64)
    if n_points < 1 or n_dirs < 1:
        raise UsageError(f"-n/--points and -m/--dirs must be at least 1, got {n_points}, {n_dirs}")
    if n_points > MAX_POINTS:
        raise UsageError(f"-n/--points is {n_points}, more than MAX_POINTS = {MAX_POINTS}")
    if n_points * n_dirs > MAX_POINT_DIRECTIONS:
        raise UsageError(
            f"-n/--points times -m/--dirs is {n_points * n_dirs}, more than MAX_POINT_DIRECTIONS = {MAX_POINT_DIRECTIONS}"
        )
    if n_dirs > MAX_DIRS:
        raise UsageError(f"-m/--dirs is {n_dirs}, more than MAX_DIRS = {MAX_DIRS}")
    if seed < 0:
        raise UsageError(f"--seed must be at least 0, got {seed}")
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"--tol must be a finite number at least 0, got {tol}")

    spec = metrics.resolve(args.metric, _parse_params(args.param))
    rng = np.random.default_rng(seed)
    points = _sample_points(spec, n_points, rng)
    dirs = fibonacci_directions(n_dirs)

    per_point = []
    hist = {str(k): 0 for k in range(4)}
    rels = []
    isotropic = 0
    rank1 = None
    any_nonpositive = True
    # the detector in calls of at most SWEEP_BLOCK point-directions, or of one
    # point's: a point's values do not depend on the others in its call
    per = max(1, SWEEP_BLOCK // n_dirs)
    header = "point_idx x1 x2 x3 dir_idx X1 X2 X3 D1 D2 D P lhs rhs residual scale rel".split()
    with _csv_writer(args.csv, header) if args.csv else contextlib.nullcontext() as write:
        for start, block, pack in _point_blocks(spec, points):
            res = identity_residuals(pack, n=8, seed=seed + start)  # one draw; point start + k reads row k
            for first in range(0, len(block), per):
                part = pack._make(x[first : first + per] for x in pack)
                X = _unit_directions(part, dirs)
                ov = obstruction_values(part, X)
                rel = np.abs(ov.residual) / ov.scale
                rels.append(rel.ravel())
                isotropic += int(np.count_nonzero(ov.isotropic))
                if args.csv:
                    cols = (ov.D1, ov.D2, ov.D, ov.P, ov.lhs, ov.rhs, ov.residual, ov.scale, rel)
                    for i, table in enumerate(np.concatenate([X, np.stack(cols, -1)], -1), start + first):
                        write([i, *points[i], idir, *row] for idir, row in enumerate(table.tolist()))
            ranks = ricci_rank(pack)
            for k, p in enumerate(block):
                rr = ranks.row(k)
                per_point.append({"point": list(p), **{key: float(v[k]) for key, v in res.items()}, "rank": rr.rank})
                hist[str(rr.rank)] += 1
                any_nonpositive = any_nonpositive and rr.ric_nonpositive
                if rr.rank == 1 and rank1 is None:
                    rep = rank1_checks(pack.row(k), rr)._asdict()
                    keys = ("lie_e3_scal", "div_e3", "defect_min", "defect_max", "flagged")
                    rank1 = {key: rep[key] for key in keys}

    ident = {key: functools.reduce(_worst, (pp[key] for pp in per_point), 0.0) for key in ("j2", "bianchi", "kulkarni")}
    (lo, q25, median, q75, hi), frac = _rel_statistics(np.concatenate(rels))
    if frac >= OBSTRUCTED_FRACTION:
        verdict = "obstructed"
    elif hi <= tol:
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
                "min": lo,
                "q25": q25,
                "median": median,
                "q75": q75,
                "max": hi,
            },
            "fraction_exceeding": frac,
            "threshold": OBSTRUCTED_REL,
            "isotropic": isotropic,
        },
        "rank1_checks": rank1,
        "verdict": verdict,
    }
    _emit(report, args)
    return 0


def cmd_riccati(args):
    spec = metrics.resolve(args.metric, _parse_params(args.param))
    p = _floats(args.point, "--point")
    v = np.array(_floats(args.dir, "--dir"))
    if not v.any():
        raise UsageError("--dir must be a nonzero vector")
    u0 = _floats(args.u0, "--u0")
    for option, value in (("--T", args.T), ("--dt", args.dt)):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{option} must be a positive number, got {value}")
    try:
        path = integrate_geodesic(spec, p, v, args.T, args.dt)
    except DirectionError as exc:
        raise UsageError(f"--dir: {exc}") from None
    except StepsError as exc:
        raise UsageError(f"--T/--dt: {exc}") from None
    Js = jacobi_along(path)
    res = integrate_riccati(path, Js, u0)
    k = len(res.ts)
    out = args.out or "trajectory.csv"
    table = np.column_stack([res.ts, path.xs[:k], res.u, res.trace_defect])
    # the rows as Python floats one block of SAMPLE_BLOCK at a time, so no list holds the whole path
    with _csv_writer(out, "t x1 x2 x3 u11 u12 u22 trace_defect".split()) as write:
        for s in range(0, k, SAMPLE_BLOCK):
            write(table[s : s + SAMPLE_BLOCK].tolist())
    summary = {
        "samples": k,
        "trace_defect_max": res.trace_defect_max,
        "blown_up": res.blown_up,
        "blowup_time": res.blowup_time,
        "csv": out,
    }
    print(_json_text(summary))
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


# frames per batched identity check in the frame-algebra sweeps: bounds the
# memory of the per-frame arrays at large --count
FRAME_BLOCK = 256
# worst-residual limits of the frame-algebra sweeps, shared by frame-check and
# selftest: report key -> (row name in ``_frame_algebra_rows``, limit)
FRAME_LIMITS = {
    "b1_factor_worst": ("b1_factorization", 1e-10),
    "a1_crosscheck_worst": ("a1_crosscheck", 1e-9),
    "root_identities_worst": ("root_identities", 1e-9),
    "bianchi_worst": ("frame_bianchi", 1e-12),
}


@functools.cache
def _frame_verdicts():
    """The frame-algebra verdicts that take no input, computed once per
    process: (rigid_tables_ok, eds_contradictions_ok, certificates).  The
    eight rigid frames are built once: their table checks run as one batch,
    and each frame goes to its EDS closure.  ``certificates`` is the
    (name, value) pairs of ``fa.contradiction_certificates``, each list of
    roots a tuple, so nothing a caller holds can change what the next reads."""
    signs = [(which, (e1, e2)) for which in ("eds1", "eds2") for e1 in (1, -1) for e2 in (1, -1)]
    rigid = [fa.rigid_frame(which, -1.0, eps) for which, eps in signs]
    tables = fa.stack_frames(rigid)
    rigid_ok = bool(
        np.max(np.abs(fa.bianchi_frame_residuals(tables))) < 1e-12
        and np.max(np.abs(fa.ric111_residual(tables))) < 1e-12
    )
    eds_ok = all(fa.eds_closure(which, -1.0, eps, fd=fd).contradiction for (which, eps), fd in zip(signs, rigid))
    certs = tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in fa.contradiction_certificates().items())
    return rigid_ok, eds_ok, certs


def _worst(a, b):
    """``max(a, b)``, but NaN when either is: ``max(0.0, nan)`` is 0.0, so a
    fold by ``max`` would pass a check whose residuals are all NaN."""
    return b if b > a or b != b else a


def _frame_algebra_checks(seed, count):
    """Frame-algebra sweeps over ``count`` frames drawn in turn from one
    ``default_rng(seed)``, so the first is ``consistent_frame(seed)``: worst
    residuals (keys of FRAME_LIMITS) and the rigid-table/EDS sign checks of
    ``_frame_verdicts``.

    Each identity runs once per block of up to FRAME_BLOCK consistent frames,
    and the block's three bundles are built once, from its frames alone.  A
    bundle's b1 and c read only lambda and Gamma, which a draw's free and
    consistent frames share, so the consistent frames' bundles serve the b1
    factorization, the a1 cross-check and the root identities.  A NaN
    residual is the worst."""
    worst = dict.fromkeys(FRAME_LIMITS, 0.0)
    rng = np.random.default_rng(seed)
    for start in range(0, count, FRAME_BLOCK):
        cons = fa.consistent_from_free(fa.free_frames(rng, min(FRAME_BLOCK, count - start)))
        bundles = [fa.special_direction_polys(cons, case) for case in fa.CASES]
        block = {
            "b1_factor_worst": [b.b1_factor_residual() for b in bundles],
            "a1_crosscheck_worst": fa.a1_crosscheck(cons, bundles),
            "root_identities_worst": list(fa.root_identities(cons, bundles).values()),
            "bianchi_worst": fa.bianchi_frame_residuals(cons),
        }
        for key, cols in block.items():
            worst[key] = _worst(worst[key], float(abs(np.array(cols)).max()))
    rigid_ok, eds_ok, _ = _frame_verdicts()
    return {**worst, "rigid_tables_ok": rigid_ok, "eds_contradictions_ok": eds_ok}


def _frame_algebra_rows(checks, certs):
    """Yield (name, passed, detail) for the sweep limits, the rigid-table and
    EDS checks of ``_frame_algebra_checks`` and the contradiction
    certificates: the rows of selftest, and what frame-check's exit code
    judges."""
    for key, (name, limit) in FRAME_LIMITS.items():
        yield name, checks[key] < limit, {"max": checks[key]}
    yield "rigid_tables", checks["rigid_tables_ok"], {}
    yield "eds_closure_all_signs", checks["eds_contradictions_ok"], {}
    cert_ok = (
        not certs["r3+6r2+21r+8"]
        and not certs["(r-1)(r2+4)"]
        and certs["silver_ratio_root"] is not None
        and abs(certs["silver_ratio_root"] - fa.R_SILVER) < 1e-12
    )
    yield "certificates", cert_ok, certs


def cmd_frame_check(args):
    seed, count = args.seed, args.count
    if seed < 0 or count < 0:
        raise UsageError(f"--seed and --count must be at least 0, got {seed}, {count}")
    checks = _frame_algebra_checks(seed, count)
    certs = dict(_frame_verdicts()[2])
    report = {
        "seed": seed,
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
    return 0 if all(ok for _, ok, _ in _frame_algebra_rows(checks, certs)) else 1


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
                worst[k] = _worst(worst[k], res[k])
            vs = rng.standard_normal((5, 3))
            trJ = np.trace(jacobi_op(pack, vs), axis1=-2, axis2=-1)
            ric_vv = np.einsum("ai,ij,aj->a", vs, pack.ric, vs)
            sign_lock = _worst(sign_lock, float(abs(trJ - ric_vv).max()))
    yield "identity_suite", all(v < 1e-7 for v in worst.values()), worst
    yield "sign_lock", sign_lock < 1e-9, {"max": sign_lock}

    spec = metrics.builtin("hyperbolic", c=1.0)
    pack = pack_at(spec, (0.1, -0.2, 0.9))
    cc = _worst(float(abs(pack.ric + 2.0 * pack.g).max()), abs(pack.scal + 6.0))
    yield "constant_curvature", cc < 1e-9, {"max": cc}

    eig_err = 0.0
    for lam in (0.5, 1.0, 2.0):
        spec = metrics.builtin("heisenberg", L=lam)
        rr = ricci_rank(pack_at(spec, (0.3, -0.4, 0.2)))
        expect = np.array([-lam**2 / 2, -lam**2 / 2, lam**2 / 2])
        eig_err = _worst(eig_err, float(abs(rr.eigenvalues - expect).max()))
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

    pack = pack_at(metrics.builtin("sol"), (0.4, 0.7, -0.3))  # every quantity is O(1) on sol
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

    yield from _frame_algebra_rows(_frame_algebra_checks(0, 200), dict(_frame_verdicts()[2]))

    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1.0, 0, 0), 1.2, 1e-3)
    res = integrate_riccati(path, jacobi_along(path), (1.0, 0.0, -1.0))
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
        r = integrate_riccati(pth, jacobi_along(pth), (0.0, 0.0, 0.0))
        errs.append(abs(r.u[-1, 0] - math.tanh(1.0)))
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
        print(_json_text({"results": results, "failures": n_fail}))
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
    """The command-line parser, built on first use and shared by every
    ``main`` call; ``commands`` maps each command's name to its own parser."""
    ap = argparse.ArgumentParser(prog="riccati3")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices

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
    pf.add_argument("--seed", type=int, default=0)
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


def _parse_args(argv):
    """The Namespace that ``build_parser().parse_args(argv)`` gives, with its
    help and its usage errors.  A request that names its command first is
    parsed by that command's own parser alone, as the whole parser would
    hand it on, into a Namespace that holds ``command`` first, as the whole
    parser's does.  The whole parser takes a request with no command, an
    unknown one or a help option first, and one with arguments left over,
    so that its error shows the top-level usage line."""
    parser = build_parser()
    own = parser.commands.get(argv[0]) if argv else None
    if own is None:
        return parser.parse_args(argv)
    args, rest = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv) if rest else args


def main(argv=None):
    """Run one command; a bad input value, metric or instance, or a file that
    cannot be read or parsed, is reported as one line on stderr with exit code 2."""
    args = _parse_args(_joined_vectors(sys.argv[1:] if argv is None else argv))
    try:
        # an overflow or nan is caught by the checks and reported as the one
        # line below, so numpy's warnings about it would only add lines
        with np.errstate(all="ignore"):
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
