"""Per-request output checks, independent of the code they check.

Every expectation comes from the geometry of the input or from how the input
was built: the verdict and Ricci rank of a known space, the exact solution of
a Riccati equation with constant curvature, the branch an instance was
planted in.  ``check`` returns the names of the checks a request failed; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math

IDENTITY_TOL = 1e-7
END_TOL = 1e-9
TANH_TOL = 1e-6
FLAT_BLOWUP_TOL = 1e-3
# Sectional curvatures of every metric in the list lie in [-3, 1], so with
# u0 <= -mu and mu >= 6 the comparison solutions blow up within 3% of 1/mu;
# the rest of the band is the integrator's detection lag.
BLOWUP_BAND = (0.85, 1.15)


def _min_eig_sym2(a, b, c):
    return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)


def _analyze(exp, report):
    bad = []
    if report.get("points") != exp["points"] or report.get("dirs") != exp["dirs"]:
        bad.append("shape")
    if report.get("verdict") != exp["verdict"]:
        bad.append("verdict")
    hist = report.get("rank_histogram", {})
    want = {str(k): (exp["points"] if k == exp["rank"] else 0) for k in range(4)}
    if hist != want:
        bad.append("rank")
    resid = report.get("identity_residuals", {})
    if len(resid) != 3 or not all(v < IDENTITY_TOL for v in resid.values()):
        bad.append("identities")
    rank1 = report.get("rank1_checks")
    if exp["rank"] == 1:
        # a rank-1 point must carry the defect certificate (scal != 0 there)
        if not rank1 or not rank1.get("flagged"):
            bad.append("rank1")
    elif rank1 is not None:
        bad.append("rank1")
    return bad


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def _riccati(exp, summary):
    bad = []
    try:
        rows = _read_csv(exp["csv"])
    except (OSError, ValueError):
        return ["output"]
    if not rows or summary.get("samples") != len(rows) or rows[0]["t"] != 0.0:
        return ["output"]
    last = rows[-1]
    T = exp["T"]
    mode = exp["mode"]
    if mode in ("bounded", "tanh"):
        if summary.get("blown_up"):
            bad.append("bounded")
        if abs(last["t"] - T) > END_TOL:
            bad.append("ends_at_T")
        if mode == "tanh":
            # at the last sample, so a short path fails only ends_at_T
            want = math.tanh(last["t"])
            if max(abs(last["u11"] - want), abs(last["u22"] - want), abs(last["u12"])) > TANH_TOL:
                bad.append("tanh")
        return bad
    t_blow = summary.get("blowup_time")
    if not summary.get("blown_up") or t_blow is None or not last["t"] <= t_blow <= T:
        return ["blowup"]
    if mode == "flat_blowup":
        # u22' = -u22^2 from -1 gives u22 = -1/(1 - t)
        if abs(t_blow - 1.0) > FLAT_BLOWUP_TOL:
            bad.append("blowup_time")
    else:
        mu = -_min_eig_sym2(*exp["u0"])
        lo, hi = BLOWUP_BAND
        if not lo / mu <= t_blow <= hi / mu:
            bad.append("blowup_time")
    return bad


def _classify(exp, report):
    bad = []
    if report.get("branch") != exp["branch"]:
        bad.append("branch")
    if report.get("signs") != exp["signs"]:
        bad.append("signs")
    if report.get("tilde_applied") != exp["tilde"]:
        bad.append("tilde")
    return bad


def _frame_check(exp, report):
    return [] if report.get("frames") == exp["count"] else ["frames"]


_CHECKS = {
    "analyze": _analyze,
    "riccati": _riccati,
    "classify": _classify,
    "frame_check": _frame_check,
}


def check(request, exit_code, stdout):
    """Names of the checks ``request`` failed, given its exit code and stdout."""
    if exit_code is None:
        return ["raised"]
    if exit_code != 0:
        return ["exit"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["output"]
    return _CHECKS[request.expect["kind"]](request.expect, report)
