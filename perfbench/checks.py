"""Correctness checks for the benchmark's workloads.

Each check tests properties that every correct version of aelab keeps, so a
failure means wrong output, never a merely different implementation.  The
checks read what the program wrote (CSV files) or returned, and use only the
original public functions handed to them, never traced wrappers.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np

FIT_REF_TOL = 1e-7  # radians; statistical error of these fits is ~1e-3
FIT_LL_STEP = 1e-6  # radians either side of the estimate


def read_csv(path) -> tuple[dict, list[dict]]:
    """``(metadata, rows)`` of an aelab CSV file with ``# key=value`` headers."""
    meta = {}
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


# ---------------------------------------------------------------------------
# simulate


def check_simulate(rows, config, crb_curves, schedule_len, reference, rmse_band) -> dict:
    """Failed ``(method, a)`` cells of one ``simulate`` table, with reasons.

    Per cell: one row per schedule prefix; n_q_tot and all four CRB columns
    equal ``crb_curves(config, a, method)`` exactly (CSV floats round-trip);
    every RMSE is finite, non-negative and within ``rmse_band`` (a factor
    pair) of the recorded reference RMSE for that row.
    """
    failed: dict[tuple[str, int], str] = {}
    by_cell = defaultdict(list)
    for row in rows:
        by_cell[(row["method"], row["a"])].append(row)
    lo, hi = rmse_band
    for method in config.methods:
        for ti, a in enumerate(config.targets):
            key = (method.value, ti)
            cell = by_cell.get((method.value, repr(a)), [])
            n = schedule_len[method]
            if len(cell) != n:
                failed[key] = f"{len(cell)} rows, expected {n}"
                continue
            bounds = crb_curves(config, a, method)
            for k, row in enumerate(cell):
                ref = reference.get((method.value, ti, k + 1))
                try:
                    exact = (
                        int(row["prefix"]) == k + 1
                        and int(row["n_q_tot"]) == int(bounds.n_q_tot[k])
                        and float(row["crb_classical"]) == float(bounds.classical[k])
                        and float(row["crb_quantum"]) == float(bounds.quantum[k])
                        and float(row["crb_noiseless"]) == float(bounds.noiseless[k])
                        and float(row["crb_no_amplification"]) == float(bounds.no_amplification[k])
                    )
                    rmse = float(row["rmse"])
                except ValueError as exc:
                    failed[key] = f"prefix {k + 1}: unparsable row ({exc})"
                    break
                if not exact:
                    failed[key] = f"prefix {k + 1}: schedule or CRB columns differ from crb_curves"
                    break
                if not (math.isfinite(rmse) and rmse >= 0.0):
                    failed[key] = f"prefix {k + 1}: rmse {rmse!r} is not finite and non-negative"
                    break
                if ref is None or not lo * ref <= rmse <= hi * ref:
                    failed[key] = f"prefix {k + 1}: rmse {rmse:.4g} outside [{lo}, {hi}] x reference {ref}"
                    break
    extra = len(rows) - sum(schedule_len[m] * len(config.targets) for m in config.methods)
    if extra:
        failed[("table", -1)] = f"{extra:+d} rows against the expected count"
    return failed


# ---------------------------------------------------------------------------
# fit


def reference_mle(method_is_q: bool, ms, shots, hits, r: float, inv_d: float) -> float:
    """Independent maximum-likelihood angle of one record.

    Evaluates the log-likelihood on a grid of 16 points per period of the
    fastest oscillation, refines the five best local maxima by bisecting the
    sign change of the derivative, and folds method Q onto ``(0, pi/4]``.
    """
    ms = np.asarray(ms, dtype=float)
    shots = np.asarray(shots, dtype=float)
    hits = np.asarray(hits, dtype=float)
    misses = shots - hits
    n = 2.0 * ms if method_is_q else 2.0 * ms + 1.0
    keep = n > 0
    n, hits, misses = n[keep], hits[keep], misses[keep]
    log_r = math.log(r)
    big_r = np.exp(n * log_r)
    mixed = -np.expm1(n * log_r)
    floor = mixed * (1.0 - inv_d) if method_is_q else mixed / 2.0

    def ll(theta):
        p1 = np.clip(big_r * np.sin(n * theta) ** 2 + floor, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.sum(np.where(hits > 0, hits * np.log(p1), 0.0))
                         + np.sum(np.where(misses > 0, misses * np.log1p(-p1), 0.0)))

    def dll(theta):
        p1 = np.clip(big_r * np.sin(n * theta) ** 2 + floor, 0.0, 1.0)
        dp1 = big_r * n * np.sin(2.0 * n * theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.sum(np.where(hits > 0, hits * dp1 / p1, 0.0))
                         - np.sum(np.where(misses > 0, misses * dp1 / (1.0 - p1), 0.0)))

    points = max(4096, int(16 * n.max()))
    grid = np.linspace(0.0, math.pi / 2, points + 2)[1:-1]
    step = grid[1] - grid[0]
    acc = np.zeros_like(grid)
    for nj, rj, fj, hj, mj in zip(n, big_r, floor, hits, misses):
        p1 = np.clip(rj * np.sin(nj * grid) ** 2 + fj, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            if hj:
                acc += hj * np.log(p1)
            if mj:
                acc += mj * np.log1p(-p1)
    interior = np.r_[True, acc[1:] >= acc[:-1]] & np.r_[acc[:-1] >= acc[1:], True]
    candidates = np.flatnonzero(interior)
    candidates = candidates[np.argsort(-acc[candidates], kind="stable")][:5]
    best = None
    for idx in candidates:
        a = max(grid[idx] - step, 1e-12)
        b = min(grid[idx] + step, math.pi / 2 - 1e-12)
        if dll(a) > 0.0 > dll(b):
            while b - a > 1e-13:
                mid = 0.5 * (a + b)
                if dll(mid) > 0.0:
                    a = mid
                else:
                    b = mid
        theta = 0.5 * (a + b)
        value = ll(theta)
        if best is None or value > best[0] or (value == best[0] and theta < best[1]):
            best = (value, theta)
    theta = best[1]
    return min(theta, math.pi / 2 - theta) if method_is_q else theta


def check_fit(estimate: float, is_q: bool, reference: float, ll_at) -> str | None:
    """Reason the estimate is wrong, or None.

    ``ll_at(theta)`` is the package's public log-likelihood of the record.
    """
    upper = math.pi / 4 if is_q else math.pi / 2
    if not (math.isfinite(estimate) and 0.0 < estimate < math.pi / 2 and estimate <= upper):
        return f"estimate {estimate!r} outside (0, {upper:.6f}]"
    here = ll_at(estimate)
    slack = 1e-12 * abs(here)
    for side in (estimate - FIT_LL_STEP, estimate + FIT_LL_STEP):
        if 0.0 < side < math.pi / 2 and ll_at(side) > here + slack:
            return f"log-likelihood rises from {estimate!r} to {side!r}"
    if abs(estimate - reference) > FIT_REF_TOL:
        return f"estimate {estimate!r} differs from reference {reference!r}"
    return None


# ---------------------------------------------------------------------------
# oracle


def check_oracle(rows, expected: int) -> tuple[int, int]:
    """``(attempted, failed)`` cases: a case passes when its status is ``pass``."""
    failed = sum(row.get("status") != "pass" for row in rows)
    return max(expected, len(rows)), failed + max(0, expected - len(rows))
