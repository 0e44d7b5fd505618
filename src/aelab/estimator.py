"""Non-adaptive maximum-likelihood estimation over multi-round schedules.

The experiment mirrors the standard amplitude-estimation protocol without
phase estimation: amplification counts follow an exponentially increasing
schedule ``m_k = floor(b**(k-1))``, every round is measured a fixed number
of times, and a single maximum-likelihood estimate combines all rounds.
:func:`run_experiment` repeats this over many seeded repetitions, reports
the root-mean-square error for every schedule prefix, and attaches the
matching Cramer-Rao lower-bound curves.

The likelihood is maximized by a grid scan followed by the root of its
analytic derivative inside the bracketing grid interval, by one fit routine
that serves :func:`run_experiment` (every prefix of a cell) and
:func:`mle_estimate` (a record's last round).  The grid must outresolve
the fastest likelihood oscillation, whose period ``pi/n_q`` is set by the
schedule's largest query count: it holds 32 points per such period
(``16*n_max`` points over (0, pi/2), at least 4096; 18,896 for the default
37-round schedule).  The per-round log-probability tables cost grid points
x distinct query counts, and a schedule whose tables would exceed
``TABLE_BUDGET`` is refused with a ``ValueError`` naming the largest
supported query count, rather than estimated on a grid that aliases.

The grid is symmetric about ``pi/4``, which falls strictly between its two
middle points, and the tables are evaluated on its lower half only.  The
conventional method uses odd query counts, for which ``p1(pi/2 - theta) =
1 - p1(theta)``: its upper half is the lower half reversed with the hit and
miss tables exchanged.  The modified-operator method only ever uses even
query counts, whose outcome distributions are exactly invariant under
``theta -> pi/2 - theta``.  Its likelihood therefore always has two
mirror-image global maxima, and floating-point noise would pick between
them at random.  The estimator resolves the tie deterministically by always
reporting the smaller angle: it scans only the lower half of the grid and
folds the refined estimate onto (0, pi/4], so targets with ``a > 1/2`` are
mapped to their mirror image by construction.

The tables call no ``sin`` per grid point.  The grid points are ``j*step``
for ``j = 1, 2, ...``; writing ``j = a*B + b`` with ``B ~ sqrt(points/2)``
gives each query count's row ``sin(n_q*theta_j)`` by angle addition,
``sin(x_a)*cos(x_b) + cos(x_a)*sin(x_b)``, from ``sin`` and ``cos`` of two
vectors of about ``B`` phases, combined over every ``(a, b)`` in one pass.
The result differs from a direct ``sin`` only in rounding (the tables match
the closed form to well within 1e-12 in probability), and the refinement
works from the analytic likelihood, so an estimate moves only if a grid
argmax does.

The scan drops grid points that can no longer win.  A round with ``h`` hits
of ``n`` shots adds at most its saturated binomial term ``h log(h/n) +
(n-h) log((n-h)/n)`` at any angle, and all of a record's counts are known
before its scan.  So every third round the scan compares each point with
the current argmax ``c``, whose own later terms are table lookups (one
``take`` at flat table offsets computed once per record and one ``dot``
with the record's nonzero counts): a point that trails ``c`` by more than
those rounds can close, less a rounding margin of ``1e-9`` of ``c``'s
log-likelihood, is dropped, and the scan continues on the hull of the
points kept.  A kept point adds the same terms
in the same order as a full-grid scan would, and a dropped one stays below
the maximum at every later prefix, so every grid argmax, ties included, and
every estimate is the full scan's bit for bit.  On the default experiment
the windows hold 13-14% (method G) and 17-20% (method Q) of the full
scan's grid point x round work.

The refinement evaluates each (record, end) bracket over its live terms
only, rounds ``0..end``: about half of what a bracket over every round
with the later counts zeroed would evaluate.  The terms of a batch of
brackets lie bracket after bracket in flat arrays, with their per-round
constants gathered once, so each Newton iteration is one pass of the
derivative kernel over every term and one ``np.add.reduceat`` per bracket,
and a bracket's terms are dropped in the iteration its root is found.
``REFINE_BLOCK`` bounds the live terms held at once, in whole brackets, so
memory stays flat however many records a call fits; a bracket's Newton path
depends on its own terms alone, so neither the blocks nor the other records
in a batch (:func:`run_experiment` fits every target of a method in one
call) move a bit of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .fisher import classical_fisher, quantum_fisher
from .model import (
    INFINITE,
    Method,
    NoiseModel,
    RoundOutcome,
    Schedule,
    SystemSize,
    _check_theta,
    _count_column,
    derive_seed,  # noqa: F401  perfbench/layers.py traces aelab.estimator.derive_seed
    draw_hits,
    hit_probability,
    p1_from_sin2,
    prob_good,
    prob_terms,
    query_count,
    sample_round,  # noqa: F401  perfbench/layers.py traces aelab.estimator.sample_round
    seed_keys,
)

__all__ = [
    "ExperimentConfig",
    "MeasurementRecord",
    "CrbCurves",
    "RmseRow",
    "RmseTable",
    "build_eis_schedule",
    "log_likelihood",
    "mle_estimate",
    "sample_hits",
    "sample_record",
    "crb_curves",
    "run_experiment",
]

DEFAULT_TARGETS = (2 / 3, 1 / 3, 1 / 6, 1 / 12, 1 / 24, 1 / 48)
POINTS_PER_PERIOD = 32  # grid points per period pi/n_q of the largest query count
MIN_GRID_POINTS = 4096
TABLE_BUDGET = 1 << 22  # grid points x distinct query counts in the log-probability tables
ROOT_TOL = 1e-12  # derivative root
MAX_ROOT_STEPS = 100
PRUNE_EVERY = 3  # the grid scan drops ruled-out points after every third round
PRUNE_MARGIN = 1e-9  # rounding allowance of the scan's prune bound, relative to the log-likelihood it compares
REFINE_BLOCK = 1 << 18  # live (bracket, round) terms evaluated together by the batched refinement


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment specification; the defaults reproduce the reference run
    (100 shots per round, base 6/5 schedule, r = 0.99, 100 qubits, the six
    standard targets, 200 repetitions)."""

    targets: tuple[float, ...] = DEFAULT_TARGETS
    noise: NoiseModel = NoiseModel(r=0.99)
    size: SystemSize = SystemSize(100)
    base: float = 6 / 5
    rounds: int = 37
    shots: int = 100
    repetitions: int = 200
    master_seed: int = 42
    methods: tuple[Method, ...] = (Method.G, Method.Q)

    def __post_init__(self) -> None:
        for name in ("rounds", "shots", "repetitions", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1.0 < self.base < math.inf:
            raise ValueError(f"schedule base must be finite and exceed 1, got {self.base}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be a non-negative integer, got {self.master_seed}")
        if self.rounds < 1 or self.shots < 1 or self.repetitions < 1:
            raise ValueError("rounds, shots and repetitions must all be >= 1")
        if not self.targets:
            raise ValueError("at least one target is required")
        if not all(0.0 < a < 1.0 for a in self.targets):
            raise ValueError("targets must be amplitudes strictly inside (0, 1)")
        if not self.methods:
            raise ValueError("at least one method is required")
        if Method.Q in self.methods and self.rounds < 2:
            raise ValueError("method Q needs rounds >= 2: its first round (m = 0) carries no signal and is dropped")


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """The counts of one repetition for one method: round ``k`` of ``schedule``
    saw ``hits[k]`` good outcomes.  ``hits`` is kept as a read-only int64
    column, checked here once: it has the schedule's length and ``0 <= hits
    <= shots``, and method Q has no ``m = 0`` round.  The record of no rounds
    may also be written ``MeasurementRecord(method, ())``."""

    method: Method
    schedule: Schedule
    hits: np.ndarray = ()

    def __post_init__(self) -> None:
        schedule = Schedule((), ()) if self.schedule == () else self.schedule
        hits = _count_column(self.hits)
        if len(hits) != len(schedule):
            raise ValueError(f"hits must have the schedule's length {len(schedule)}, got {len(hits)}")
        bad = np.flatnonzero((hits < 0) | (hits > schedule.shots))
        if len(bad):
            raise ValueError(f"hits must lie in [0, {schedule.shots[bad[0]]}], got {hits[bad[0]]}")
        if self.method is Method.Q and np.count_nonzero(schedule.ms == 0):
            raise ValueError("zero-amplification rounds carry no signal for method Q and must be dropped")
        self.__dict__.update(schedule=schedule, hits=hits)

    @property
    def outcomes(self) -> tuple[RoundOutcome, ...]:
        """The rounds as :class:`~aelab.model.RoundOutcome` views of the columns, which ``perfbench/`` reads."""
        return tuple(map(RoundOutcome, self.schedule.ms.tolist(), self.schedule.shots.tolist(), self.hits.tolist()))


def build_eis_schedule(base: float, num_rounds: int, shots: int, method: Method) -> Schedule:
    """Exponentially increasing schedule ``m_k = floor(base**(k-1))``, k = 0..K-1.

    For method Q the k = 0 round (m = 0, zero queries) is dropped because its
    outcome distribution carries no angle information.  Duplicate m values
    for small k are intentional and kept as separate rounds.
    """
    if not 1.0 < base < math.inf:
        raise ValueError(f"schedule base must be finite and exceed 1, got {base}")
    ms = [math.floor(base ** (k - 1)) for k in range(num_rounds)]
    if method is Method.Q:
        ms = [m for m in ms if m > 0]
    return Schedule(ms, [shots] * len(ms))


def _loglik(theta, terms, hits, misses):
    """Log-likelihood of the rounds along the last axis.

    ``theta`` broadcasts against ``hits.shape[:-1]``.  Zero counts contribute
    exactly zero (the 0*log(0) = 0 convention).
    """
    n_q, r_pow, floor = terms
    p1 = hit_probability(n_q * np.asarray(theta)[..., None], r_pow, floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(hits > 0, hits * np.log(p1), 0.0)
        t0 = np.where(misses > 0, misses * np.log1p(-p1), 0.0)
    return np.sum(t1 + t0, axis=-1)


def log_likelihood(
    record: MeasurementRecord, theta: float, noise: NoiseModel, size: SystemSize = INFINITE
) -> float:
    """Joint log-likelihood of a record at angle ``theta``.

    Uses the 0*log(0) = 0 convention; outcomes that are impossible under a
    deterministic probability (only reachable at r = 1) give -inf.  For
    r < 1 the noise floor keeps both probabilities interior, so the value is
    finite on all of (0, pi/2).
    """
    if not len(record.hits):
        raise ValueError("record holds no rounds")
    _check_theta(theta)
    terms = prob_terms(record.method, record.schedule.ms, noise, size)
    return float(_loglik(theta, terms, record.hits, record.schedule.shots - record.hits))


class _GridLikelihood:
    """Log-likelihood engine for one (method, schedule, noise, size).

    The theta grid holds ``POINTS_PER_PERIOD`` points per period
    ``pi/n_q`` of the schedule's largest query count (at least
    ``MIN_GRID_POINTS``), and the per-round log-probability tables are built
    once per distinct query count, evaluated on the grid points in (0, pi/4]
    only.  A row's ``sin^2`` comes by angle addition (see the module
    docstring) into two work buffers of about half a grid each, allocated
    once per instance; the model's :func:`~aelab.model.p1_from_sin2` turns
    it into the hit probability, and ``log``/``log1p`` write the hit and
    miss tables.  For G a table's upper half is its lower half reversed
    with the hit and miss tables exchanged; for Q the upper half is the
    same likelihood again, so its tables and scan stop at pi/4.  Both
    depend only on the rounds' query counts ``ms``, so one instance serves
    every repetition and prefix of an experiment cell.  Its one entry
    point, :meth:`fit`, takes the records' hits, derives their misses
    from the schedule's shots, scans each record with a running in-place
    accumulation over a window of the grid that the saturated-binomial
    bound narrows as the rounds go (see :meth:`_scan`), and refines all
    brackets batched over their live terms (see :meth:`_refine`).
    """

    def __init__(self, method: Method, schedule: Schedule, noise: NoiseModel, size: SystemSize) -> None:
        if not len(schedule):
            raise ValueError("no rounds to fit")
        self.method = method
        self._shots = schedule.shots
        self.terms = prob_terms(method, schedule.ms, noise, size)
        n_q, r_pow, floor = self.terms
        first, inverse = np.unique(n_q, return_index=True, return_inverse=True)[1:]
        distinct = len(first)
        points = max(MIN_GRID_POINTS, POINTS_PER_PERIOD * int(n_q.max()) // 2)
        if points * distinct > TABLE_BUDGET:
            largest = TABLE_BUDGET // distinct * 2 // POINTS_PER_PERIOD
            raise ValueError(
                f"schedule reaches {int(n_q.max())} queries per round, beyond what the likelihood "
                f"grid resolves within its table budget: with {distinct} distinct query counts the "
                f"largest supported query count is {largest}"
            )
        edges = np.linspace(0.0, math.pi / 2, points + 2)  # edges[j] = j * step
        self.theta = edges[1:-1]
        self._step = edges[1] - edges[0]
        half = points // 2  # theta[half - 1] < pi/4 < theta[half], and theta[-1 - i] mirrors theta[i] about pi/4
        # theta[i] = (i + 1) * step with i + 1 = a*fine + b, so sin(n_q*theta[i]) comes by angle addition
        # from the phases x_a of a*fine*step and x_b of b*step, two vectors of about sqrt(half) entries
        fine = math.isqrt(half) + 1
        coarse = half // fine + 1  # coarse * fine > half
        xa, xb = n_q[first, None] * edges[: coarse * fine : fine], n_q[first, None] * edges[:fine]
        lhs = np.stack([np.sin(xa), np.cos(xa)], axis=1)  # (distinct, 2, coarse)
        rhs = np.stack([np.cos(xb), np.sin(xb)], axis=1)  # (distinct, 2, fine)
        work = np.empty((2, coarse, fine))  # row-major in (a, b): flat entry i + 1 belongs to theta[i]
        s2, neg = work.reshape(2, -1)[:, 1 : half + 1]
        # one block for all tables, so glibc reuses its pages for the next instance rather than trim and re-fault them
        tables = np.empty((distinct, 2, half if method is Method.Q else points))
        with np.errstate(divide="ignore"):
            for (lp1, lp0), k, u, v in zip(tables, first, lhs, rhs):
                # sin(x_a)*cos(x_b) + cos(x_a)*sin(x_b) for every (a, b): one pass, where two broadcast
                # products and their sum took 2.5x as long
                np.einsum("ka,kb->ab", u, v, out=work[0])
                p1 = p1_from_sin2(np.square(s2, out=s2), r_pow[k], floor[k], out=s2)
                np.log(p1, out=lp1[:half])
                np.log1p(np.negative(p1, out=neg), out=lp0[:half])
                if method is Method.G:  # odd query counts: p1(pi/2 - theta) = 1 - p1(theta)
                    lp1[half:], lp0[half:] = lp0[half - 1 :: -1], lp1[half - 1 :: -1]
        self._tables, self._inverse = tables, inverse
        self._logs = [tuple(tables[i]) for i in inverse]

    def _scan(self, hits: np.ndarray, misses: np.ndarray, ends: set[int]) -> list[int]:
        """Grid argmax index of one record's log-likelihood after each round
        index in ``ends``, in round order.  Ties resolve to the smallest angle.

        The scan accumulates the log-likelihood in place, round by round, over
        one window of the grid that only ever shrinks.  Every ``PRUNE_EVERY``
        rounds it drops the grid points that can no longer be a prefix argmax:
        round ``i`` adds at most its saturated term ``U_i = h log(h/n) +
        (n-h) log((n-h)/n)`` at any angle, so with ``c`` the current argmax
        after round ``k`` and ``t_i(c)`` its own later terms (table lookups,
        since the record's counts are known), a point with ``L_k < L_k(c) -
        sum_{k<i<=e} (U_i - t_i(c))`` stays below ``c`` after every round up
        to the last end ``e``.  The test keeps a margin of ``PRUNE_MARGIN``
        times ``c``'s log-likelihood at ``e``: every term is <= 0, so that
        magnitude bounds every partial sum compared and the rounding in them,
        in whatever order ``np.dot`` sums ``c``'s later terms.  An infinite
        term at ``c`` (r = 1) makes the bound infinite, and nothing is
        dropped.  The window becomes the hull of the points kept.
        A kept point adds the same terms in the same order as a full-grid
        scan, so its value is the same bit for bit, and a dropped one is
        strictly below the maximum at every later end: each argmax, ties
        included, is the full-grid one.
        """
        last = max(ends)
        counts = np.stack([hits, misses], axis=-1)[: last + 1]  # (rounds, 2): hits and misses
        seen = counts > 0
        shots = counts.sum(axis=-1, keepdims=True)
        saturated = np.sum(counts * np.log(np.where(seen, counts, shots) / shots), axis=-1)  # 0*log(0) = 0
        ceiling = np.cumsum(saturated[::-1])[::-1].tolist()  # ceiling[k]: the most rounds k..last can add
        # the nonzero counts in round order, with the flat table offset of the row each one multiplies:
        # a look-ahead past round k is the suffix from after[k] on
        rounds, sides = seen.nonzero()
        weights = counts[rounds, sides]
        offsets = (self._inverse[rounds] * 2 + sides) * self._tables.shape[-1]
        after = np.searchsorted(rounds, np.arange(last + 1), side="right").tolist()
        flat = self._tables.reshape(-1)
        acc = np.zeros_like(self._logs[0][0])
        tmp = np.empty_like(acc)
        lo, hi = 0, len(acc)
        window, out = acc, tmp
        best = []
        for k, ((lp1, lp0), (h, m)) in enumerate(zip(self._logs, counts.tolist())):
            if h:
                window += np.multiply(lp1[lo:hi], h, out=out)
            if m:
                window += np.multiply(lp0[lo:hi], m, out=out)
            prune = k < last and k % PRUNE_EVERY == PRUNE_EVERY - 1
            if k not in ends and not prune:
                continue
            c = lo + int(window.argmax())
            if k in ends:
                best.append(c)
            if prune:
                ahead = np.dot(weights[after[k] :], flat.take(offsets[after[k] :] + c))
                # c reaches acc[c] + ahead by the last end, and no point gains more than ceiling[k + 1]
                floor = (1.0 + PRUNE_MARGIN) * (acc[c] + ahead) - ceiling[k + 1]
                kept = (window >= floor).nonzero()[0]
                lo, hi = lo + int(kept[0]), lo + int(kept[-1]) + 1
                window, out = acc[lo:hi], tmp[: hi - lo]
        return best

    def _refine(self, centers: np.ndarray, hits: np.ndarray, misses: np.ndarray, rec: np.ndarray, end: np.ndarray):
        """Polish grid maxima inside their one-step brackets, batched over brackets.

        Bracket ``b`` is the fit of record ``rec[b]`` (a row of
        ``hits``/``misses``) after round ``end[b]``, and only its live terms,
        rounds ``0..end[b]``, are evaluated (see :class:`_LiveTerms`).  The
        log-likelihood is flat to floating-point noise within ~1e-8 of the
        maximum, so the stationary point is located as the sign change of
        the analytic derivative, which stays well conditioned down to
        machine precision; an infinite derivative counts by its sign.  A
        bracket with no + to - sign change (maximum pinned at a domain edge)
        returns the end its first derivative rises toward: ``hi`` where the
        derivative there is >= 0, ``lo`` otherwise.  The roots come from
        safeguarded Newton on all brackets at once: a step that would leave
        its bracket, or is longer than both ``ROOT_TOL`` and half the step
        before last, is replaced by bisection.  A bracket is done once its
        step falls to ``ROOT_TOL``, or at its midpoint after
        ``MAX_ROOT_STEPS``; the terms of the brackets done are dropped in the
        iteration they finish, and only then.
        """
        live = _LiveTerms(self.terms, hits, misses, rec, end)
        lo = np.maximum(centers - self._step, 1e-12)
        hi = np.minimum(centers + self._step, math.pi / 2 - 1e-12)
        d_lo, d_hi = live.slopes(lo, curvature=False), live.slopes(hi, curvature=False)
        out = np.where(d_hi >= 0.0, hi, lo)
        interior = (d_lo > 0.0) & (d_hi < 0.0)
        idx = np.flatnonzero(interior)
        if len(idx) < len(centers):
            live.keep(interior)
        x, lo, hi = centers[idx], lo[idx], hi[idx]
        step = prev = hi - lo
        for _ in range(MAX_ROOT_STEPS):
            f, fp = live.slopes(x)
            lo = np.where(f > 0.0, x, lo)
            hi = np.where(f < 0.0, x, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - f / fp
                fast = np.abs(newton - x) <= np.maximum(ROOT_TOL, 0.5 * np.abs(prev))
            nxt = np.where((newton >= lo) & (newton <= hi) & fast, newton, 0.5 * (lo + hi))
            prev, step = step, nxt - x
            root = f == 0.0
            done = root | (np.abs(step) <= ROOT_TOL)
            if done.any():
                out[idx[done]] = np.where(root, x, nxt)[done]
                keep = ~done
                if not keep.any():
                    return out
                live.keep(keep)
                idx, nxt, lo, hi, step, prev = idx[keep], nxt[keep], lo[keep], hi[keep], step[keep], prev[keep]
            x = nxt
        out[idx] = 0.5 * (lo + hi)
        return out

    def fit(self, hits: np.ndarray, ends) -> np.ndarray:
        """Maximum-likelihood angle of every record after each round index in ``ends``.

        ``hits`` are ``(records, rounds)`` counts over the whole schedule,
        whose shots give the misses, and ``ends`` strictly increasing round
        indices in ``[0, rounds)``, else ``ValueError``; the result has shape
        ``(records, len(ends))``.  Records are scanned one at a time, and one
        whose log-likelihood is -inf at every grid angle is refused with a
        ``ValueError`` before any refinement.  The (record, end) brackets are
        refined together over their live terms only (rounds ``0..end``), in
        blocks of whole brackets holding at most ``REFINE_BLOCK`` live terms
        (a bracket longer than that is a block of its own); each bracket's
        refinement depends on its own terms alone, so neither the blocks nor
        the other records change a bit of it.  Q's likelihood is exactly
        mirror-symmetric about pi/4 and its scan covers (0, pi/4] only; the
        one bracket that straddles pi/4 can refine past it, so its estimates
        fold onto (0, pi/4].
        """
        # float counts: int64 ones would be cast in every table product
        hits = np.asarray(hits, dtype=float)
        records, rounds = hits.shape
        if rounds != len(self._logs):
            raise ValueError(f"counts cover {rounds} rounds, the schedule {len(self._logs)}")
        misses = self._shots - hits
        ends = np.asarray(ends)
        indices = ends.ndim == 1 and len(ends) and ends.dtype.kind in "iu"
        if not indices or ends[0] < 0 or ends[-1] >= rounds or np.count_nonzero(ends[1:] <= ends[:-1]):
            raise ValueError(f"ends must be non-empty, strictly increasing round indices in [0, {rounds}), got {ends}")
        wanted = set(ends.tolist())
        best = np.array([self._scan(h, m, wanted) for h, m in zip(hits, misses)], dtype=int).reshape(records, len(ends))
        # the last end's prefix holds every shorter one: a log(0) term at its argmax makes it -inf on the whole grid
        seen = slice(ends[-1] + 1)
        log0 = np.isneginf(self._tables[self._inverse[seen], :, best[:, -1:]])  # (records, rounds, 2)
        if np.count_nonzero(log0 & (np.stack([hits[:, seen], misses[:, seen]], axis=-1) > 0)):
            raise ValueError("no grid angle can produce the record: it has hits where p1 = 0 or misses where p1 = 1")
        centers = self.theta[best].ravel()
        rec, end = np.divmod(np.arange(len(centers)), len(ends))
        end = ends[end]
        filled = np.cumsum(end + 1)  # live terms of brackets 0..b
        est = np.empty(len(centers))
        s = 0
        while s < len(centers):
            # brackets s..t-1: as many whole ones as REFINE_BLOCK live terms hold, and at least one
            t = max(s + 1, int(np.searchsorted(filled, filled[s] - (end[s] + 1) + REFINE_BLOCK, side="right")))
            est[s:t] = self._refine(centers[s:t], hits, misses, rec[s:t], end[s:t])
            s = t
        est = est.reshape(records, len(ends))
        return np.minimum(est, math.pi / 2 - est) if self.method is Method.Q else est


class _LiveTerms:
    """The live terms of a batch of refinement brackets, flat.

    Bracket ``b`` holds one term per round ``0..end[b]`` of counts row
    ``rec[b]``.  The terms lie bracket after bracket in 1-D arrays, so a
    derivative is one pass of the kernel over every term and one
    ``np.add.reduceat`` per bracket.  The per-term constants (``n_q``,
    ``R*n_q``, ``2R*n_q^2``, ``R``, the floor, the counts and their ``> 0``
    masks) are gathered once; ``R*n_q`` and ``2R*n_q^2`` are the products
    the derivatives form first, so hoisting them moves no bit.
    """

    def __init__(self, terms, hits: np.ndarray, misses: np.ndarray, rec: np.ndarray, end: np.ndarray) -> None:
        n_q, r_pow, floor = terms
        self.lengths = end + 1
        rows = np.repeat(rec, self.lengths)
        self.starts = np.cumsum(self.lengths) - self.lengths
        rounds = np.arange(len(rows)) - np.repeat(self.starts, self.lengths)
        self.const = np.empty((7, len(rows)))
        np.take(np.stack([n_q, r_pow * n_q, 2.0 * r_pow * n_q**2, r_pow, floor]), rounds, axis=1, out=self.const[:5])
        rounds += rows * hits.shape[1]  # flat index of each term's counts
        np.take(hits, rounds, out=self.const[5])
        np.take(misses, rounds, out=self.const[6])
        self.seen = self.const[5:] > 0.0

    def keep(self, brackets: np.ndarray) -> None:
        """Drop the terms of every bracket where ``brackets`` is False, in place."""
        kept = np.repeat(brackets, self.lengths).nonzero()[0]
        for row in self.const:
            row[: len(kept)] = row[kept]
        self.const, self.seen = self.const[:, : len(kept)], self.seen[:, kept]
        self.lengths = self.lengths[brackets]
        self.starts = np.cumsum(self.lengths) - self.lengths

    def slopes(self, theta: np.ndarray, curvature: bool = True):
        """First theta-derivative of each bracket's log-likelihood at its
        ``theta``, and with ``curvature`` the second as well.  Zero counts
        contribute exactly zero.  Every product is the one the dense form
        ``(w1 - w0)*R*n_q*sin(2x)`` and ``(w1 - w0)*2R*n_q^2*cos(2x) -
        (w1/p1 + w0/(1-p1))*(R*n_q*sin(2x))^2`` takes, operands swapped at
        most, so each term is the same bit for bit; the work buffers are
        reused so that a call holds six term arrays at most.
        """
        n_q, rn, r2n2, r_pow, floor, hits, misses = self.const
        has1, has0 = self.seen
        x = np.repeat(theta, self.lengths)
        x *= n_q
        p1 = np.sin(x)
        p1_from_sin2(np.square(p1, out=p1), r_pow, floor, out=p1)
        p0 = 1.0 - p1
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = np.divide(hits, p1, out=np.zeros_like(p1), where=has1)
            w0 = np.divide(misses, p0, out=np.zeros_like(p0), where=has0)
            dw = w1 - w0
            if curvature:  # w1 becomes w1/p1 + w0/(1-p1)
                np.divide(w1, p1, out=w1, where=has1)
                w1 += np.divide(w0, p0, out=w0, where=has0)
        x *= 2.0
        dp1 = np.sin(x, out=p0)
        dp1 *= rn
        d1 = np.add.reduceat(np.multiply(dw, dp1, out=p1), self.starts)
        if not curvature:
            return d1
        d2 = np.cos(x, out=x)
        d2 *= r2n2
        d2 *= dw
        dp1 *= dp1
        dp1 *= w1
        d2 -= dp1
        return d1, np.add.reduceat(d2, self.starts)


def mle_estimate(record: MeasurementRecord, noise: NoiseModel, size: SystemSize = INFINITE) -> float:
    """Maximum-likelihood angle for a full record: the engine's one fit
    routine, asked for the record's last round only.

    Grid scan over (0, pi/2) (over (0, pi/4] for Q) with first-occurrence
    (smallest theta) tie-breaking, then the root of the analytic derivative
    inside the bracketing grid interval, to 1e-12; a maximum pinned at a
    domain edge returns that edge, 1e-12 or pi/2 - 1e-12.  See the module docstring
    for the grid rule and the method-Q mirror fold.
    """
    grid = _GridLikelihood(record.method, record.schedule, noise, size)
    return float(grid.fit(record.hits[None], [len(record.hits) - 1])[0, 0])


def sample_hits(
    method: Method,
    theta: float,
    schedule: Schedule,
    noise: NoiseModel,
    size: SystemSize,
    master_seed: int,
    *path,
) -> np.ndarray:
    """Hits of every round of the records on a grid of seed paths.

    Path components are ints or integer arrays that broadcast together; the
    result has their shape plus a trailing round axis, and round ``j`` of
    path ``P`` draws with the seed ``derive_seed(master_seed, *P, j)``.  So
    ``sample_hits(..., seed, code, ti, np.arange(reps))`` gives the
    ``(reps, rounds)`` hits of one experiment cell.
    """
    p1 = prob_good(method, theta, schedule.ms, noise, size)
    grid = [np.asarray(c)[..., None] if np.ndim(c) else c for c in path]
    return draw_hits(schedule.shots, p1, seed_keys(master_seed, *grid, np.arange(len(schedule))))


def sample_record(
    method: Method,
    theta: float,
    schedule: Schedule,
    noise: NoiseModel,
    size: SystemSize,
    master_seed: int,
    *path: int,
) -> MeasurementRecord:
    """Draw outcomes for every round; round j uses seed (master, *path, j).

    The hits are one path of :func:`sample_hits`.
    """
    return MeasurementRecord(method, schedule, sample_hits(method, theta, schedule, noise, size, master_seed, *path))


@dataclass(frozen=True)
class CrbCurves:
    """Per-prefix lower bounds on the root-mean-square estimation error."""

    n_q_tot: np.ndarray
    classical: np.ndarray
    quantum: np.ndarray
    noiseless: np.ndarray
    no_amplification: np.ndarray


def crb_curves(config: ExperimentConfig, a: float, method: Method) -> CrbCurves:
    """Cramer-Rao bound curves for each schedule prefix at true amplitude ``a``.

    Fisher information adds across independent rounds; each bound is
    ``1/sqrt(sum_j shots_j * F(n_q(m_j)))`` with F respectively the
    method's classical information at the true angle, the quantum
    information, the ideal ``4 n_q^2``, and (for the no-amplification
    reference) the single-query classical information spent over the same
    total query budget.
    """
    theta = math.asin(math.sqrt(a))
    schedule = build_eis_schedule(config.base, config.rounds, config.shots, method)
    n_qs, shots = query_count(method, schedule.ms), schedule.shots
    f_classical = classical_fisher(method, theta, n_qs, config.noise, config.size)
    f_quantum = quantum_fisher(n_qs, config.noise, config.size)
    f_ideal = 4.0 * n_qs**2
    n_q_tot = np.cumsum(shots * n_qs)
    f_single = classical_fisher(Method.G, theta, 1.0, config.noise, config.size)
    return CrbCurves(
        n_q_tot=n_q_tot,
        classical=1.0 / np.sqrt(np.cumsum(shots * f_classical)),
        quantum=1.0 / np.sqrt(np.cumsum(shots * f_quantum)),
        noiseless=1.0 / np.sqrt(np.cumsum(shots * f_ideal)),
        no_amplification=1.0 / np.sqrt(n_q_tot * f_single),
    )


@dataclass(frozen=True)
class RmseRow:
    method: Method
    a: float
    prefix: int  # number of rounds included
    n_q_tot: int
    rmse: float
    crb_classical: float
    crb_quantum: float
    crb_noiseless: float
    crb_no_amplification: float


@dataclass(frozen=True)
class RmseTable:
    rows: tuple[RmseRow, ...]

    def select(self, method: Method | None = None, a: float | None = None) -> list[RmseRow]:
        out = [r for r in self.rows if method is None or r.method is method]
        return [r for r in out if a is None or math.isclose(r.a, a)]

    def as_dicts(self) -> list[dict]:
        names = [f.name for f in fields(RmseRow)]
        return [{**{k: getattr(row, k) for k in names}, "method": row.method.value} for row in self.rows]


# method tags get fixed seed-path codes so that restricting the method list
# never changes the draws of the methods that remain
_METHOD_CODE = {Method.G: 0, Method.Q: 1}


def run_experiment(config: ExperimentConfig) -> RmseTable:
    """Monte-Carlo RMSE of the maximum-likelihood estimate per schedule prefix.

    For every (method, target) cell, one :func:`sample_hits` call draws the
    ``(repetitions, rounds)`` hits with seeds derived from ``(master_seed,
    method_code, target_index, repetition, round)``; each repetition is
    sampled once in full and every prefix reuses its first rounds, mirroring
    an experimenter accumulating data.  The cells of one method are fitted
    in one engine call, which gives every cell the estimates it would get
    alone, since each (record, end) fit depends on that record only.  The
    result is bit-reproducible for a fixed config.
    """
    rows: list[RmseRow] = []
    for method in config.methods:
        schedule = build_eis_schedule(config.base, config.rounds, config.shots, method)
        grid = _GridLikelihood(method, schedule, config.noise, config.size)
        thetas = [math.asin(math.sqrt(a)) for a in config.targets]
        draws = (schedule, config.noise, config.size, config.master_seed, _METHOD_CODE[method])
        reps = np.arange(config.repetitions)
        hits = np.concatenate([sample_hits(method, theta, *draws, ti, reps) for ti, theta in enumerate(thetas)])
        estimates = grid.fit(hits, range(len(schedule)))
        for a, theta, cell in zip(config.targets, thetas, np.split(estimates, len(thetas))):
            rmse = np.sqrt(np.mean((cell - theta) ** 2, axis=0))
            bounds = crb_curves(config, a, method)
            for k in range(len(schedule)):
                rows.append(
                    RmseRow(
                        method=method,
                        a=a,
                        prefix=k + 1,
                        n_q_tot=int(bounds.n_q_tot[k]),
                        rmse=float(rmse[k]),
                        crb_classical=float(bounds.classical[k]),
                        crb_quantum=float(bounds.quantum[k]),
                        crb_noiseless=float(bounds.noiseless[k]),
                        crb_no_amplification=float(bounds.no_amplification[k]),
                    )
                )
    return RmseTable(rows=tuple(rows))
