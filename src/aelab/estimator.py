"""Non-adaptive maximum-likelihood estimation over multi-round schedules.

The experiment mirrors the standard amplitude-estimation protocol without
phase estimation: amplification counts follow an exponentially increasing
schedule ``m_k = floor(b**(k-1))``, every round is measured a fixed number
of times, and a single maximum-likelihood estimate combines all rounds.
:func:`run_experiment` repeats this over many seeded repetitions, reports
the root-mean-square error for every schedule prefix, and attaches the
matching Cramer-Rao lower-bound curves.

The likelihood is maximized by a grid scan followed by the root of its
analytic derivative inside the bracketing grid interval.  The grid must
outresolve the fastest likelihood oscillation, whose period ``pi/n_q`` is
set by the schedule's largest query count: it holds 32 points per such
period (``16*n_max`` points over (0, pi/2), at least 4096; 18,896 for the
default 37-round schedule).  The per-round log-probability tables cost
grid points x distinct query counts, and a schedule whose tables would
exceed ``TABLE_BUDGET`` is refused with a ``ValueError`` naming the largest
supported query count, rather than estimated on a grid that aliases.

One subtlety is baked into :func:`mle_estimate`: the modified-operator
method only ever uses even query counts, whose outcome distributions are
exactly invariant under ``theta -> pi/2 - theta``.  Its likelihood therefore
always has two mirror-image global maxima, and floating-point noise would
pick between them at random.  The estimator resolves the tie
deterministically by always reporting the smaller angle, so targets with
``a > 1/2`` are mapped to their mirror image by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fisher import classical_fisher, golden_max, quantum_fisher
from .model import (
    INFINITE,
    Method,
    NoiseModel,
    RoundOutcome,
    Schedule,
    SystemSize,
    _check_theta,
    derive_seed,
    draw_round,
    hit_probability,
    prob_good,
    prob_terms,
    query_count,
    sample_round,  # noqa: F401  perfbench/layers.py traces aelab.estimator.sample_round
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
REFINE_TOL = 1e-10  # golden-section fallback
REFINE_BLOCK = 1 << 20  # bracket x round terms evaluated together by the batched refinement


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
        if self.base <= 1.0:
            raise ValueError(f"schedule base must exceed 1, got {self.base}")
        if self.rounds < 1 or self.shots < 1 or self.repetitions < 1:
            raise ValueError("rounds, shots and repetitions must all be >= 1")
        if not self.targets or not all(0.0 < a < 1.0 for a in self.targets):
            raise ValueError("targets must be amplitudes strictly inside (0, 1)")
        if not self.methods:
            raise ValueError("at least one method is required")


@dataclass(frozen=True)
class MeasurementRecord:
    """All round outcomes of one repetition for one method."""

    method: Method
    outcomes: tuple[RoundOutcome, ...]

    def __post_init__(self) -> None:
        if self.method is Method.Q and any(oc.m == 0 for oc in self.outcomes):
            raise ValueError("zero-amplification rounds carry no signal for method Q and must be dropped")

    def __len__(self) -> int:
        return len(self.outcomes)


def build_eis_schedule(base: float, num_rounds: int, shots: int, method: Method) -> Schedule:
    """Exponentially increasing schedule ``m_k = floor(base**(k-1))``, k = 0..K-1.

    For method Q the k = 0 round (m = 0, zero queries) is dropped because its
    outcome distribution carries no angle information.  Duplicate m values
    for small k are intentional and kept as separate rounds.
    """
    if base <= 1.0:
        raise ValueError(f"schedule base must exceed 1, got {base}")
    ms = [math.floor(base ** (k - 1)) for k in range(num_rounds)]
    if method is Method.Q:
        ms = [m for m in ms if m > 0]
    return Schedule(rounds=tuple((m, shots) for m in ms))


def _counts(outcomes) -> tuple[np.ndarray, np.ndarray]:
    """Hit and miss counts per round."""
    hits = np.array([oc.hits for oc in outcomes], dtype=float)
    misses = np.array([oc.shots - oc.hits for oc in outcomes], dtype=float)
    return hits, misses


def _loglik(theta, terms, hits, misses, derivatives: bool = False):
    """Log-likelihood of the rounds along the last axis, or its first two theta-derivatives.

    ``theta`` broadcasts against ``hits.shape[:-1]``.  Zero counts contribute
    exactly zero (the 0*log(0) = 0 convention), so rounds beyond a prefix
    are masked out by zeroing their counts.
    """
    n_q, r_pow, floor = terms
    x = n_q * np.asarray(theta)[..., None]
    p1 = hit_probability(x, r_pow, floor)
    has1, has0 = hits > 0, misses > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if not derivatives:
            t1 = np.where(has1, hits * np.log(p1), 0.0)
            t0 = np.where(has0, misses * np.log1p(-p1), 0.0)
            return np.sum(t1 + t0, axis=-1)
        w1 = np.where(has1, hits / p1, 0.0)
        w0 = np.where(has0, misses / (1.0 - p1), 0.0)
        curvature = np.where(has1, w1 / p1, 0.0) + np.where(has0, w0 / (1.0 - p1), 0.0)
    dp1 = r_pow * n_q * np.sin(2.0 * x)
    d2p1 = 2.0 * r_pow * n_q**2 * np.cos(2.0 * x)
    dll = np.sum((w1 - w0) * dp1, axis=-1)
    d2ll = np.sum((w1 - w0) * d2p1 - curvature * dp1**2, axis=-1)
    return dll, d2ll


def log_likelihood(
    record: MeasurementRecord, theta: float, noise: NoiseModel, size: SystemSize = INFINITE
) -> float:
    """Joint log-likelihood of a record at angle ``theta``.

    Uses the 0*log(0) = 0 convention; outcomes that are impossible under a
    deterministic probability (only reachable at r = 1) give -inf.  For
    r < 1 the noise floor keeps both probabilities interior, so the value is
    finite on all of (0, pi/2).
    """
    if not record.outcomes:
        raise ValueError("record holds no rounds")
    _check_theta(theta)
    terms = prob_terms(record.method, [oc.m for oc in record.outcomes], noise, size)
    return float(_loglik(theta, terms, *_counts(record.outcomes)))


class _GridLikelihood:
    """Log-likelihood engine for one (method, schedule, noise, size).

    The theta grid holds ``POINTS_PER_PERIOD`` points per period
    ``pi/n_q`` of the schedule's largest query count (at least
    ``MIN_GRID_POINTS``), and the per-round log-probability tables are built
    once per distinct query count.  Both depend only on the schedule, so one
    instance serves every repetition and prefix of an experiment cell; the
    per-record work is a running in-place accumulation plus argmax, and the
    refinement of all brackets runs batched.
    """

    def __init__(self, method: Method, schedule: Schedule, noise: NoiseModel, size: SystemSize) -> None:
        if not schedule.rounds:
            raise ValueError("schedule holds no rounds")
        self.method = method
        self.terms = prob_terms(method, [m for m, _ in schedule.rounds], noise, size)
        n_q = self.terms[0]
        distinct = len(np.unique(n_q))
        points = max(MIN_GRID_POINTS, POINTS_PER_PERIOD * int(n_q.max()) // 2)
        if points * distinct > TABLE_BUDGET:
            largest = TABLE_BUDGET // distinct * 2 // POINTS_PER_PERIOD
            raise ValueError(
                f"schedule reaches {int(n_q.max())} queries per round, beyond what the likelihood "
                f"grid resolves within its table budget: with {distinct} distinct query counts the "
                f"largest supported query count is {largest}"
            )
        edges = np.linspace(0.0, math.pi / 2, points + 2)
        self.theta = edges[1:-1]
        self._step = edges[1] - edges[0]
        tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for n, r_pow, floor in zip(*self.terms):
            if n not in tables:
                p1 = hit_probability(n * self.theta, r_pow, floor)
                with np.errstate(divide="ignore"):
                    tables[n] = (np.log(p1), np.log1p(-p1))
        self._logs = [tables[n] for n in n_q]

    def _scan(self, hits: np.ndarray, misses: np.ndarray, prefixes: bool = True) -> list[int]:
        """Grid argmax index of one record's log-likelihood after each round,
        or after the last round only.  Ties resolve to the smallest angle.
        """
        acc = np.zeros_like(self.theta)
        tmp = np.empty_like(acc)
        best = []
        last = len(hits) - 1
        for k, ((lp1, lp0), h, m) in enumerate(zip(self._logs, hits, misses)):
            if h:
                acc += np.multiply(lp1, h, out=tmp)
            if m:
                acc += np.multiply(lp0, m, out=tmp)
            if prefixes or k == last:
                best.append(int(np.argmax(acc)))
        return best

    def _refine(self, centers: np.ndarray, hits: np.ndarray, misses: np.ndarray) -> np.ndarray:
        """Polish grid maxima inside their one-step brackets, batched over brackets.

        ``hits``/``misses`` hold one row of counts per bracket.  The
        log-likelihood is flat to floating-point noise within ~1e-8 of the
        maximum, so the stationary point is located as the sign change of
        the analytic derivative, which stays well conditioned down to
        machine precision.  Golden section on the log-likelihood is the
        fallback when a bracket holds no sign change (maximum pinned at a
        domain edge).
        """
        lo = np.maximum(centers - self._step, 1e-12)
        hi = np.minimum(centers + self._step, math.pi / 2 - 1e-12)
        d_lo, d_hi = _loglik(np.stack([lo, hi]), self.terms, hits, misses, derivatives=True)[0]
        sign_change = np.isfinite(d_lo) & np.isfinite(d_hi) & (d_lo > 0.0) & (d_hi < 0.0)
        est = np.empty_like(centers)
        idx = np.flatnonzero(sign_change)
        est[idx] = self._newton(centers[idx], lo[idx], hi[idx], hits[idx], misses[idx])
        for i in np.flatnonzero(~sign_change):
            est[i] = golden_max(
                lambda t: float(_loglik(t, self.terms, hits[i], misses[i])), lo[i], hi[i], REFINE_TOL
            )[0]
        return est

    def _newton(self, x, lo, hi, hits, misses) -> np.ndarray:
        """Roots of the derivative inside brackets where it falls from + to -.

        Safeguarded Newton on all brackets at once: a step that would leave
        its bracket, or is longer than both ``ROOT_TOL`` and half the step
        before last, is replaced by bisection.  A bracket is done once its
        step falls to ``ROOT_TOL``.
        """
        out = np.empty_like(x)
        idx = np.arange(len(x))
        step = prev = hi - lo
        for _ in range(MAX_ROOT_STEPS):
            f, fp = _loglik(x, self.terms, hits, misses, derivatives=True)
            lo = np.where(f > 0.0, x, lo)
            hi = np.where(f < 0.0, x, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - f / fp
                fast = np.abs(newton - x) <= np.maximum(ROOT_TOL, 0.5 * np.abs(prev))
            nxt = np.where((newton >= lo) & (newton <= hi) & fast, newton, 0.5 * (lo + hi))
            prev, step = step, nxt - x
            root = f == 0.0
            done = root | (np.abs(step) <= ROOT_TOL)
            out[idx[done]] = np.where(root, x, nxt)[done]
            keep = ~done
            if not keep.any():
                return out
            idx, x, lo, hi, step, prev = idx[keep], nxt[keep], lo[keep], hi[keep], step[keep], prev[keep]
            hits, misses = hits[keep], misses[keep]
        out[idx] = 0.5 * (lo + hi)
        return out

    def _fold(self, est: np.ndarray) -> np.ndarray:
        """Method Q's likelihood is exactly mirror-symmetric about pi/4; report (0, pi/4]."""
        return np.minimum(est, math.pi / 2 - est) if self.method is Method.Q else est

    def fit_prefixes(self, hits: np.ndarray, misses: np.ndarray) -> np.ndarray:
        """Maximum-likelihood angle of every prefix of every record.

        ``hits``/``misses`` are ``(records, rounds)`` counts over the whole
        schedule; the result has the same shape.  Records are scanned one at
        a time; the (record, prefix) brackets are refined together, in
        blocks of at most ``REFINE_BLOCK`` bracket x round terms.
        """
        records, rounds = hits.shape
        if rounds != len(self._logs):
            raise ValueError(f"counts cover {rounds} rounds, the schedule {len(self._logs)}")
        centers = self.theta[[self._scan(h, m) for h, m in zip(hits, misses)]].ravel()
        est = np.empty_like(centers)
        block = max(1, REFINE_BLOCK // rounds)
        for s in range(0, len(centers), block):
            b = np.arange(s, min(s + block, len(centers)))
            rec = b // rounds
            upto = np.arange(rounds) <= (b % rounds)[:, None]  # prefix k sees rounds j <= k
            est[b] = self._refine(centers[b], hits[rec] * upto, misses[rec] * upto)
        return self._fold(est.reshape(records, rounds))

    def prefix_estimates(self, outcomes) -> np.ndarray:
        """Maximum-likelihood angle for every prefix of one outcome list."""
        hits, misses = _counts(outcomes)
        return self.fit_prefixes(hits[None], misses[None])[0]

    def estimate(self, hits: np.ndarray, misses: np.ndarray) -> float:
        """Maximum-likelihood angle of one record, from its full set of rounds only."""
        center = self.theta[self._scan(hits, misses, prefixes=False)]
        return float(self._fold(self._refine(center, hits[None], misses[None]))[0])


def mle_estimate(record: MeasurementRecord, noise: NoiseModel, size: SystemSize = INFINITE) -> float:
    """Maximum-likelihood angle for a full record.

    Grid scan over (0, pi/2) with first-occurrence (smallest theta)
    tie-breaking, then the root of the analytic derivative inside the
    bracketing grid interval, to 1e-12 (golden section on the likelihood
    when the maximum is pinned at a domain edge).  See the module docstring
    for the grid rule and the method-Q mirror fold.
    """
    if not record.outcomes:
        raise ValueError("record holds no rounds")
    schedule = Schedule(rounds=tuple((oc.m, oc.shots) for oc in record.outcomes))
    grid = _GridLikelihood(record.method, schedule, noise, size)
    return grid.estimate(*_counts(record.outcomes))


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

    Round j equals ``sample_round`` with that seed; one :func:`prob_good`
    call gives the hit probabilities of all rounds.
    """
    ms = [m for m, _ in schedule.rounds]
    p1 = prob_good(method, theta, ms, noise, size).tolist()
    outcomes = tuple(
        draw_round(m, shots, p, derive_seed(master_seed, *path, j))
        for j, ((m, shots), p) in enumerate(zip(schedule.rounds, p1))
    )
    return MeasurementRecord(method=method, outcomes=outcomes)


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
    n_qs = query_count(method, [m for m, _ in schedule.rounds])
    shots = np.array([s for _, s in schedule.rounds], dtype=float)
    f_classical = classical_fisher(method, theta, n_qs, config.noise, config.size)
    f_quantum = quantum_fisher(n_qs, config.noise, config.size)
    f_ideal = 4.0 * n_qs**2
    n_q_tot = np.cumsum(shots * n_qs)
    f_single = classical_fisher(Method.G, theta, 1.0, config.noise, config.size)
    return CrbCurves(
        n_q_tot=n_q_tot.astype(int),
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
        return [
            {
                "method": row.method.value,
                "a": row.a,
                "prefix": row.prefix,
                "n_q_tot": row.n_q_tot,
                "rmse": row.rmse,
                "crb_classical": row.crb_classical,
                "crb_quantum": row.crb_quantum,
                "crb_noiseless": row.crb_noiseless,
                "crb_no_amplification": row.crb_no_amplification,
            }
            for row in self.rows
        ]


# method tags get fixed seed-path codes so that restricting the method list
# never changes the draws of the methods that remain
_METHOD_CODE = {Method.G: 0, Method.Q: 1}


def run_experiment(config: ExperimentConfig) -> RmseTable:
    """Monte-Carlo RMSE of the maximum-likelihood estimate per schedule prefix.

    For every (method, target) cell, ``repetitions`` records are drawn with
    seeds derived from ``(master_seed, method_code, target_index,
    repetition, round)``; each repetition is sampled once in full and every
    prefix reuses its first rounds, mirroring an experimenter accumulating
    data.  The result is bit-reproducible for a fixed config.
    """
    rows: list[RmseRow] = []
    for method in config.methods:
        schedule = build_eis_schedule(config.base, config.rounds, config.shots, method)
        grid = _GridLikelihood(method, schedule, config.noise, config.size)
        shots = np.array([s for _, s in schedule.rounds], dtype=float)
        for ti, a in enumerate(config.targets):
            theta = math.asin(math.sqrt(a))
            hits = np.empty((config.repetitions, len(schedule)))
            for rep in range(config.repetitions):
                record = sample_record(
                    method,
                    theta,
                    schedule,
                    config.noise,
                    config.size,
                    config.master_seed,
                    _METHOD_CODE[method],
                    ti,
                    rep,
                )
                hits[rep] = [oc.hits for oc in record.outcomes]
            estimates = grid.fit_prefixes(hits, shots - hits)
            rmse = np.sqrt(np.mean((estimates - theta) ** 2, axis=0))
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
