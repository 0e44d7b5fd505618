"""Closed-form outcome models for Grover-type amplitude estimation under
global depolarizing noise.

Two amplification variants are supported:

* ``Method.G`` -- the conventional amplification operator. State
  preparation plus ``m`` amplification steps consumes ``2*m + 1`` queries
  to the preparation unitary and its inverse; the measurement checks a
  single flag qubit.
* ``Method.Q`` -- the modified operator that rotates the all-zeros state.
  ``m`` applications consume ``2*m`` queries; the measurement distinguishes
  the all-zeros outcome from everything else.

A depolarizing channel with survival probability ``r`` is applied once per
query, so after ``n_q`` queries a coherent weight ``r**n_q`` of the ideal
state survives and the rest is maximally mixed over the ``d``-dimensional
register.  The hit probabilities are

* G: ``r**n_q * sin^2(n_q*theta) + (1 - r**n_q) / 2`` (dimension free),
* Q: ``r**n_q * sin^2(n_q*theta) + (1 - r**n_q) * (d - 1) / d``.

Only ``1/d`` is ever stored (see :class:`SystemSize`), which keeps very
large registers exactly representable in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Method",
    "EstimationProblem",
    "NoiseModel",
    "SystemSize",
    "INFINITE",
    "Schedule",
    "RoundOutcome",
    "query_count",
    "prob_good",
    "prob_pair",
    "prob_terms",
    "sample_round",
    "readout_factor",
    "breakeven_qubits",
    "derive_seed",
]


class Method(Enum):
    """Amplification variant tag."""

    G = "g"
    Q = "q"


@dataclass(frozen=True)
class EstimationProblem:
    """The unknown rotation angle ``theta`` and target amplitude ``a = sin^2(theta)``.

    ``theta`` must lie strictly inside ``(0, pi/2)``; the endpoints make the
    amplitude trivially 0 or 1 and degenerate every information measure, so
    they are rejected rather than special-cased.
    """

    theta: float

    def __post_init__(self) -> None:
        _check_theta(self.theta)

    @property
    def a(self) -> float:
        """Target amplitude ``sin^2(theta)``."""
        return math.sin(self.theta) ** 2

    @classmethod
    def from_amplitude(cls, a: float) -> "EstimationProblem":
        if not 0.0 < a < 1.0:
            raise ValueError(f"amplitude must lie in (0, 1), got {a}")
        return cls(math.asin(math.sqrt(a)))


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing survival probability per query, plus per-qubit readout error.

    ``r = 1`` is the noiseless limit.  ``readout_eps`` only enters the
    analytic readout penalty :func:`readout_factor`; it is never injected
    into sampling (the sampled distributions model the depolarizing channel
    only).
    """

    r: float
    readout_eps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"survival probability r must lie in (0, 1], got {self.r}")
        if not 0.0 <= self.readout_eps < 1.0:
            raise ValueError(f"readout error must lie in [0, 1), got {self.readout_eps}")

    @property
    def noiseless(self) -> bool:
        return self.r == 1.0


@dataclass(frozen=True)
class SystemSize:
    """Total qubit count ``n`` of the register the depolarizing channel mixes.

    The channel mixes toward ``I/d`` with ``d = 2**n``; only ``inv_d = 2**-n``
    is materialized, so e.g. ``n = 100`` stays exactly representable
    (``inv_d ~ 7.9e-31``) and ``n`` beyond ~1074 underflows gracefully to 0.
    Use :meth:`infinite` (or the module constant ``INFINITE``) for the
    ``d -> infinity`` limit, where ``inv_d == 0`` exactly.
    """

    n: int | float

    def __post_init__(self) -> None:
        if math.isinf(self.n):
            return
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"qubit count must be a positive integer or inf, got {self.n!r}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.n)

    @property
    def inv_d(self) -> float:
        return 0.0 if self.is_infinite else 2.0 ** (-self.n)

    @classmethod
    def infinite(cls) -> "SystemSize":
        return cls(math.inf)


INFINITE = SystemSize(math.inf)


@dataclass(frozen=True)
class Schedule:
    """Ordered amplification rounds ``(m_k, shots_k)``.

    Duplicate ``m`` values are kept as distinct rounds; the exponential
    schedule builder intentionally produces repeats for small ``k``.
    """

    rounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for m, shots in self.rounds:
            if m < 0:
                raise ValueError(f"amplification count must be >= 0, got {m}")
            if shots < 1:
                raise ValueError(f"shot count must be >= 1, got {shots}")

    def __len__(self) -> int:
        return len(self.rounds)

    def total_queries(self, method: Method) -> int:
        return sum(shots * query_count(method, m) for m, shots in self.rounds)


@dataclass(frozen=True)
class RoundOutcome:
    """Measurement record of one round: ``hits`` good outcomes out of ``shots``."""

    m: int
    shots: int
    hits: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"amplification count must be >= 0, got {self.m}")
        if self.shots < 1:
            raise ValueError(f"shot count must be >= 1, got {self.shots}")
        if not 0 <= self.hits <= self.shots:
            raise ValueError(f"hits must lie in [0, {self.shots}], got {self.hits}")


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie strictly inside (0, pi/2), got {theta}")


def query_count(method: Method, m: int) -> int:
    """Number of queries consumed by ``m`` amplification steps.

    ``2*m + 1`` for :attr:`Method.G` (the initial preparation counts),
    ``2*m`` for :attr:`Method.Q`.
    """
    if m < 0:
        raise ValueError(f"amplification count must be >= 0, got {m}")
    return 2 * m + 1 if method is Method.G else 2 * m


def prob_terms(
    method: Method, m: int, noise: NoiseModel, size: SystemSize = INFINITE
) -> tuple[int, float, float]:
    """Decompose the hit probability as ``p1 = R*sin^2(n_q*theta) + floor``.

    Returns ``(n_q, R, floor)`` with ``R = r**n_q`` and the theta-independent
    noise floor ``(1-R)/2`` (G) or ``(1-R)*(d-1)/d`` (Q).  ``1 - R`` is
    computed with ``expm1`` to stay accurate near ``r = 1``.
    """
    n_q = query_count(method, m)
    log_r = math.log(noise.r)
    r_pow = math.exp(n_q * log_r)
    mixed = -math.expm1(n_q * log_r)  # 1 - r**n_q
    if method is Method.G:
        floor = mixed / 2.0
    else:
        floor = mixed * (1.0 - size.inv_d)
    return n_q, r_pow, floor


def prob_good(
    method: Method, theta: float, m: int, noise: NoiseModel, size: SystemSize = INFINITE
) -> float:
    """Probability of the good outcome after ``m`` noisy amplification rounds.

    Good means flag qubit 1 for :attr:`Method.G` and any-nonzero outcome for
    :attr:`Method.Q`.  The G value does not depend on ``size``.
    """
    _check_theta(theta)
    n_q, r_pow, floor = prob_terms(method, m, noise, size)
    p1 = r_pow * math.sin(n_q * theta) ** 2 + floor
    # guard the <= 1 ulp spill from the multiply-add
    return min(max(p1, 0.0), 1.0)


def prob_pair(
    method: Method, theta: float, m: int, noise: NoiseModel, size: SystemSize = INFINITE
) -> tuple[float, float]:
    """Both outcome probabilities ``(p0, p1)`` with ``p0 + p1 == 1`` exactly."""
    p1 = prob_good(method, theta, m, noise, size)
    return 1.0 - p1, p1


def sample_round(
    method: Method,
    theta: float,
    m: int,
    shots: int,
    noise: NoiseModel,
    size: SystemSize,
    seed: int,
) -> RoundOutcome:
    """Draw one round of measurements: ``hits ~ Binomial(shots, prob_good)``.

    The generator is a counter-based Philox stream keyed by ``seed`` alone,
    so identical arguments reproduce identical outcomes regardless of call
    order or threading.  Derive per-round seeds with :func:`derive_seed`.
    """
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    p1 = prob_good(method, theta, m, noise, size)
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = int(rng.binomial(shots, p1))
    return RoundOutcome(m=m, shots=shots, hits=hits)


def derive_seed(master_seed: int, *path: int) -> int:
    """Hash a master seed and an index path into an independent 64-bit seed.

    The same ``(master_seed, *path)`` always yields the same seed, and
    distinct paths yield statistically independent Philox keys; this is the
    rule experiment drivers use, with path
    ``(method_index, target_index, repetition_index, round_index)``.
    """
    if master_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed components must be non-negative integers")
    ss = np.random.SeedSequence([int(master_seed), *(int(p) for p in path)])
    return int(ss.generate_state(1, np.uint64)[0])


def readout_factor(n: int, eps: float) -> float:
    """Fisher-information penalty ``(1 - eps)**n`` for reading out ``n`` qubits."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"readout error must lie in [0, 1), got {eps}")
    return (1.0 - eps) ** n

def breakeven_qubits(eps: float) -> float:
    """Register size at which the readout penalty halves the information.

    Solves ``(1 - eps)**n = 1/2``; at ``eps = 0.01`` this is just under 70
    qubits.  ``eps = 0`` has no finite break-even and is rejected.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"readout error must lie in (0, 1), got {eps}")
    return math.log(0.5) / math.log1p(-eps)
