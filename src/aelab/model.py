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

Every closed form broadcasts over ``theta`` and ``m`` with numpy rules; a
scalar call returns a Python number equal, bit for bit, to the array call's
element.  Every count and seed passes one integer rule (:func:`_as_int`),
and every method tag one method rule (:func:`_check_method`): a bool or
float count or seed is refused, and so is a tag such as ``"g"``.
:func:`decay` is the single kernel that the estimator and the Fisher layer
share, and :func:`prob_good` the one hit probability, which
the sampler, the estimator's log-likelihood and the oracle's comparison
call; the estimator's likelihood tables and refinement, which build
``sin^2`` their own way, finish it with the same :func:`p1_from_sin2`.

Sampling is counter-keyed.  A round's seed is a pure function of its path:
round ``j`` of repetition ``rep`` of target ``ti`` for the method with seed
code ``code`` (G 0, Q 1) draws with
``derive_seed(master_seed, code, ti, rep, j)``, which is
``SeedSequence([master_seed, code, ti, rep, j]).generate_state(1, np.uint64)[0]``.
:func:`seed_keys` computes that hash for a whole grid of paths at once (each
array component, an index such as a repetition or a round, below ``2**32``),
and :func:`derive_seed` is its one-path call; :func:`sample_round` takes a
seed in ``[0, 2**64)``.  A round's hits are the first
``binomial`` of a fresh ``Generator(Philox(key=seed))``; :func:`draw_hits`
serves every key from one generator whose state it resets to that key,
counter 0 and an empty buffer before each draw, which gives exactly those
hits.  So the draws do not depend on call order, batching or threading.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Method",
    "NoiseModel",
    "SystemSize",
    "INFINITE",
    "Schedule",
    "RoundOutcome",
    "query_count",
    "prob_good",
    "prob_terms",
    "sample_round",
    "readout_factor",
    "breakeven_qubits",
    "derive_seed",
    "seed_keys",
    "draw_hits",
]


class Method(Enum):
    """Amplification variant tag."""

    G = "g"
    Q = "q"


def _as_int(value, name: str, lo: int = 0, hi=None):
    """``value`` as a Python int if it is an integer scalar or 0-d array (of any size), else as
    an int64 array, once every entry is an integer in ``[lo, hi]`` (no upper bound
    where ``hi`` is None; an array ``hi`` of ``value``'s shape bounds entry by
    entry).  A bool, float or string is not an integer, whatever its value.  Else
    ``ValueError`` naming ``name`` and the first bad entry as a Python value.
    """
    if type(value) is np.ndarray and value.dtype.kind in "iu":  # first: the hot calls pass schedule columns
        array = value
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if lo <= value and (hi is None or value <= hi):
            return value
        array = np.asarray(value)  # refused below
    else:
        array = np.asarray(value)
        if array.size and (array.dtype.kind not in "iu" or not isinstance(value, np.ndarray)):
            # the entries as given: numpy would read a bool in a list of ints as 0 or 1
            entries = np.asarray(value, dtype=object)
            for entry in entries.flat:
                if isinstance(entry, bool) or not isinstance(entry, numbers.Integral):
                    entry = entry.item() if isinstance(entry, np.generic) else entry
                    raise ValueError(f"{name} must be an integer, got {entry!r}")
            if array.dtype.kind not in "iu":  # integers no one numpy integer type holds: compare them as Python ints
                array = entries
    if array.dtype.kind != "i" and hi is None and array.ndim:  # uint64 or Python ints can pass int64
        hi = 2**63 - 1
    outside = array < lo if hi is None else (array < lo) | (array > hi)
    if np.count_nonzero(outside):
        i = np.flatnonzero(outside)[0]
        rule = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi if np.ndim(hi) == 0 else hi.flat[i]}]"
        raise ValueError(f"{name} must {rule}, got {int(array.flat[i])}")
    return int(array) if array.ndim == 0 else array.astype(np.int64, copy=False)


def _check_method(method) -> None:
    """The method rule: a tag that is not a :class:`Method` (``"g"``, say) is refused, not read as either method."""
    if not isinstance(method, Method):
        raise ValueError(f"method must be a Method, got {method!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing survival probability ``r`` per query, in ``(0, 1]``.

    ``r = 1`` is the noiseless limit.  Readout error is not part of the
    sampled model: its analytic penalty is :func:`readout_factor`, and
    :func:`breakeven_qubits` solves ``readout_factor(n, eps) = 1/2`` for ``n``.
    """

    r: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"survival probability r must lie in (0, 1], got {self.r}")


@dataclass(frozen=True)
class SystemSize:
    """Total qubit count ``n`` of the register the depolarizing channel mixes.

    The channel mixes toward ``I/d`` with ``d = 2**n``; only ``inv_d = 2**-n``
    is materialized, so e.g. ``n = 100`` stays exactly representable
    (``inv_d ~ 7.9e-31``) and ``n`` beyond ~1074 underflows gracefully to 0.
    The module constant ``INFINITE`` is the ``d -> infinity`` limit, where
    ``inv_d == 0`` exactly.
    """

    n: int | float

    def __post_init__(self) -> None:
        if self.n != math.inf:
            self.__dict__.update(n=_as_int(self.n, "qubit count", 1))  # frozen: kept as the int it equals

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.n)

    @property
    def inv_d(self) -> float:
        return 0.0 if self.is_infinite else 2.0 ** (-self.n)


INFINITE = SystemSize(math.inf)


def _count_column(values, name: str, lo: int = 0, hi=None) -> np.ndarray:
    """``values`` as a read-only 1-d int64 copy, after :func:`_as_int`'s integer rule."""
    if np.ndim(values) != 1:
        raise ValueError(f"round counts must be a 1-d sequence of integers, got {values!r}")
    column = np.array(_as_int(values, name, lo, hi))  # a copy: an array passed in stays writeable
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Schedule:
    """Ordered amplification rounds as read-only int64 columns of one length:
    round ``k`` applies ``ms[k] >= 0`` steps and is measured ``shots[k] >= 1``
    times.  Duplicate ``m`` values are kept as distinct rounds; the
    exponential schedule builder intentionally produces repeats for small ``k``.
    """

    ms: np.ndarray
    shots: np.ndarray

    def __post_init__(self) -> None:
        ms, shots = _count_column(self.ms, "amplification count"), _count_column(self.shots, "shot count", 1)
        if len(ms) != len(shots):
            raise ValueError(f"ms and shots must have one length, got {len(ms)} and {len(shots)}")
        self.__dict__.update(ms=ms, shots=shots)  # frozen: set the checked copies past __setattr__

    def __len__(self) -> int:
        return len(self.ms)


@dataclass(frozen=True)
class RoundOutcome:
    """One round, ``hits`` good outcomes of ``shots`` after ``m`` steps: a sample_round draw, a record.outcomes view."""

    m: int
    shots: int
    hits: int


def _scalar_or_array(x):
    """Python float for a 0-d result, the array otherwise."""
    return x if getattr(x, "ndim", 0) else float(x)


def _check_theta(theta) -> None:
    t = np.asarray(theta)
    if np.count_nonzero((t > 0.0) & (t < math.pi / 2)) != t.size:
        raise ValueError(f"theta must lie strictly inside (0, pi/2), got {theta}")


def query_count(method: Method, m) -> int | np.ndarray:
    """Number of queries consumed by ``m`` amplification steps.

    ``2*m + 1`` for :attr:`Method.G` (the initial preparation counts),
    ``2*m`` for :attr:`Method.Q`; an integer array for an array ``m``.
    ``m`` must hold integers >= 0 (:func:`_as_int`), widened to int64 before
    the arithmetic so that a narrow integer type cannot wrap, and ``method``
    must be a :class:`Method` (:func:`_check_method`).
    """
    _check_method(method)
    ms = _as_int(m, "amplification count")
    n_q = ms + ms  # 2*m without converting a scalar operand, which on a short array costs as much as the sum
    if method is Method.G:
        n_q += 1
    return n_q


def decay(r: float, n_q):
    """``(R, 1 - R)`` for ``R = r**n_q``, the latter via ``expm1`` to stay
    accurate near ``r = 1``.  Broadcasts over ``n_q``."""
    x = n_q * math.log(r)
    return _scalar_or_array(np.exp(x)), _scalar_or_array(-np.expm1(x))


def p1_from_sin2(s2, r_pow, floor, out=None):
    """``R*s2 + floor`` for ``s2 = sin^2(n_q*theta)``, clipped at 1 against the
    <= 1 ulp spill of the multiply-add; ``out``, if given, receives the result.

    No clip is needed below: ``R = exp(n_q*ln r) >= 0``, ``s2 >= 0`` and the
    floor lies in [-0.0, 1], so the sum is never negative.
    """
    p1 = np.add(np.multiply(s2, r_pow, out=out), floor, out=out)
    return np.minimum(p1, 1.0, out=out)


def prob_terms(method: Method, m, noise: NoiseModel, size: SystemSize = INFINITE):
    """Decompose the hit probability as ``p1 = R*sin^2(n_q*theta) + floor``.

    Returns ``(n_q, R, floor)`` with ``R = r**n_q`` and the theta-independent
    noise floor ``(1-R)/2`` (G) or ``(1-R)*(d-1)/d`` (Q), as arrays when
    ``m`` is an array.
    """
    n_q = query_count(method, m)
    r_pow, mixed = decay(noise.r, n_q)
    floor = mixed / 2.0 if method is Method.G else mixed * (1.0 - size.inv_d)
    return n_q, r_pow, floor


def prob_good(
    method: Method, theta, m, noise: NoiseModel, size: SystemSize = INFINITE
) -> float | np.ndarray:
    """Probability of the good outcome after ``m`` noisy amplification rounds.

    Good means flag qubit 1 for :attr:`Method.G` and any-nonzero outcome for
    :attr:`Method.Q`.  The G value does not depend on ``size``.
    """
    _check_theta(theta)
    n_q, r_pow, floor = prob_terms(method, m, noise, size)
    # np.square, not ** 2: on a numpy scalar ** 2 calls pow, which can miss the array result by 1 ulp
    return _scalar_or_array(p1_from_sin2(np.square(np.sin(n_q * np.asarray(theta))), r_pow, floor))


# numpy.random.SeedSequence's hash constants (pool of four uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# The hash below is uint32 arithmetic on uint64 arrays (one element per path)
# or Python ints: every product of two words fits in 64 bits, and each result
# is masked back to 32 bits.


def _mix(x, y):
    v = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return v ^ v >> 16


def _hashmix(const: int, mult: int):
    """SeedSequence's ``hashmix`` (``_INIT_A``, ``_MULT_A``) or its output
    hash (``_INIT_B``, ``_MULT_B``): each call advances the multiplier."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _entropy(components) -> list:
    """The entropy words of every path, in order.

    A scalar component, an integer >= 0 of any size, splits into
    ``SeedSequence``'s uint32 words, least significant first (0 is one
    word), as Python ints (numpy uint64 scalars warn on overflow); an array
    component is one word per path, so each of its entries must lie in
    [0, 2**32).  Both follow :func:`_as_int`'s integer rule.  Every path of
    a call therefore has the same number of words.
    """
    words = []
    for c in components:
        if np.ndim(c):
            words.append(_as_int(c, "array seed component", 0, _MASK32).astype(np.uint64))
        else:
            c = _as_int(c, "seed component")
            words.extend(c >> (32 * w) & _MASK32 for w in range(max(1, -(-c.bit_length() // 32))))
    return words


def seed_keys(master_seed: int, *path) -> np.ndarray:
    """:func:`derive_seed` of every path on a broadcast grid, as a uint64 array.

    Each component is a non-negative int or an array of ints in [0, 2**32),
    by :func:`_as_int`'s rule (a bool, float or string is refused with a
    ``ValueError``); the arrays broadcast together and the result has their
    shape.  The key
    of a path is ``SeedSequence([master_seed, *path]).generate_state(1,
    np.uint64)[0]``, computed by the same uint32 arithmetic for all paths at
    once.
    """
    words = _entropy((master_seed, *path))
    # SeedSequence.mix_entropy: the first words fill the pool (zero past the
    # end), the pool mixes with itself, then each remaining word mixes in
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(1, np.uint64): two words, low word first
    output = _hashmix(_INIT_B, _MULT_B)
    low, high = output(pool[0]), output(pool[1])
    return np.asarray(low | high << 32, dtype=np.uint64)


def derive_seed(master_seed: int, *path: int) -> int:
    """Hash a master seed and an index path into an independent 64-bit seed.

    The same ``(master_seed, *path)`` always yields the same seed, and
    distinct paths yield statistically independent Philox keys; this is the
    rule experiment drivers use, with path
    ``(method_code, target_index, repetition_index, round_index)``.  One
    path of :func:`seed_keys`.
    """
    return int(seed_keys(master_seed, *path))


def draw_hits(shots, p1, keys) -> np.ndarray:
    """``Binomial(shots, p1)`` hits, one draw per 64-bit Philox key.

    ``shots``, ``p1`` and ``keys`` broadcast together.  Each draw equals the
    first binomial of a fresh ``Generator(Philox(key=k))``: one generator
    serves every key, its state reset to that key, counter 0 and an empty
    buffer before each draw.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # key 0, counter 0, empty buffer
    key = state["state"]["key"]
    shots, p1, keys = np.broadcast_arrays(shots, p1, keys)
    hits = []
    for n, p, k in zip(shots.ravel().tolist(), p1.ravel().tolist(), keys.ravel().tolist()):
        key[0] = k
        bit_generator.state = state
        hits.append(rng.binomial(n, p))
    return np.array(hits, dtype=np.int64).reshape(keys.shape)


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

    Identical arguments reproduce identical outcomes regardless of call
    order or threading.  Derive per-round seeds with :func:`derive_seed`;
    ``seed`` must lie in [0, 2**64), the range :func:`derive_seed` returns.
    """
    schedule = Schedule([m], [shots])  # refuses m < 0 and shots < 1
    (m,), (shots,) = schedule.ms.tolist(), schedule.shots.tolist()
    seed = _as_int(seed, "seed", 0, 2**64 - 1)
    p1 = prob_good(method, theta, m, noise, size)
    return RoundOutcome(m=m, shots=shots, hits=int(draw_hits(shots, p1, np.uint64(seed))))


def readout_factor(n: int, eps: float) -> float:
    """Fisher-information penalty ``(1 - eps)**n`` for reading out ``n`` qubits."""
    n = _as_int(n, "qubit count", 1)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"readout error must lie in [0, 1), got {eps}")
    return (1.0 - eps) ** n


def breakeven_qubits(eps: float) -> float:
    """Register size at which the readout penalty halves the information.

    Solves ``(1 - eps)**n = 1/2``; at ``eps = 0.01`` this is just under 70
    qubits.  ``eps = 0`` has no finite break-even and is rejected, as is an
    ``eps`` so small (below about 4e-309) that the break-even overflows a float.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"readout error must lie in (0, 1), got {eps}")
    n = math.log(0.5) / math.log1p(-eps)
    if math.isinf(n):
        raise ValueError(f"readout error {eps!r} puts the break-even beyond the largest float")
    return n
