"""Small dense density-matrix simulator used as an independent reference.

Everything here is explicit linear algebra on ``2**(n+1)``-dimensional
complex matrices: a concrete preparation unitary is built, the two
amplification operators are applied step by step (the reflections as sign
masks) with the depolarizing channel inserted after every preparation
query, and probabilities and Fisher information are extracted directly
from the evolved matrix and its theta-derivative, which is propagated
analytically alongside it (:func:`numeric_classical_fisher` takes finite
differences instead, as the independent test route).  None of the closed
forms in :mod:`aelab.model` / :mod:`aelab.fisher` are used on this path,
so agreement between the two is a genuine cross-check.

Both methods walk one query sequence (``A``, ``uf``, ``A^dagger``, ``u0``,
``A``, ...): method Q after ``m`` steps is the state after ``2m`` queries
and method G the state after ``2m+1``.  So the simulator is array-native
over the method, the survival probability and the amplification count: an
int ``m``, one method and one ``r`` give one ``(rho, drho)`` pair, while a
tuple of methods, a sequence of ``r`` and a sequence of counts each add a
leading axis to the stacks of a single pass.  That pass evolves every
``r`` side by side as one stack, runs to the largest query count asked for
and keeps a snapshot at each requested one.  The read-outs follow the same
contract: :func:`measure_probs` and :func:`propagated_classical_fisher`
take ``(..., d, d)`` stacks, :func:`theorem_bound` an array of query
counts and :func:`rotation_check` a sequence of counts, and each gives an
array back, or a Python float for one matrix or count.  The equivalence
suite therefore runs one evolution per factory, takes the spectral QFI of
each (r, method) stack of snapshots in one stacked eigendecomposition and
reads every other column off the stacks in one call each; every value
equals, bit for bit, the per-(method, count, r) route.  The spectral QFI
takes stacks only; one count's value is that of a stack of one,
``evolve_with_derivative(method, [m], factory, r)``.

Conventions (fixed, everything below depends on them):

* ``n`` counts *work* qubits; the flag qubit is appended, so states live in
  dimension ``2**(n+1)``.  A work register of ``n`` qubits therefore
  corresponds to ``SystemSize(n + 1)`` on the closed-form side.
* The flag qubit is the least-significant bit of the computational index
  (even indices = flag 0).
* The preparation unitary is ``A = kron(W, Ry(2*theta))`` with ``W`` a
  seeded Haar-like random unitary on the work register, giving
  ``A|0> = cos(theta)|w>|0> + sin(theta)|w>|1>`` with ``|w> = W|0>`` and an
  analytic, norm-preserving derivative ``dA/dtheta = kron(W, Ry')``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .model import Method, NoiseModel, _as_int, _check_method, _check_theta, _scalar_or_array, derive_seed, query_count

__all__ = [
    "UnitaryFactory",
    "depolarize",
    "evolve",
    "evolve_with_derivative",
    "measure_probs",
    "rotation_check",
    "propagated_classical_fisher",
    "numeric_classical_fisher",
    "theorem_bound",
    "EquivalenceCase",
    "EquivalenceReport",
    "run_equivalence_suite",
]

MAX_WORK_QUBITS = 8
MAX_AMPLIFICATIONS = 64
# the integer rule on a work-register size and on an amplification count, each given alone or as a sequence
_work_qubits = partial(_as_int, name="work-register size", lo=1, hi=MAX_WORK_QUBITS)
_amplification_counts = partial(_as_int, name="amplification counts", hi=MAX_AMPLIFICATIONS)
# Smallest coherent weight r**n_q whose QFI checks (qfi_rel_dev, bound_excess, bound_rel_gap) the suite makes.
# The evolved state carries that weight only to a few 1e-18 absolute, so the spectral QFI's relative error runs at
# a few 1e-18 / r**n_q.  Over n = 1-4, 3 seeds, r in {0.05, 0.1, ..., 0.5, 0.6, 0.7, 0.8, 0.9} and m = 0-64 its
# worst value was 6.0e-12 with r**n_q in [1e-6, 1e-5), 2.4e-9 in [1e-9, 1e-8) (past the bound's 1e-9 tolerance)
# and 3.1e-5 in [1e-13, 1e-12); at n = 5-7 (r 0.7 and 0.8, m = 15-35) it was 2.1e-13 in [1e-6, 1e-5).
MIN_COHERENT_WEIGHT = 1e-6
# angle step of numeric_classical_fisher's central differences (halved for the Richardson term)
_FD_STEP = 1e-5


# a factory's state_prep and state_prep_deriv both take W: one QR serves the pair
@lru_cache(maxsize=1)
def _random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-like unitary on n qubits: QR of a complex Ginibre matrix, read-only as it is shared."""
    dim = 2**n
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, n)))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the result is deterministic and unitary
    w = q * (np.diag(r) / np.abs(np.diag(r)))
    w.flags.writeable = False
    return w


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _ry_deriv(angle: float) -> np.ndarray:
    # d/dtheta of Ry(2*theta) evaluated at angle = 2*theta
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[-s, -c], [c, -s]], dtype=complex)


@dataclass(frozen=True)
class UnitaryFactory:
    """Concrete preparation circuit on ``n`` work qubits plus one flag qubit."""

    n: int
    theta: float
    w_seed: int = 0

    def __post_init__(self) -> None:
        # frozen: kept as the ints they equal
        self.__dict__.update(n=_work_qubits(self.n), w_seed=_as_int(self.w_seed, "w_seed"))
        if np.ndim(self.theta):  # the model's check takes arrays; one circuit has one angle
            raise ValueError(f"theta must be one angle, got {self.theta!r}")
        _check_theta(self.theta)

    @property
    def dim(self) -> int:
        return 2 ** (self.n + 1)

    def state_prep(self) -> np.ndarray:
        return np.kron(_random_unitary(self.n, self.w_seed), _ry(2.0 * self.theta))

    def state_prep_deriv(self) -> np.ndarray:
        return np.kron(_random_unitary(self.n, self.w_seed), _ry_deriv(2.0 * self.theta))


def _reflection_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of (u0, uf): both reflections are diagonal with entries +-1."""
    dim = 2 ** (n + 1)
    s0 = -np.ones(dim)
    s0[0] = 1.0
    sf = -np.ones(dim)
    sf[0::2] = 1.0  # flag qubit is the LSB
    return s0, sf


def depolarize(mat: np.ndarray, r) -> np.ndarray:
    """Depolarizing channel ``X -> r*X + (1-r) * tr(X) * I/d``.

    Written trace-linearly so it acts correctly both on density matrices
    (trace 1) and on their theta-derivatives (trace 0).  ``mat`` may be a
    ``(..., d, d)`` stack and ``r`` then an array of its leading shape, one
    survival probability per matrix; each matrix comes out as, bit for bit,
    the call on it alone.
    """
    r = np.asarray(r, dtype=float)
    dim = mat.shape[-1]
    out = r[..., None, None] * mat
    diagonal = out.reshape(out.shape[:-2] + (dim * dim,))[..., :: dim + 1]  # a view: out is a fresh array
    diagonal += ((1.0 - r) * np.trace(mat, axis1=-2, axis2=-1) / dim)[..., None]
    return out


def evolve_with_derivative(method, m, factory: UnitaryFactory, r) -> tuple[np.ndarray, np.ndarray]:
    """Evolve ``|0><0|`` through the noisy circuit; return (rho, drho/dtheta).

    Both methods walk one query sequence: ``A``, ``uf``, ``A^dagger``,
    ``u0``, ``A``, ``uf``, ... with the channel after every query of ``A``
    or its adjoint.  G's state after ``m`` steps (``A``, then ``m`` times
    ``uf, A^dagger, u0, A``) is the state after ``2m+1`` queries, and Q's
    (``m`` times ``A, uf, A^dagger, u0``) the state after ``2m`` queries
    and the ``u0`` that closes them (:func:`~aelab.model.query_count`).
    The derivative is propagated analytically by the product rule:
    unitaries conjugate it, the preparation steps add the ``dA`` cross
    terms, and the (theta-independent, linear) channel just passes through.

    An int ``m``, one ``method`` and a float ``r`` give two ``(d, d)``
    matrices.  Each argument may instead add a leading axis: a tuple of
    methods, then a 1-D sequence of survival probabilities, then a 1-D
    sequence of counts (any order, repeats allowed), so
    ``evolve_with_derivative((Method.G, Method.Q), ms, factory, rs)`` gives
    two ``(2, len(rs), len(ms), d, d)`` stacks.  They come from a single
    pass to the largest query count asked for, with every ``r`` evolved
    side by side as one ``(len(rs), d, d)`` stack and a snapshot kept at
    each requested count; every snapshot equals, bit for bit, the call for
    that one method, count and ``r``.
    """
    methods = (method,) if isinstance(method, Method) else method
    if not isinstance(methods, tuple) or not methods:
        raise ValueError(f"method must be a Method or a non-empty tuple of them, got {method!r}")
    for x in methods:
        _check_method(x)
    survival = np.asarray(r)
    if survival.ndim > 1 or survival.dtype.kind not in "iuf":
        raise ValueError(f"r must be one survival probability or a 1-D sequence of them, got {r!r}")
    survival = survival.astype(float, copy=False)
    for x in survival.reshape(-1).tolist():
        NoiseModel(x)  # refuses r outside (0, 1]
    counts = np.asarray(_amplification_counts(m))
    # the query count of each (method, count) snapshot, in output order
    wanted = np.stack([query_count(x, counts.reshape(-1)) for x in methods])
    a, da = factory.state_prep(), factory.state_prep_deriv()
    a_h, da_h = a.conj().T, da.conj().T
    # conjugating by u0 or uf, a +-1 diagonal, is X * outer(s, s): exact in floating point
    s0, sf = _reflection_signs(factory.n)
    zero_mask, flag_mask = np.outer(s0, s0), np.outer(sf, sf)
    dim = factory.dim
    rho = np.zeros(survival.shape + (dim, dim), dtype=complex)
    rho[..., 0, 0] = 1.0
    drho = np.zeros_like(rho)
    rho_at = np.empty((len(methods),) + survival.shape + (counts.size, dim, dim), dtype=complex)
    drho_at = np.empty_like(rho_at)

    def query(op, op_h, dop, dop_h):
        nonlocal rho, drho
        op_rho = op @ rho
        drho = op @ drho @ op_h + dop @ rho @ op_h + op_rho @ dop_h
        rho = op_rho @ op_h
        rho = depolarize(rho, survival)
        drho = depolarize(drho, survival)

    def snapshot(n_q):
        at_method, at_count = np.nonzero(wanted == n_q)
        rho_at[at_method, ..., at_count, :, :] = rho
        drho_at[at_method, ..., at_count, :, :] = drho

    snapshot(0)
    for n_q in range(1, int(wanted.max(initial=0)) + 1):
        if n_q % 2:
            query(a, a_h, da, da_h)
        else:
            rho = rho * flag_mask
            drho = drho * flag_mask
            query(a_h, a, da_h, da)
            rho = rho * zero_mask
            drho = drho * zero_mask
        snapshot(n_q)
    shape = (() if isinstance(method, Method) else (len(methods),)) + survival.shape + counts.shape + (dim, dim)
    return rho_at.reshape(shape), drho_at.reshape(shape)


def evolve(method, m, factory: UnitaryFactory, r) -> np.ndarray:
    """Density matrix after ``m`` noisy amplification steps (a stack over a
    tuple of methods, a sequence of ``r`` or of counts, as in
    :func:`evolve_with_derivative`)."""
    rho, _ = evolve_with_derivative(method, m, factory, r)
    return rho


def measure_probs(rho: np.ndarray, method: Method):
    """Outcome probabilities ``(p0, p1)`` of the method's measurement.

    G reads the flag qubit (p0 sums the even-index diagonal); Q projects on
    the all-zeros state (p0 is the top-left entry).  A ``(..., d, d)`` stack
    gives two arrays over its leading axes, each entry equal, bit for bit,
    to the call on that matrix alone; one ``(d, d)`` matrix gives two floats.
    """
    _check_method(method)
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    if method is Method.G:
        p0 = diag[..., 0::2].sum(-1)
        p1 = diag[..., 1::2].sum(-1)
    else:
        p0 = diag[..., 0]
        p1 = diag.sum(-1) - diag[..., 0]
    return _scalar_or_array(p0), _scalar_or_array(p1)


def rotation_check(factory: UnitaryFactory, m):
    """Deviation of the noiseless modified-operator power from a plane rotation.

    Builds ``|phi> = (Q - cos(2*theta)) |0> / sin(2*theta)`` and returns
    ``|| Q^m |0> - cos(2m*theta)|0> - sin(2m*theta)|phi> ||``.  Like
    :func:`evolve_with_derivative` it takes an int (a float back) or a 1-D
    sequence of counts (an array back); ``Q`` and ``|phi>`` are built once
    and each count takes its own matrix power.
    """
    counts = np.asarray(_amplification_counts(m))
    s2t = math.sin(2.0 * factory.theta)
    if s2t == 0.0:
        raise ValueError("rotation picture undefined where sin(2*theta) = 0")
    a = factory.state_prep()
    s0, sf = _reflection_signs(factory.n)
    # u0 @ A^dagger @ uf @ A with the diagonal reflections as row/column signs
    q = (s0[:, None] * a.conj().T * sf) @ a
    e0 = np.zeros(factory.dim, dtype=complex)
    e0[0] = 1.0
    phi = (q @ e0 - math.cos(2.0 * factory.theta) * e0) / s2t

    def deviation(k: int) -> float:
        lhs = np.linalg.matrix_power(q, k) @ e0
        rhs = math.cos(2.0 * k * factory.theta) * e0 + math.sin(2.0 * k * factory.theta) * phi
        return float(np.linalg.norm(lhs - rhs))

    devs = np.array([deviation(k) for k in counts.reshape(-1).tolist()])
    return _scalar_or_array(devs.reshape(counts.shape))


def _spectral_qfi(rho: np.ndarray, drho: np.ndarray, cutoff: float) -> np.ndarray:
    """Quantum Fisher information of each matrix of a ``(k, d, d)`` stack,
    from the spectral SLD formula.

    Eigendecomposes each evolved matrix and sums
    ``2 |<i|drho|j>|^2 / (lambda_i + lambda_j)`` over ordered pairs with
    ``lambda_i + lambda_j > cutoff``.  For ``r < 1`` the spectrum is bounded
    below by ``(1-r**n_q)/d``, so the cutoff only ever trims the pure case.
    The stack shares one Hermitian check, one ``eigh`` and one
    ``V^H drho V``; each matrix's masked pair sum is taken on its own, so a
    value does not depend on the other matrices of the stack.
    """
    if not np.allclose(rho, rho.conj().swapaxes(-1, -2), atol=1e-10):
        raise ValueError("evolved matrix is not Hermitian")
    lam, vecs = np.linalg.eigh(rho)
    mat = vecs.conj().swapaxes(-1, -2) @ drho @ vecs
    pair_sums = lam[..., :, None] + lam[..., None, :]
    mask = pair_sums > cutoff
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = 2.0 * np.abs(mat) ** 2 / pair_sums
    return np.array([t[k].sum() for t, k in zip(terms, mask)])


def _check_nondegenerate(p: np.ndarray) -> None:
    # pinned probabilities (reachable only at r = 1) make the quotient
    # meaningless; the simulator lands within rounding of the pin, so the
    # guard is a tolerance, not an exact comparison
    if p.min() <= 1e-12 or p.max() >= 1.0 - 1e-12:
        raise ValueError(f"degenerate outcome probabilities {p.tolist()}; Fisher information undefined here")


def propagated_classical_fisher(rho: np.ndarray, drho: np.ndarray, method: Method):
    """Classical Fisher information of the method's measurement from ``(rho, drho)``.

    The outcome probabilities are linear in the state, so their
    theta-derivatives are ``measure_probs(drho)``; the information is
    ``sum(dp**2 / p)``.  ``(..., d, d)`` stacks give an array, one matrix
    pair a float, as in :func:`measure_probs`.  Degenerate probabilities
    (0 or 1) anywhere in the stack are rejected.
    """
    p = np.array(measure_probs(rho, method))
    _check_nondegenerate(p)
    dp = np.array(measure_probs(drho, method))
    return _scalar_or_array(np.sum(dp**2 / p, axis=0))


def numeric_classical_fisher(method: Method, m: int, factory: UnitaryFactory, r: float) -> float:
    """Classical Fisher information by Richardson-extrapolated central differences.

    The independent test route for derivative propagation: probabilities
    come from the evolved matrices at shifted angles and derivatives from
    finite differences, so ``drho`` is never used.  It costs five
    evolutions where :func:`propagated_classical_fisher` needs one, and the
    equivalence suite uses the latter.  The angle must sit away from the
    outcome-probability extremes; degenerate probabilities (0 or 1) are
    rejected.
    """
    def probs(theta: float) -> np.ndarray:
        rho = evolve(method, m, replace(factory, theta=theta), r)
        return np.array(measure_probs(rho, method))

    p = probs(factory.theta)
    _check_nondegenerate(p)
    d_coarse = (probs(factory.theta + _FD_STEP) - probs(factory.theta - _FD_STEP)) / (2.0 * _FD_STEP)
    d_fine = (probs(factory.theta + _FD_STEP / 2) - probs(factory.theta - _FD_STEP / 2)) / _FD_STEP
    dp = (4.0 * d_fine - d_coarse) / 3.0
    return float(np.sum(dp**2 / p))


def theorem_bound(n_ops, d: int, r: float):
    """Upper bound on the quantum Fisher information of any n_ops-query circuit.

    With cumulative survival ``rt = r**n_ops`` the bound is
    ``4 n_ops^2 rt^2 / (2/d + (1 - 2/d) rt)``, which reduces to
    ``4 n_ops^2`` at ``r = 1``.  ``rt`` is the running product of the
    per-query survivals, taken in query order.  ``n_ops`` may be an int (a
    float back) or an integer array (an array back).
    """
    n_ops = np.asarray(_as_int(n_ops, "query count", 1))
    d = _as_int(d, "dimension", 2)
    NoiseModel(r)  # refuses r outside (0, 1]
    if r == 1.0:
        return _scalar_or_array(4.0 * n_ops * n_ops)
    rt = np.cumprod(np.full(n_ops.max(initial=0), r))[n_ops - 1]
    return _scalar_or_array(4.0 * n_ops * n_ops * rt * rt / (2.0 / d + (1.0 - 2.0 / d) * rt))


# ---------------------------------------------------------------------------
# closed-form equivalence suite


@dataclass(frozen=True)
class EquivalenceCase:
    """Deviations of one (method, n, m, r, theta, seed) cell from the closed forms."""

    method: Method
    n: int
    m: int
    r: float
    theta: float
    w_seed: int
    prob_dev: float
    qfi_rel_dev: float
    bound_excess: float
    bound_rel_gap: float | None
    rotation_dev: float | None
    cfi_rel_dev: float | None

    # (deviation field, failure label, tolerance) of each check, in output-column order;
    # a plain class attribute, not a field, and a None deviation is a check not made
    CHECKS = (
        ("prob_dev", "probability dev", 1e-10),
        ("qfi_rel_dev", "qfi rel dev", 1e-8),
        ("bound_excess", "bound exceeded by", 1e-9),
        ("rotation_dev", "rotation dev", 1e-10),
        ("cfi_rel_dev", "cfi rel dev", 1e-6),
    )

    @property
    def failures(self) -> list[str]:
        return [
            f"{label} {dev:.3e}"
            for name, label, tol in self.CHECKS
            if (dev := getattr(self, name)) is not None and not dev <= tol  # a NaN deviation fails
        ]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class EquivalenceReport:
    cases: tuple[EquivalenceCase, ...]

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.cases)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def as_dicts(self) -> list[dict]:
        """One output row per case: its cell, each check's deviation ("" where not made) and its status."""
        return [
            {
                "method": c.method.value, "n": c.n, "m": c.m, "r": c.r, "theta": c.theta,
                **{name: "" if getattr(c, name) is None else getattr(c, name) for name, _, _ in c.CHECKS},
                "status": "FAIL: " + "; ".join(failures) if (failures := c.failures) else "pass",
            }
            for c in self.cases
        ]

    def worst(self, attr: str) -> float:
        """Largest deviation of the checks made, NaN if any is NaN, 0.0 if none was made."""
        vals = [getattr(c, attr) for c in self.cases if getattr(c, attr) is not None]
        return float(np.max(vals)) if vals else 0.0


def run_equivalence_suite(
    n_values=(1, 2, 3, 4),
    m_values=(0, 1, 2, 3, 4, 5),
    r_values=(1.0, 0.9, 0.5),
    seeds: int = 20,
    master_seed: int = 7,
    perturb_r: float = 0.0,
) -> EquivalenceReport:
    """Compare the simulator against every closed form over a parameter grid.

    For each cell a random angle and work unitary are drawn; the simulated
    outcome probability, spectral quantum Fisher information, rotation
    picture (noiseless cells only) and classical Fisher information are
    checked against their closed-form counterparts, and the quantum Fisher
    information against the general circuit bound.  There is one evolution
    per factory: a single call of :func:`evolve_with_derivative` over both
    methods, every ``r`` and every count, read through the module attribute
    so that a stand-in sees it.  Both Fisher informations come from the
    propagated derivative ``drho`` of that evolution, and the spectral QFI
    of each (r, method) stack of snapshots is taken in one stacked
    ``eigh``.  Every column of an (r, method) stack's cases is then one call
    or expression over all of ``m_values``: the read-outs take the snapshot
    stacks whole, and the closed-form references are evaluated over the
    same counts.  The whole grid is checked before any work: it must be
    non-empty (at least one size, count and survival probability, and
    ``seeds >= 1``), every count must be an integer in
    ``[0, MAX_AMPLIFICATIONS]``, every register size an integer in
    ``[1, MAX_WORK_QUBITS]``, ``seeds`` and ``master_seed`` integers and
    every survival probability in ``(0, 1]``; a bool or a float is not an
    integer.  A case whose coherent weight ``r**n_q`` lies below
    ``MIN_COHERENT_WEIGHT`` (1e-6) makes no QFI check (``qfi_rel_dev``,
    ``bound_excess``, ``bound_rel_gap`` are None): the evolved state
    carries that weight only to a few 1e-18, so the QFI's relative
    rounding there would fail a correct simulator.  The evolution holds
    ``2 * len(r_values) * len(m_values)`` pairs of ``(d, d)`` complex
    matrices per factory, ``d = 2**(n+1)``:
    about 300 MB at 8 work qubits on the default counts and survival
    probabilities, and about 3 GiB with counts 0-64.  A deviation that is
    NaN fails its check.

    ``perturb_r`` shrinks the survival probability used *inside the
    simulator only* by the given relative amount; any nonzero value must
    make the suite fail, which is itself a sensitivity check of the harness.
    """
    if not 0.0 <= perturb_r < 1.0:
        raise ValueError(f"perturbation must lie in [0, 1), got {perturb_r}")
    m_grid, n_grid, seeds = _amplification_counts(m_values), _work_qubits(n_values), _as_int(seeds, "seeds")
    master_seed = _as_int(master_seed, "master_seed")
    if not (len(n_values) and len(m_values) and len(r_values)) or not seeds:  # zero cases would pass unverified
        raise ValueError(f"the oracle grid is empty ({n_values=}, {m_values=}, {r_values=}, {seeds=})")
    # local import: model/fisher are the closed-form side of the comparison
    from .fisher import classical_fisher, quantum_fisher
    from .model import SystemSize, prob_good, seed_keys

    noises = [NoiseModel(r) for r in r_values]
    methods = (Method.G, Method.Q)
    simulated_rs = np.array([r * (1.0 - perturb_r) for r in r_values])
    # derive_seed(master_seed, n, si) of every cell, in one call
    keys = seed_keys(master_seed, n_grid[:, None], np.arange(seeds)).tolist()
    cases = []
    for n, n_keys in zip(n_grid.tolist(), keys):
        size = SystemSize(n + 1)  # work register + flag qubit
        d = 2 ** (n + 1)
        for si in range(seeds):
            rng = np.random.Generator(np.random.Philox(key=n_keys[si]))
            theta = float(rng.uniform(0.02, math.pi / 2 - 0.02))
            w_seed = int(rng.integers(0, 2**63 - 1))
            factory = UnitaryFactory(n=n, theta=theta, w_seed=w_seed)
            # one pass serves the factory's every (method, r, m) snapshot
            rho_stacks, drho_stacks = evolve_with_derivative(methods, m_grid, factory, simulated_rs)
            cells = []  # the cases of each (r, method), one per entry of m_values
            for ri, (r, noise) in enumerate(zip(r_values, noises)):
                for mi, method in enumerate(methods):
                    rhos, drhos = rho_stacks[mi, ri], drho_stacks[mi, ri]
                    n_qs = query_count(method, m_grid)
                    # zero-query rounds have no reference information or bound;
                    # their entries are computed at one query and go unused
                    queried = n_qs > 0
                    live = np.maximum(n_qs, 1)
                    qfis = _spectral_qfi(rhos, drhos, cutoff=1e-12)
                    qfi_refs = quantum_fisher(live, noise, size)
                    bounds = theorem_bound(live, d, r)
                    prob_dev = np.abs(measure_probs(rhos, method)[1] - prob_good(method, theta, m_grid, noise, size))
                    # the QFI checks are not made where r**n_q < MIN_COHERENT_WEIGHT, as the QFI's rounding swamps
                    # them there; a reference there may underflow to 0, so the divisions run silently
                    with np.errstate(divide="ignore", invalid="ignore"):
                        qfi_rel = np.where(queried, np.abs(qfis - qfi_refs) / qfi_refs, np.abs(qfis))
                        excess = np.where(queried, np.maximum(0.0, (qfis - bounds) / bounds), np.maximum(0.0, qfis))
                        bound_gap = np.where(queried, np.abs(qfis - bounds) / bounds, None)
                    unresolved = r**n_qs < MIN_COHERENT_WEIGHT
                    qfi_rel, excess, bound_gap = (np.where(unresolved, None, c) for c in (qfi_rel, excess, bound_gap))
                    unset = np.full(len(n_qs), None)
                    rot = rotation_check(factory, m_grid) if r == 1.0 and method is Method.Q else unset
                    # the relative deviation is ill-conditioned where the
                    # probability derivative nearly vanishes
                    cfi_ok = np.array(
                        [n_q > 0 and r**n_q * abs(math.sin(2.0 * n_q * theta)) > 1e-3 for n_q in n_qs.tolist()],
                        dtype=bool,
                    )
                    cfi = unset.copy()
                    if cfi_ok.any():
                        cfi_refs = classical_fisher(method, theta, live, noise, size)[cfi_ok]
                        cfi_nums = propagated_classical_fisher(rhos[cfi_ok], drhos[cfi_ok], method)
                        cfi[cfi_ok] = np.abs(cfi_nums - cfi_refs) / cfi_refs
                    columns = (prob_dev, qfi_rel, excess, bound_gap, rot, cfi)
                    cells.append(
                        [
                            EquivalenceCase(method, n, m, r, theta, w_seed, *row)
                            for m, *row in zip(m_grid.tolist(), *(c.tolist() for c in columns))
                        ]
                    )
            # cases run m-major, then r, then method
            cases.extend(case for row in zip(*cells) for case in row)
    return EquivalenceReport(cases=tuple(cases))
