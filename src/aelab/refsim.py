"""Small dense density-matrix simulator used as an independent reference.

Everything here is explicit linear algebra on ``2**(n+1)``-dimensional
complex matrices: a concrete preparation unitary is built, the two
amplification operators are applied gate by gate with the depolarizing
channel inserted after every preparation query, and probabilities and
Fisher information are extracted directly from the evolved matrix and its
theta-derivative, which is propagated analytically alongside it (finite
differences remain as an independent test route).  None of the closed
forms in :mod:`aelab.model` / :mod:`aelab.fisher` are used on this path,
so agreement between the two is a genuine cross-check.

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
from functools import lru_cache

import numpy as np

from .model import Method, query_count

__all__ = [
    "UnitaryFactory",
    "ReflectionOps",
    "reflections",
    "depolarize",
    "evolve",
    "evolve_with_derivative",
    "measure_probs",
    "validate_density_matrix",
    "rotation_check",
    "numeric_qfi",
    "propagated_classical_fisher",
    "numeric_classical_fisher",
    "theorem_bound",
    "EquivalenceCase",
    "EquivalenceReport",
    "run_equivalence_suite",
]

MAX_WORK_QUBITS = 8
MAX_AMPLIFICATIONS = 64


@lru_cache(maxsize=32)
def _random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-like unitary on n qubits: QR of a complex Ginibre matrix."""
    dim = 2**n
    rng = np.random.Generator(np.random.Philox(key=np.random.SeedSequence([seed, n]).generate_state(1, np.uint64)[0]))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the result is deterministic and unitary
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    q.setflags(write=False)
    return q


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
        if not 1 <= self.n <= MAX_WORK_QUBITS:
            raise ValueError(f"work-register size must lie in [1, {MAX_WORK_QUBITS}], got {self.n}")
        if not 0.0 < self.theta < math.pi / 2:
            raise ValueError(f"theta must lie strictly inside (0, pi/2), got {self.theta}")

    @property
    def dim(self) -> int:
        return 2 ** (self.n + 1)

    def state_prep(self) -> np.ndarray:
        return np.kron(_random_unitary(self.n, self.w_seed), _ry(2.0 * self.theta))

    def state_prep_deriv(self) -> np.ndarray:
        return np.kron(_random_unitary(self.n, self.w_seed), _ry_deriv(2.0 * self.theta))


@dataclass(frozen=True)
class ReflectionOps:
    """The two reflections: u0 about the all-zeros state, uf about flag 0."""

    u0: np.ndarray
    uf: np.ndarray


def _reflection_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of (u0, uf): both reflections are diagonal with entries +-1."""
    dim = 2 ** (n + 1)
    s0 = -np.ones(dim)
    s0[0] = 1.0
    sf = -np.ones(dim)
    sf[0::2] = 1.0  # flag qubit is the LSB
    return s0, sf


def reflections(n: int) -> ReflectionOps:
    s0, sf = _reflection_signs(n)
    return ReflectionOps(u0=np.diag(s0).astype(complex), uf=np.diag(sf).astype(complex))


@dataclass(frozen=True)
class _Prepared:
    """Theta-dependent operators of one factory and the reflection sign masks.

    ``a_h``/``da_h`` are the adjoints, kept as the ``conj().T`` views the
    gate-by-gate product rule uses, so every matmul sees the same operands.
    ``s0``/``sf`` are the diagonals of ``u0``/``uf``.  Conjugating by such a
    +-1 diagonal is ``X * outer(s, s)``, exact in floating point, so the
    masks give the same matrices as ``u @ X @ u.conj().T``.
    """

    a: np.ndarray
    a_h: np.ndarray
    da: np.ndarray
    da_h: np.ndarray
    s0: np.ndarray
    sf: np.ndarray
    zero_mask: np.ndarray
    flag_mask: np.ndarray


# the equivalence suite works through one factory at a time; two entries
# cap the cache at 40 MB even at the largest register (8 work qubits)
@lru_cache(maxsize=2)
def _prepared(factory: UnitaryFactory) -> _Prepared:
    a = factory.state_prep()
    da = factory.state_prep_deriv()
    s0, sf = _reflection_signs(factory.n)
    prep = _Prepared(
        a=a, a_h=a.conj().T, da=da, da_h=da.conj().T, s0=s0, sf=sf,
        zero_mask=np.outer(s0, s0), flag_mask=np.outer(sf, sf),
    )
    for arr in vars(prep).values():
        arr.setflags(write=False)
    return prep


def depolarize(mat: np.ndarray, r: float) -> np.ndarray:
    """Depolarizing channel ``X -> r*X + (1-r) * tr(X) * I/d``.

    Written trace-linearly so it acts correctly both on density matrices
    (trace 1) and on their theta-derivatives (trace 0).
    """
    dim = mat.shape[0]
    out = r * mat
    out.flat[:: dim + 1] += (1.0 - r) * np.trace(mat) / dim
    return out


def evolve_with_derivative(
    method: Method, m: int, factory: UnitaryFactory, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve ``|0><0|`` through the noisy circuit; return (rho, drho/dtheta).

    G applies ``A`` and then ``m`` times ``uf, A^dagger, u0, A``; Q applies
    ``m`` times ``A, uf, A^dagger, u0``.  The channel follows every query of
    ``A`` or its adjoint, so m steps accumulate 2m+1 (G) / 2m (Q) of them.
    The derivative is propagated analytically by the product rule: unitaries
    conjugate it, the preparation steps add the ``dA`` cross terms, and the
    (theta-independent, linear) channel just passes through.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"survival probability r must lie in (0, 1], got {r}")
    if m < 0:
        raise ValueError(f"amplification count must be >= 0, got {m}")
    if m > MAX_AMPLIFICATIONS:
        raise ValueError(f"amplification count capped at {MAX_AMPLIFICATIONS}, got {m}")
    prep = _prepared(factory)
    dim = factory.dim
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    drho = np.zeros((dim, dim), dtype=complex)

    def query(op, op_h, dop, dop_h):
        nonlocal rho, drho
        drho = op @ drho @ op_h + dop @ rho @ op_h + op @ rho @ dop_h
        rho = op @ rho @ op_h
        rho = depolarize(rho, r)
        drho = depolarize(drho, r)

    if method is Method.G:
        query(prep.a, prep.a_h, prep.da, prep.da_h)
    for _ in range(m):
        if method is Method.Q:
            query(prep.a, prep.a_h, prep.da, prep.da_h)
        rho = rho * prep.flag_mask
        drho = drho * prep.flag_mask
        query(prep.a_h, prep.a, prep.da_h, prep.da)
        rho = rho * prep.zero_mask
        drho = drho * prep.zero_mask
        if method is Method.G:
            query(prep.a, prep.a_h, prep.da, prep.da_h)
    return rho, drho


def evolve(method: Method, m: int, factory: UnitaryFactory, r: float) -> np.ndarray:
    """Density matrix after ``m`` noisy amplification steps."""
    rho, _ = evolve_with_derivative(method, m, factory, r)
    return rho


def measure_probs(rho: np.ndarray, method: Method) -> tuple[float, float]:
    """Outcome probabilities ``(p0, p1)`` of the method's measurement.

    G reads the flag qubit (p0 sums the even-index diagonal); Q projects on
    the all-zeros state (p0 is the top-left entry).
    """
    diag = np.real(np.diag(rho))
    if method is Method.G:
        p0 = float(diag[0::2].sum())
        p1 = float(diag[1::2].sum())
    else:
        p0 = float(diag[0])
        p1 = float(diag.sum() - diag[0])
    return p0, p1


def validate_density_matrix(rho: np.ndarray, atol: float = 1e-12) -> None:
    """Raise unless rho is Hermitian, unit-trace and positive semidefinite."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a negative eigenvalue")


def rotation_check(factory: UnitaryFactory, m: int) -> float:
    """Deviation of the noiseless modified-operator power from a plane rotation.

    Builds ``|phi> = (Q - cos(2*theta)) |0> / sin(2*theta)`` and returns
    ``|| Q^m |0> - cos(2m*theta)|0> - sin(2m*theta)|phi> ||``.
    """
    if m < 0 or m > MAX_AMPLIFICATIONS:
        raise ValueError(f"amplification count must lie in [0, {MAX_AMPLIFICATIONS}], got {m}")
    s2t = math.sin(2.0 * factory.theta)
    if s2t == 0.0:
        raise ValueError("rotation picture undefined where sin(2*theta) = 0")
    prep = _prepared(factory)
    # u0 @ A^dagger @ uf @ A with the diagonal reflections as row/column signs
    q = (prep.s0[:, None] * prep.a_h * prep.sf) @ prep.a
    e0 = np.zeros(factory.dim, dtype=complex)
    e0[0] = 1.0
    phi = (q @ e0 - math.cos(2.0 * factory.theta) * e0) / s2t
    lhs = np.linalg.matrix_power(q, m) @ e0
    rhs = math.cos(2.0 * m * factory.theta) * e0 + math.sin(2.0 * m * factory.theta) * phi
    return float(np.linalg.norm(lhs - rhs))


def _spectral_qfi(rho: np.ndarray, drho: np.ndarray, cutoff: float) -> float:
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise ValueError("evolved matrix is not Hermitian")
    lam, vecs = np.linalg.eigh(rho)
    mat = vecs.conj().T @ drho @ vecs
    pair_sums = lam[:, None] + lam[None, :]
    mask = pair_sums > cutoff
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = 2.0 * np.abs(mat) ** 2 / pair_sums
    return float(terms[mask].sum())


def numeric_qfi(
    method: Method, m: int, factory: UnitaryFactory, r: float, cutoff: float = 1e-12
) -> float:
    """Quantum Fisher information from the spectral SLD formula.

    Eigendecomposes the evolved matrix and sums
    ``2 |<i|drho|j>|^2 / (lambda_i + lambda_j)`` over ordered pairs with
    ``lambda_i + lambda_j > cutoff``.  For ``r < 1`` the spectrum is bounded
    below by ``(1-r**n_q)/d``, so the cutoff only ever trims the pure case.
    """
    rho, drho = evolve_with_derivative(method, m, factory, r)
    return _spectral_qfi(rho, drho, cutoff)


def _check_nondegenerate(p: np.ndarray) -> None:
    # pinned probabilities (reachable only at r = 1) make the quotient
    # meaningless; the simulator lands within rounding of the pin, so the
    # guard is a tolerance, not an exact comparison
    if min(p) <= 1e-12 or max(p) >= 1.0 - 1e-12:
        raise ValueError(f"degenerate outcome probabilities {tuple(p)}; Fisher information undefined here")


def propagated_classical_fisher(rho: np.ndarray, drho: np.ndarray, method: Method) -> float:
    """Classical Fisher information of the method's measurement from ``(rho, drho)``.

    The outcome probabilities are linear in the state, so their
    theta-derivatives are ``measure_probs(drho)``; the information is
    ``sum(dp**2 / p)``.  Degenerate probabilities (0 or 1) are rejected.
    """
    p = np.array(measure_probs(rho, method))
    _check_nondegenerate(p)
    dp = np.array(measure_probs(drho, method))
    return float(np.sum(dp**2 / p))


def numeric_classical_fisher(
    method: Method, m: int, factory: UnitaryFactory, r: float, step: float = 1e-5
) -> float:
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
    d_coarse = (probs(factory.theta + step) - probs(factory.theta - step)) / (2.0 * step)
    d_fine = (probs(factory.theta + step / 2) - probs(factory.theta - step / 2)) / step
    dp = (4.0 * d_fine - d_coarse) / 3.0
    return float(np.sum(dp**2 / p))


def theorem_bound(n_ops: int, d: int, r_list) -> float:
    """Upper bound on the quantum Fisher information of any n_ops-query circuit.

    With cumulative survival ``rt = prod(r_i)`` the bound is
    ``4 n_ops^2 rt^2 / (2/d + (1 - 2/d) rt)``, which reduces to
    ``4 n_ops^2`` when every ``r_i`` is 1.
    """
    if n_ops < 1:
        raise ValueError(f"query count must be >= 1, got {n_ops}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rt = 1.0
    for ri in r_list:
        if not 0.0 < ri <= 1.0:
            raise ValueError(f"survival probabilities must lie in (0, 1], got {ri}")
        rt *= ri
    if rt == 1.0:
        return 4.0 * n_ops * n_ops
    return 4.0 * n_ops * n_ops * rt * rt / (2.0 / d + (1.0 - 2.0 / d) * rt)


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

    PROB_TOL = 1e-10
    QFI_TOL = 1e-8
    BOUND_TOL = 1e-9
    ROTATION_TOL = 1e-10
    CFI_TOL = 1e-6

    @property
    def failures(self) -> list[str]:
        bad = []
        if self.prob_dev > self.PROB_TOL:
            bad.append(f"probability dev {self.prob_dev:.3e}")
        if self.qfi_rel_dev > self.QFI_TOL:
            bad.append(f"qfi rel dev {self.qfi_rel_dev:.3e}")
        if self.bound_excess > self.BOUND_TOL:
            bad.append(f"bound exceeded by {self.bound_excess:.3e}")
        if self.rotation_dev is not None and self.rotation_dev > self.ROTATION_TOL:
            bad.append(f"rotation dev {self.rotation_dev:.3e}")
        if self.cfi_rel_dev is not None and self.cfi_rel_dev > self.CFI_TOL:
            bad.append(f"cfi rel dev {self.cfi_rel_dev:.3e}")
        return bad

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

    def worst(self, attr: str) -> float:
        vals = [getattr(c, attr) for c in self.cases if getattr(c, attr) is not None]
        return max(vals) if vals else 0.0


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
    information against the general circuit bound.  Each case is evolved
    once: both Fisher informations come from the propagated derivative
    ``drho`` of that evolution.  The closed-form references are evaluated
    once per (n, seed, r, method) over all of ``m_values``.

    ``perturb_r`` shrinks the survival probability used *inside the
    simulator only* by the given relative amount; any nonzero value must
    make the suite fail, which is itself a sensitivity check of the harness.
    """
    if not 0.0 <= perturb_r < 1.0:
        raise ValueError(f"perturbation must lie in [0, 1), got {perturb_r}")
    # local import: model/fisher are the closed-form side of the comparison
    from .fisher import classical_fisher, quantum_fisher
    from .model import NoiseModel, SystemSize, derive_seed, prob_good

    cases = []
    for n in n_values:
        size = SystemSize(n + 1)  # work register + flag qubit
        d = 2 ** (n + 1)
        for si in range(seeds):
            rng = np.random.Generator(
                np.random.Philox(key=derive_seed(master_seed, n, si))
            )
            theta = float(rng.uniform(0.02, math.pi / 2 - 0.02))
            w_seed = int(rng.integers(0, 2**63 - 1))
            factory = UnitaryFactory(n=n, theta=theta, w_seed=w_seed)
            refs = {}  # closed forms over m_values, per (r, method)
            for r in r_values:
                noise = NoiseModel(r)
                for method in (Method.G, Method.Q):
                    n_qs = query_count(method, m_values)
                    # zero-query rounds have no reference information; their entries go unused
                    live = np.maximum(n_qs, 1)
                    refs[r, method] = list(zip(
                        n_qs.tolist(),
                        prob_good(method, theta, m_values, noise, size).tolist(),
                        quantum_fisher(live, noise, size).tolist(),
                        classical_fisher(method, theta, live, noise, size).tolist(),
                    ))
            for mi, m in enumerate(m_values):
                for r in r_values:
                    r_sim = r * (1.0 - perturb_r)
                    for method in (Method.G, Method.Q):
                        n_q, p_ref, qfi_ref, cfi_ref = refs[r, method][mi]
                        rho, drho = evolve_with_derivative(method, m, factory, r_sim)
                        _, p1 = measure_probs(rho, method)
                        prob_dev = abs(p1 - p_ref)

                        qfi_num = _spectral_qfi(rho, drho, cutoff=1e-12)
                        if n_q > 0:
                            qfi_rel = abs(qfi_num - qfi_ref) / qfi_ref
                            bound = theorem_bound(n_q, d, [r] * n_q)
                            excess = max(0.0, (qfi_num - bound) / bound)
                            bound_gap = abs(qfi_num - bound) / bound
                        else:
                            qfi_rel = abs(qfi_num)
                            excess = max(0.0, qfi_num)
                            bound_gap = None

                        rot = None
                        if r == 1.0 and method is Method.Q:
                            rot = rotation_check(factory, m)

                        cfi = None
                        if n_q > 0:
                            r_pow = r**n_q
                            # the relative deviation is ill-conditioned where
                            # the probability derivative nearly vanishes
                            if r_pow * abs(math.sin(2.0 * n_q * theta)) > 1e-3:
                                cfi_num = propagated_classical_fisher(rho, drho, method)
                                cfi = abs(cfi_num - cfi_ref) / cfi_ref
                        cases.append(
                            EquivalenceCase(
                                method=method,
                                n=n,
                                m=m,
                                r=r,
                                theta=theta,
                                w_seed=w_seed,
                                prob_dev=prob_dev,
                                qfi_rel_dev=qfi_rel,
                                bound_excess=excess,
                                bound_rel_gap=bound_gap,
                                rotation_dev=rot,
                                cfi_rel_dev=cfi,
                            )
                        )
    return EquivalenceReport(cases=tuple(cases))
