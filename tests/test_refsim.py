import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aelab import Method, NoiseModel, SystemSize, classical_fisher, fisher, prob_good, quantum_fisher, query_count
from aelab import refsim
from aelab.refsim import (
    MAX_AMPLIFICATIONS,
    MIN_COHERENT_WEIGHT,
    EquivalenceCase,
    EquivalenceReport,
    UnitaryFactory,
    _spectral_qfi,
    depolarize,
    evolve,
    evolve_with_derivative,
    measure_probs,
    numeric_classical_fisher,
    propagated_classical_fisher,
    rotation_check,
    run_equivalence_suite,
    theorem_bound,
)


def dense_reflections(n):
    """Dense ``(u0, uf)`` on n work qubits plus the flag (the LSB): ``u0``
    reflects about the all-zeros state, ``uf`` about flag 0.  The simulator
    applies both as sign masks; this is the gate-level form they replace."""
    dim = 2 ** (n + 1)
    u0 = -np.eye(dim, dtype=complex)
    u0[0, 0] = 1.0
    uf = np.diag(np.tile([1.0, -1.0], dim // 2)).astype(complex)
    return u0, uf


def validate_density_matrix(rho, atol=1e-12):
    """Raise unless rho is Hermitian, unit-trace and positive semidefinite."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a negative eigenvalue")


def spectral_qfi(method, m, factory, r):
    """The suite's spectral QFI of the state after ``m`` steps: a stack of one."""
    return _spectral_qfi(*evolve_with_derivative(method, [m], factory, r), 1e-12)[0]


@pytest.fixture
def factory():
    return UnitaryFactory(n=2, theta=0.37, w_seed=123)


class TestOperators:
    def test_state_prep_is_unitary(self, factory):
        a = factory.state_prep()
        assert np.allclose(a @ a.conj().T, np.eye(factory.dim), atol=1e-12)

    def test_state_prep_structure(self, factory):
        # A|0> = cos(theta)|w>|0> + sin(theta)|w>|1> with the flag as the LSB
        psi = factory.state_prep()[:, 0]
        flag0, flag1 = psi[0::2], psi[1::2]
        assert np.linalg.norm(flag0) == pytest.approx(math.cos(0.37), abs=1e-12)
        assert np.linalg.norm(flag1) == pytest.approx(math.sin(0.37), abs=1e-12)
        # both branches hold the same work-register state
        assert np.allclose(flag0 / math.cos(0.37), flag1 / math.sin(0.37), atol=1e-12)

    def test_state_prep_deriv_is_isometric(self, factory):
        # the derivative acts through a rotation generator only: norms survive
        da = factory.state_prep_deriv()
        assert np.allclose(da.conj().T @ da, np.eye(factory.dim), atol=1e-12)

    def test_reflections_are_involutions(self):
        u0, uf = dense_reflections(3)
        for u in (u0, uf):
            assert np.allclose(u, u.conj().T, atol=1e-12)
            assert np.allclose(u @ u, np.eye(16), atol=1e-12)
        assert u0[0, 0] == 1.0 and u0[1, 1] == -1.0
        assert uf[0, 0] == 1.0 and uf[1, 1] == -1.0 and uf[2, 2] == 1.0

    def test_factory_guards(self):
        with pytest.raises(ValueError):
            UnitaryFactory(n=9, theta=0.3)
        with pytest.raises(ValueError):
            UnitaryFactory(n=2, theta=0.0)
        # an array angle passes the model's range check but is not one circuit
        for theta in (np.array([0.3, 0.4]), [0.3]):
            with pytest.raises(ValueError, match=r"^theta must be one angle, got "):
                UnitaryFactory(n=1, theta=theta)


class TestEvolve:
    def test_pure_preparation(self, factory):
        rho = evolve(Method.G, 0, factory, 1.0)
        psi = factory.state_prep()[:, 0]
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)

    def test_q_single_step_overlap(self):
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        rho = evolve(Method.Q, 1, f, 1.0)
        p0, _ = measure_probs(rho, Method.Q)
        assert p0 == pytest.approx(math.cos(math.pi / 4) ** 2, abs=1e-12)

    def test_noise_weight_decomposition(self, factory):
        # after one amplification (3 queries) the surviving weight is r^3
        rho = evolve(Method.G, 1, factory, 0.9)
        pure = evolve(Method.G, 1, factory, 1.0)
        recon = 0.9**3 * pure + (1 - 0.9**3) * np.eye(8) / 8
        assert np.abs(rho - recon).max() < 1e-12

    def test_channel_commutes_with_unitaries(self, factory):
        # applying all depolarizing factors at the end gives the same state
        for method, m, n_noise in ((Method.G, 2, 5), (Method.Q, 2, 4)):
            interleaved = evolve(method, m, factory, 0.8)
            pure = evolve(method, m, factory, 1.0)
            collected = pure
            for _ in range(n_noise):
                collected = depolarize(collected, 0.8)
            assert np.abs(interleaved - collected).max() < 1e-12

    def test_density_matrix_invariants(self, factory):
        for method in Method:
            for m in (0, 1, 3):
                for r in (1.0, 0.6):
                    validate_density_matrix(evolve(method, m, factory, r))

    @pytest.mark.parametrize(
        "method, n, m, r",
        [(Method.G, 1, 0, 1.0), (Method.G, 2, 3, 0.9), (Method.Q, 1, 2, 0.5), (Method.Q, 3, 4, 0.8)],
    )
    def test_matches_dense_product_rule(self, method, n, m, r):
        # the cached operators and sign-mask reflections reproduce, bit for
        # bit, the gate-by-gate product rule with dense reflection matrices
        f = UnitaryFactory(n=n, theta=0.41, w_seed=17)
        a, da = f.state_prep(), f.state_prep_deriv()
        u0, uf = dense_reflections(n)
        prep = [("prep", a, da), ("noise", None, None)]
        step = [
            ("unitary", uf, None),
            ("prep", a.conj().T, da.conj().T),
            ("noise", None, None),
            ("unitary", u0, None),
        ]
        seq = prep + (step + prep) * m if method is Method.G else (prep + step) * m
        rho = np.zeros((f.dim, f.dim), dtype=complex)
        rho[0, 0] = 1.0
        drho = np.zeros_like(rho)
        for kind, op, dop in seq:
            if kind == "noise":
                rho, drho = depolarize(rho, r), depolarize(drho, r)
            elif kind == "unitary":
                rho, drho = op @ rho @ op.conj().T, op @ drho @ op.conj().T
            else:
                drho = op @ drho @ op.conj().T + dop @ rho @ op.conj().T + op @ rho @ dop.conj().T
                rho = op @ rho @ op.conj().T
        got_rho, got_drho = evolve_with_derivative(method, m, f, r)
        np.testing.assert_array_equal(got_rho, rho)
        np.testing.assert_array_equal(got_drho, drho)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(Method),
        n=st.integers(min_value=1, max_value=3),
        r=st.floats(min_value=0.5, max_value=1.0),
        theta=st.floats(min_value=0.02, max_value=math.pi / 2 - 0.02),
        w_seed=st.integers(min_value=0, max_value=2**32),
        ms=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    )
    def test_stack_equals_int_calls(self, method, n, r, theta, w_seed, ms):
        # one evolution with snapshots does the int calls' arithmetic in
        # their order, and the stacked QFI sums each matrix on its own
        f = UnitaryFactory(n=n, theta=theta, w_seed=w_seed)
        rhos, drhos = evolve_with_derivative(method, ms, f, r)
        assert rhos.shape == drhos.shape == (len(ms), f.dim, f.dim)
        for m, rho, drho in zip(ms, rhos, drhos):
            one_rho, one_drho = evolve_with_derivative(method, m, f, r)
            np.testing.assert_array_equal(rho, one_rho)
            np.testing.assert_array_equal(drho, one_drho)
        per_matrix = [_spectral_qfi(rho[None], drho[None], 1e-12)[0] for rho, drho in zip(rhos, drhos)]
        assert _spectral_qfi(rhos, drhos, 1e-12).tolist() == per_matrix

    @settings(max_examples=40, deadline=None)
    @given(
        methods=st.lists(st.sampled_from(Method), min_size=1, max_size=3).map(tuple),
        n=st.integers(min_value=1, max_value=3),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=1.0)), min_size=1, max_size=4),
        theta=st.floats(min_value=0.02, max_value=math.pi / 2 - 0.02),
        w_seed=st.integers(min_value=0, max_value=2**32),
        ms=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    )
    # repeated, unsorted counts and a repeated r, with r = 1 among the r < 1
    @example(methods=(Method.Q, Method.G), n=2, rs=[0.5, 1.0, 0.5], theta=0.41, w_seed=17, ms=[5, 0, 3, 3])
    def test_method_and_r_axes_equal_int_calls(self, methods, n, rs, theta, w_seed, ms):
        # one pass over the shared query sequence, every r side by side, does
        # each (method, r, m) int call's arithmetic in its order
        f = UnitaryFactory(n=n, theta=theta, w_seed=w_seed)
        rhos, drhos = evolve_with_derivative(methods, ms, f, rs)
        assert rhos.shape == drhos.shape == (len(methods), len(rs), len(ms), f.dim, f.dim)
        for mi, method in enumerate(methods):
            for ri, r in enumerate(rs):
                for ki, m in enumerate(ms):
                    one_rho, one_drho = evolve_with_derivative(method, m, f, r)
                    np.testing.assert_array_equal(rhos[mi, ri, ki], one_rho)
                    np.testing.assert_array_equal(drhos[mi, ri, ki], one_drho)

    def test_each_axis_is_optional(self, factory):
        # a tuple of methods, a sequence of r and a sequence of counts each add one leading axis
        d = factory.dim
        shapes = [
            (Method.G, 2, 0.9, (d, d)),
            (Method.G, [2], 0.9, (1, d, d)),
            (Method.G, 2, [0.9], (1, d, d)),
            ((Method.G,), 2, 0.9, (1, d, d)),
            ((Method.G, Method.Q), 2, [0.9, 1.0, 0.5], (2, 3, d, d)),
            ((Method.G, Method.Q), [0, 1], 0.9, (2, 2, d, d)),
            (Method.Q, [3, 1], (0.9, 0.5), (2, 2, d, d)),
        ]
        for method, m, r, shape in shapes:
            rho, drho = evolve_with_derivative(method, m, factory, r)
            assert rho.shape == drho.shape == shape

    def test_depolarize_takes_one_r_per_matrix(self, factory):
        stack = evolve(Method.G, [0, 1, 2], factory, 0.8)
        rs = np.array([1.0, 0.6, 0.9])
        got = depolarize(stack, rs)
        for mat, r, want in zip(stack, rs.tolist(), got):
            np.testing.assert_array_equal(depolarize(mat, r), want)

    def test_guards(self, factory):
        with pytest.raises(ValueError):
            evolve(Method.G, 65, factory, 1.0)
        with pytest.raises(ValueError):
            evolve(Method.G, 1, factory, 0.0)
        # a negative count must not index a snapshot from the end
        with pytest.raises(ValueError, match="got -1"):
            evolve(Method.Q, [2, -1], factory, 0.9)
        with pytest.raises(ValueError, match=r"in \(0, 1\], got 1.5$"):
            evolve(Method.Q, 1, factory, [0.9, 1.5])
        for method, r in (((), 0.9), ("g", 0.9), (1, 0.9), (Method.G, [[0.9]]), (Method.G, "0.9"), (Method.G, True)):
            with pytest.raises(ValueError, match="must be"):
                evolve(method, 1, factory, r)


class TestMeasureProbs:
    def test_matches_closed_forms(self, factory):
        size = SystemSize(3)  # 2 work qubits + flag
        for method in Method:
            for m in (0, 1, 2, 4):
                for r in (1.0, 0.9, 0.5):
                    _, p1 = measure_probs(evolve(method, m, factory, r), method)
                    ref = prob_good(method, 0.37, m, NoiseModel(r), size)
                    assert abs(p1 - ref) < 1e-10

    def test_maximally_mixed(self):
        rho = np.eye(8, dtype=complex) / 8
        p0, p1 = measure_probs(rho, Method.Q)
        assert p0 == pytest.approx(1 / 8, abs=1e-15)
        p0, p1 = measure_probs(rho, Method.G)
        assert p0 == pytest.approx(0.5, abs=1e-15)

    def test_g_probability_ignores_work_unitary(self):
        vals = []
        for w_seed in (1, 2, 99):
            f = UnitaryFactory(n=2, theta=0.61, w_seed=w_seed)
            vals.append(measure_probs(evolve(Method.G, 2, f, 0.9), Method.G)[1])
        assert max(vals) - min(vals) < 1e-12


class TestStackedReadouts:
    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(Method),
        n=st.integers(min_value=1, max_value=3),
        r=st.floats(min_value=0.5, max_value=1.0),
        theta=st.floats(min_value=0.02, max_value=math.pi / 2 - 0.02),
        w_seed=st.integers(min_value=0, max_value=2**32),
        ms=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    )
    def test_stack_equals_single_calls(self, method, n, r, theta, w_seed, ms):
        # each read-out over a stack (or a list of counts) equals, bit for
        # bit, its calls on one matrix (or one count), and those give floats
        def assert_same(stacked, singles):
            assert all(type(v) is float for v in singles)
            assert isinstance(stacked, np.ndarray)
            assert stacked.tolist() == singles

        f = UnitaryFactory(n=n, theta=theta, w_seed=w_seed)
        rhos, drhos = evolve_with_derivative(method, ms, f, r)
        for stack in (rhos, drhos):
            per_matrix = [measure_probs(mat, method) for mat in stack]
            for stacked, singles in zip(measure_probs(stack, method), zip(*per_matrix)):
                assert_same(stacked, list(singles))

        n_qs = query_count(method, ms)
        ok = np.array([k > 0 and r**k * abs(math.sin(2.0 * k * theta)) > 1e-3 for k in n_qs.tolist()], dtype=bool)
        if ok.any():
            singles = [propagated_classical_fisher(rho, drho, method) for rho, drho in zip(rhos[ok], drhos[ok])]
            assert_same(propagated_classical_fisher(rhos[ok], drhos[ok], method), singles)

        live = np.maximum(n_qs, 1)
        singles = [theorem_bound(k, f.dim, r) for k in live.tolist()]
        assert_same(theorem_bound(live, f.dim, r), singles)
        # the cumulative survival is the running product of the per-query survivals
        for k, bound in zip(live.tolist(), singles):
            rt = 1.0
            for _ in range(k):
                rt *= r
            loop_bound = 4.0 * k * k * rt * rt / (2.0 / f.dim + (1.0 - 2.0 / f.dim) * rt)
            assert bound == (4.0 * k * k if rt == 1.0 else loop_bound)

        assert_same(rotation_check(f, ms), [rotation_check(f, m) for m in ms])


class TestRotation:
    def test_small_m_deviations(self):
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        assert rotation_check(f, 0) == 0.0
        for m in (1, 2, 5):
            assert rotation_check(f, m) < 1e-10

    @pytest.mark.parametrize("bad", [-1, MAX_AMPLIFICATIONS + 1, 1.5])
    def test_rejects_bad_counts(self, bad):
        # the same count check, and the same error, as the evolution
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        with pytest.raises(ValueError, match=f"amplification counts .* got {bad!r}$"):
            rotation_check(f, bad)

    def test_two_steps_reach_orthogonal(self):
        # 4 * pi/8 = pi/2: the rotated state leaves the all-zeros axis entirely
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        rho = evolve(Method.Q, 2, f, 1.0)
        p0, _ = measure_probs(rho, Method.Q)
        assert abs(p0) < 1e-12


class TestNumericQfi:
    def test_noiseless_value(self, factory):
        assert spectral_qfi(Method.G, 1, factory, 1.0) == pytest.approx(36.0, rel=1e-10)

    def test_noisy_value(self):
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        val = spectral_qfi(Method.Q, 1, f, 0.9)
        ref = quantum_fisher(2, NoiseModel(0.9), SystemSize(3))
        assert ref == pytest.approx(12.242099125364433, rel=1e-12)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_methods_share_the_same_curve(self, factory):
        # parity forbids equal query counts, so both methods are checked
        # against the same closed-form curve instead
        size = SystemSize(3)
        for m, method in ((1, Method.G), (2, Method.Q)):
            n_q = 2 * m + 1 if method is Method.G else 2 * m
            val = spectral_qfi(method, m, factory, 0.85)
            assert val == pytest.approx(quantum_fisher(n_q, NoiseModel(0.85), size), rel=1e-8)


class TestNumericClassicalFisher:
    def test_single_query_noiseless(self):
        f = UnitaryFactory(n=2, theta=math.pi / 6, w_seed=1)
        assert numeric_classical_fisher(Method.G, 0, f, 1.0) == pytest.approx(4.0, rel=1e-6)

    def test_three_queries_noiseless(self):
        f = UnitaryFactory(n=2, theta=math.pi / 7, w_seed=1)
        assert numeric_classical_fisher(Method.G, 1, f, 1.0) == pytest.approx(36.0, rel=1e-6)

    def test_degenerate_angle_rejected(self):
        # 3 * pi/6 = pi/2 pins the hit probability to 1
        f = UnitaryFactory(n=2, theta=math.pi / 6, w_seed=1)
        with pytest.raises(ValueError):
            numeric_classical_fisher(Method.G, 1, f, 1.0)

    def test_noisy_q_value(self):
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        val = numeric_classical_fisher(Method.Q, 1, f, 0.9)
        ref = classical_fisher(Method.Q, math.pi / 8, 2, NoiseModel(0.9), SystemSize(3))
        assert val == pytest.approx(ref, rel=1e-6)

    def test_settles_the_q_hand_value(self):
        # independent finite-difference confirmation of the 64/55 closed form
        f = UnitaryFactory(n=1, theta=math.pi / 8, w_seed=9)
        val = numeric_classical_fisher(Method.Q, 1, f, 0.5)
        assert val == pytest.approx(64 / 55, rel=1e-6)


class TestPropagatedClassicalFisher:
    def test_noisy_q_value(self):
        f = UnitaryFactory(n=2, theta=math.pi / 8, w_seed=5)
        rho, drho = evolve_with_derivative(Method.Q, 1, f, 0.9)
        ref = classical_fisher(Method.Q, math.pi / 8, 2, NoiseModel(0.9), SystemSize(3))
        assert propagated_classical_fisher(rho, drho, Method.Q) == pytest.approx(ref, rel=1e-10)

    def test_degenerate_angle_rejected(self):
        f = UnitaryFactory(n=2, theta=math.pi / 6, w_seed=1)
        rho, drho = evolve_with_derivative(Method.G, 1, f, 1.0)
        with pytest.raises(ValueError):
            propagated_classical_fisher(rho, drho, Method.G)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(Method),
        n=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=4),
        r=st.floats(min_value=0.5, max_value=1.0),
        theta=st.floats(min_value=0.02, max_value=math.pi / 2 - 0.02),
        w_seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_agrees_with_finite_differences(self, method, n, m, r, theta, w_seed):
        # finite differences never touch drho, so agreement checks the
        # propagation itself; the filter is the equivalence suite's own
        n_q = 2 * m + 1 if method is Method.G else 2 * m
        assume(r**n_q * abs(math.sin(2.0 * n_q * theta)) > 1e-3)
        f = UnitaryFactory(n=n, theta=theta, w_seed=w_seed)
        rho, drho = evolve_with_derivative(method, m, f, r)
        propagated = propagated_classical_fisher(rho, drho, method)
        assert numeric_classical_fisher(method, m, f, r) == pytest.approx(propagated, rel=1e-6)


class TestTheoremBound:
    def test_noiseless(self):
        assert theorem_bound(3, 2, 1.0) == pytest.approx(36.0)

    def test_noisy_value(self):
        assert theorem_bound(2, 4, 0.9) == pytest.approx(11.599558011049727, rel=1e-12)

    def test_circuit_respects_bound(self):
        f = UnitaryFactory(n=3, theta=0.44, w_seed=3)
        val = spectral_qfi(Method.G, 2, f, 0.95)
        bound = theorem_bound(5, 16, 0.95)
        assert val <= bound * (1 + 1e-9)
        assert val == pytest.approx(bound, rel=1e-8)  # attained by this circuit

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_bound(0, 4, 0.9)
        with pytest.raises(ValueError):
            theorem_bound(2, 4, 0.0)
        # the cumulative survival indexes a running product by query count
        for bad, entry in ((2.5, "2.5"), ([1, 2.0], "2.0")):
            with pytest.raises(ValueError, match=f"^query count must be an integer, got {entry}$"):
                theorem_bound(bad, 4, 0.9)


class TestEquivalenceSuite:
    def test_reduced_grid_passes(self):
        report = run_equivalence_suite(
            n_values=(1, 3), m_values=(0, 1, 3), r_values=(1.0, 0.7), seeds=4
        )
        assert report.n_cases == 2 * 4 * 3 * 2 * 2
        assert report.all_passed
        assert report.worst("prob_dev") < 1e-10
        assert report.worst("qfi_rel_dev") < 1e-8

    def test_cases_match_per_case_route(self, monkeypatch):
        # the suite's stacked route against one int evolution and one
        # stack-of-one QFI per case: every field of every case, bit for bit
        grid = dict(n_values=(1, 2, 3), m_values=(3, 0, 1, 3, 5), r_values=(1.0, 0.7), seeds=4)
        stacked = run_equivalence_suite(**grid)

        factories = []

        def per_case_evolution(methods, ms, factory, rs):
            # (method, r, m) stacks of int evolutions, one per case
            factories.append(factory)
            pairs = [[[evolve_with_derivative(method, m, factory, r) for m in ms] for r in rs] for method in methods]
            return tuple(np.array([[[pair[i] for pair in row] for row in rows] for rows in pairs]) for i in (0, 1))

        def per_matrix_qfi(rhos, drhos, cutoff):
            return np.array([_spectral_qfi(rho[None], drho[None], cutoff)[0] for rho, drho in zip(rhos, drhos)])

        monkeypatch.setattr(refsim, "evolve_with_derivative", per_case_evolution)
        monkeypatch.setattr(refsim, "_spectral_qfi", per_matrix_qfi)
        per_case = run_equivalence_suite(**grid)
        # one call per factory: a suite that bypassed the module attribute would compare itself with itself
        assert len(factories) == len(set(factories)) == 3 * 4
        assert len(stacked.cases) == len(per_case.cases) == 3 * 4 * 5 * 2 * 2
        for got, want in zip(stacked.cases, per_case.cases):
            assert repr(got) == repr(want)

    def test_work_is_done_once_per_size_or_factory(self, monkeypatch):
        # the QFI references and circuit bounds depend on the size, r and method alone, so more seeds add no calls;
        # one rotation check serves a factory's every noiseless Q stack, and each spectral QFI call takes one
        # (method, r) stack of len(m_values) snapshots
        calls = {}

        def count(module, name):
            inner, calls[name] = getattr(module, name), []

            def counted(*args, **kwargs):
                calls[name].append(args)
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in [(fisher, "quantum_fisher"), (refsim, "theorem_bound"), (refsim, "rotation_check"),
                             (refsim, "_spectral_qfi")]:
            count(module, name)
        grid = dict(n_values=(1, 2), m_values=(3, 0, 1), r_values=(1.0, 0.9, 1.0))
        for seeds in (1, 3):
            for log in calls.values():
                log.clear()
            report = run_equivalence_suite(seeds=seeds, **grid)
            assert report.all_passed
            assert len(calls["quantum_fisher"]) == len(calls["theorem_bound"]) == 2 * 3
            factories = [args[0] for args in calls["rotation_check"]]
            assert len(factories) == len(set(factories)) == 2 * seeds
            assert [len(args[0]) for args in calls["_spectral_qfi"]] == [3] * (2 * seeds * 2 * 3)
            assert all((c.rotation_dev is not None) == (c.method is Method.Q and c.r == 1.0) for c in report.cases)

    @pytest.mark.parametrize("bad", [-1, MAX_AMPLIFICATIONS + 1, 1.5])
    def test_rejects_bad_counts_up_front(self, bad):
        # n = 9 has no factory: the count error must come before any work
        with pytest.raises(ValueError, match=f"amplification counts .* got {bad!r}$"):
            run_equivalence_suite(n_values=(9,), m_values=(0, bad, 2), seeds=1)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (dict(n_values=(1, 9)), r"^work-register size must lie in \[1, 8\], got 9$"),
            (dict(r_values=(0.9, 1.5)), "got 1.5"),
            # an empty grid has zero cases, which would pass without verifying anything
            (dict(n_values=()), "grid is empty"),
            (dict(m_values=()), "grid is empty"),
            (dict(r_values=()), "grid is empty"),
            (dict(seeds=0), "grid is empty"),
        ],
        ids=["n", "r", "no-n", "no-m", "no-r", "no-seeds"],
    )
    def test_rejects_bad_grid_before_any_evolution(self, monkeypatch, grid, message):
        def no_evolution(*args):
            raise AssertionError("evolved before the grid was checked")

        monkeypatch.setattr(refsim, "evolve_with_derivative", no_evolution)
        with pytest.raises(ValueError, match=message):
            run_equivalence_suite(**{"seeds": 1, **grid})

    def test_fault_injection_is_detected(self):
        report = run_equivalence_suite(
            n_values=(1,), m_values=(1,), r_values=(0.9,), seeds=2, perturb_r=1e-3
        )
        assert not report.all_passed

    def test_strong_noise_grid_passes(self):
        # the evolved state carries r**n_q only to a few 1e-18 absolute, so below MIN_COHERENT_WEIGHT the QFI checks
        # are not made, and exactly there; the deep r = 0.5 cells would fail them on rounding alone
        report = run_equivalence_suite(n_values=(1, 2), m_values=(5, 10, 20, 40), r_values=(0.9, 0.5), seeds=2)
        assert report.n_cases == 64 and report.all_passed
        unresolved = [c.r ** query_count(c.method, c.m) < MIN_COHERENT_WEIGHT for c in report.cases]
        assert any(unresolved) and not all(unresolved)
        for case, skip in zip(report.cases, unresolved):
            qfi_checks = (case.qfi_rel_dev, case.bound_excess, case.bound_rel_gap)
            assert all((dev is None) == skip for dev in qfi_checks)
            assert case.cfi_rel_dev is None or not skip  # the classical check's own cut, 1e-3, lies above this one

    def test_underflowed_references_fail(self):
        # at r = 1e-300 every queried cell's QFI and bound underflow to 0, far below MIN_COHERENT_WEIGHT: those
        # references fail to resolve anything, so their checks are not made, the divisions raise no warning (an
        # error under this suite's filter) and every case passes; the zero-query Q case keeps its absolute checks
        report = run_equivalence_suite(n_values=(1,), r_values=(1e-300,), seeds=1)
        assert len(report.cases) == 12 and report.all_passed
        [checked] = [c for c in report.cases if c.qfi_rel_dev is not None]
        assert (checked.method, checked.m) == (Method.Q, 0) and checked.bound_excess is not None
        assert all(c.bound_excess is None and c.bound_rel_gap is None for c in report.cases if c is not checked)
        assert report.worst("qfi_rel_dev") == checked.qfi_rel_dev


def _case(**devs) -> EquivalenceCase:
    """A noiseless Q case whose deviations are all 0.0 but those given."""
    zero = dict(prob_dev=0.0, qfi_rel_dev=0.0, bound_excess=0.0, bound_rel_gap=0.0, rotation_dev=0.0, cfi_rel_dev=0.0)
    return EquivalenceCase(Method.Q, 1, 1, 1.0, 0.3, 0, **{**zero, **devs})


class TestChecks:
    @pytest.mark.parametrize("name, label, tol", EquivalenceCase.CHECKS, ids=[c[0] for c in EquivalenceCase.CHECKS])
    def test_tolerance_is_the_last_passing_value(self, name, label, tol):
        above = float(np.nextafter(tol, 1))
        assert _case(**{name: tol}).failures == []
        assert _case(**{name: above}).failures == [f"{label} {above:.3e}"]
        assert _case(**{name: None}).passed  # a check not made never fails
        assert _case(**{name: math.nan}).failures == [f"{label} nan"]  # nor is a NaN deviation within tolerance

    def test_worst_is_nan_whatever_the_order(self):
        cases = (_case(qfi_rel_dev=math.nan), _case(qfi_rel_dev=1.0), _case(qfi_rel_dev=None))
        for order in (cases, cases[::-1]):
            assert math.isnan(EquivalenceReport(order).worst("qfi_rel_dev"))
        assert EquivalenceReport(cases[1:]).worst("qfi_rel_dev") == 1.0
        assert EquivalenceReport(cases[2:]).worst("qfi_rel_dev") == 0.0

    def test_every_failure_in_table_order(self):
        case = _case(**{name: 1.0 for name, _, _ in EquivalenceCase.CHECKS})
        assert case.failures == [f"{label} 1.000e+00" for _, label, _ in EquivalenceCase.CHECKS]
        assert not case.passed

    def test_table_tolerances_and_columns(self):
        # no tolerance is loosened, and the table is a class attribute that repr does not show
        assert [(name, tol) for name, _, tol in EquivalenceCase.CHECKS] == [
            ("prob_dev", 1e-10), ("qfi_rel_dev", 1e-8), ("bound_excess", 1e-9), ("rotation_dev", 1e-10),
            ("cfi_rel_dev", 1e-6),
        ]
        assert "CHECKS" not in [f.name for f in dataclasses.fields(EquivalenceCase)]
        assert "CHECKS" not in repr(_case())
        row = EquivalenceReport((_case(),)).as_dicts()[0]
        assert list(row) == [
            "method", "n", "m", "r", "theta", "prob_dev", "qfi_rel_dev", "bound_excess", "rotation_dev", "cfi_rel_dev",
            "status",
        ]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: theorem_bound([1], 1, 0.9), "dimension must be >= 2, got 1"),
        (lambda: run_equivalence_suite(perturb_r=1.0), r"perturbation must lie in \[0, 1\), got 1.0"),
    ],
    ids=["one-dimension", "perturb-one"],
)
def test_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()
