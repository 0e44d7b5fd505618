import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aelab import (
    INFINITE,
    Method,
    NoiseModel,
    SystemSize,
    classical_fisher,
    classical_fisher_envelope,
    curve,
    envelope_peak,
    prob_good,
    quantum_fisher,
    theta_sweep_max,
)


def envelope_q_three_term(n_q: float, r: float, d: float) -> float:
    """The Q envelope written out term by term, as an independent check of the
    rationalized production form.  Only trustworthy while r**n_q is not small
    (the three terms cancel almost completely)."""
    rp = r**n_q
    return (
        4 * n_q**2 * rp
        + 8 * n_q**2 * (d - 1) / d**2 * (1 - rp) ** 2
        - 8 * n_q**2 * (1 - rp) * math.sqrt((d - 1) * (d - 1 + rp) * ((d - 1) * rp + 1)) / d**2
    )


class TestClassicalFisher:
    def test_noiseless_value(self):
        assert classical_fisher(Method.G, math.pi / 4, 1, NoiseModel(1.0)) == pytest.approx(4.0)

    def test_g_hand_value(self):
        # N_q*theta = pi/4 makes sin^2 = cos^2 = 1/2 and both denominators 1/2
        val = classical_fisher(Method.G, math.pi / 8, 2, NoiseModel(0.5))
        assert val == pytest.approx(1.0, rel=1e-14)

    def test_q_hand_value(self):
        # same point on a 2-qubit register: denominators 5/16 and 11/16
        val = classical_fisher(Method.Q, math.pi / 8, 2, NoiseModel(0.5), SystemSize(2))
        assert val == pytest.approx(64 / 55, rel=1e-14)

    def test_noiseless_is_4nq2_generic(self):
        rng = np.random.default_rng(4)
        for theta in rng.uniform(0.01, math.pi / 2 - 0.01, 25):
            for n_q in (1, 2, 7, 33):
                assert classical_fisher(Method.G, theta, n_q, NoiseModel(1.0)) == pytest.approx(
                    4 * n_q**2, rel=1e-9
                )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            classical_fisher(Method.G, 0.0, 1, NoiseModel(0.9))
        with pytest.raises(ValueError):
            classical_fisher(Method.G, 0.3, 0, NoiseModel(0.9))

    def test_envelope_dominates(self):
        rng = np.random.default_rng(11)
        for method in Method:
            size = SystemSize(10)
            noise = NoiseModel(0.97)
            for _ in range(10_000):
                theta = rng.uniform(1e-4, math.pi / 2 - 1e-4)
                n_q = rng.uniform(1.0, 300.0)
                cf = classical_fisher(method, theta, n_q, noise, size)
                env = classical_fisher_envelope(method, n_q, noise, size)
                assert cf <= env * (1 + 1e-9)


class TestEnvelopes:
    def test_g_value(self):
        val = classical_fisher_envelope(Method.G, 100, NoiseModel(0.99))
        assert val == pytest.approx(5359.186994318467, rel=1e-12)

    def test_g_noiseless(self):
        for n_q in (1, 5, 50.5):
            assert classical_fisher_envelope(Method.G, n_q, NoiseModel(1.0)) == pytest.approx(
                4 * n_q**2
            )

    def test_q_collapses_onto_g_at_d2(self):
        size = SystemSize(1)
        for n_q in (1, 10, 100, 1000, 2000):
            for r in (0.9, 0.99):
                env_q = classical_fisher_envelope(Method.Q, n_q, NoiseModel(r), size)
                env_g = classical_fisher_envelope(Method.G, n_q, NoiseModel(r))
                assert env_q == pytest.approx(env_g, rel=1e-13)

    def test_matches_three_term_form(self):
        for n in (1, 2, 5, 10):
            size = SystemSize(n)
            for n_q in (1, 3, 10, 40):
                for r in (0.9, 0.99, 0.999):
                    if r**n_q < 1e-2:
                        continue
                    ref = envelope_q_three_term(n_q, r, 2.0**n)
                    val = classical_fisher_envelope(Method.Q, n_q, NoiseModel(r), size)
                    assert val == pytest.approx(ref, rel=1e-10)

    def test_infinite_size_equals_quantum(self):
        for n_q in (1, 10, 199, 1500):
            noise = NoiseModel(0.99)
            assert classical_fisher_envelope(Method.Q, n_q, noise, INFINITE) == pytest.approx(
                quantum_fisher(n_q, noise, INFINITE), rel=1e-14
            )

    def test_large_d_convergence_pointwise(self):
        # the envelope closes onto the quantum value as the register grows;
        # at 100 qubits the relative gap at moderate decay is ~1e-15 (it
        # scales like sqrt(1/d)), and by 200 qubits it is far below 1e-25
        noise = NoiseModel(0.99)
        gaps = []
        for n in (10, 20, 50, 100, 200):
            q = quantum_fisher(100, noise, SystemSize(n))
            e = classical_fisher_envelope(Method.Q, 100, noise, SystemSize(n))
            gaps.append((q - e) / q)
        assert all(g >= -1e-15 for g in gaps)
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[3] < 1e-13
        assert gaps[4] < 1e-25


class TestQuantumFisher:
    def test_noiseless(self):
        assert quantum_fisher(5, NoiseModel(1.0), SystemSize(3)) == pytest.approx(100.0)

    def test_infinite_limit_value(self):
        val = quantum_fisher(10, NoiseModel(0.9), INFINITE)
        assert val == pytest.approx(400 * 0.9**10, rel=1e-12)

    def test_three_way_equality_at_d2(self):
        size = SystemSize(1)
        for n_q in (1, 10, 100, 1000):
            for r in (0.9, 0.99, 0.999):
                noise = NoiseModel(r)
                q = quantum_fisher(n_q, noise, size)
                eg = classical_fisher_envelope(Method.G, n_q, noise, size)
                eq = classical_fisher_envelope(Method.Q, n_q, noise, size)
                assert q == pytest.approx(eg, rel=1e-13)
                assert q == pytest.approx(eq, rel=1e-13)

    def test_ordering_chain(self):
        for n_q in np.linspace(1, 2000, 200):
            for r in (0.9, 0.99, 0.999):
                noise = NoiseModel(r)
                for size in (SystemSize(1), SystemSize(2), SystemSize(10), SystemSize(100), INFINITE):
                    eg = classical_fisher_envelope(Method.G, n_q, noise, size)
                    eq = classical_fisher_envelope(Method.Q, n_q, noise, size)
                    qf = quantum_fisher(n_q, noise, size)
                    assert eg <= eq * (1 + 1e-9)
                    assert eq <= qf * (1 + 1e-9)

    def test_rescaling_law(self):
        noise = NoiseModel(0.99)
        for c in (0.5, 2.0, 5.0):
            noise_c = NoiseModel(0.99**c)
            for size in (SystemSize(1), SystemSize(10), INFINITE):
                for n_q in (1, 7, 50, 333):
                    for f in (
                        lambda nq, ns: classical_fisher_envelope(Method.G, nq, ns, size),
                        lambda nq, ns: classical_fisher_envelope(Method.Q, nq, ns, size),
                        lambda nq, ns: quantum_fisher(nq, ns, size),
                    ):
                        assert f(n_q, noise_c) == pytest.approx(
                            f(c * n_q, noise) / c**2, rel=1e-9
                        )


class TestBroadcast:
    """One array call equals the elementwise scalar calls, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        method=st.sampled_from(Method),
        r=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        size=st.one_of(st.integers(min_value=1, max_value=200).map(SystemSize), st.just(INFINITE)),
        thetas=st.lists(st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6), min_size=1, max_size=6),
        n_qs=st.lists(st.floats(min_value=1e-3, max_value=5000.0), min_size=1, max_size=6),
        ms=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=6),
    )
    # a numpy scalar's cos(x) ** 2 goes through pow and misses the array result by 1 ulp here
    @example(Method.G, 0.875, INFINITE, [1.4249414685936639], [1273.6317260202404], [0])
    def test_array_call_equals_scalar_calls(self, method, r, size, thetas, n_qs, ms):
        noise = NoiseModel(r)
        # theta along the rows, m or n_q along the columns
        for f, cols in (
            (lambda t, k: prob_good(method, t, k, noise, size), ms),
            (lambda t, k: classical_fisher(method, t, k, noise, size), n_qs),
        ):
            expect = [[f(t, k) for k in cols] for t in thetas]
            assert all(type(v) is float for row in expect for v in row)
            got = f(np.array(thetas)[:, None], np.array(cols))
            np.testing.assert_array_equal(got, expect, strict=True)
        for f in (
            lambda k: classical_fisher_envelope(method, k, noise, size),
            lambda k: quantum_fisher(k, noise, size),
        ):
            expect = [f(k) for k in n_qs]
            assert all(type(v) is float for v in expect)
            np.testing.assert_array_equal(f(np.array(n_qs)), expect, strict=True)

    def test_fully_decayed_is_zero(self):
        # r**n_q underflows to 0: on an infinite register every denominator
        # vanishes too, and the guards return 0 without a division warning
        noise, n_q = NoiseModel(0.5), np.array([2e3, 1e6])
        assert np.all(classical_fisher(Method.Q, 0.3, n_q, noise, INFINITE) == 0.0)
        assert np.all(classical_fisher_envelope(Method.Q, n_q, noise, INFINITE) == 0.0)
        assert np.all(quantum_fisher(n_q, noise, INFINITE) == 0.0)


class TestEnvelopePeak:
    def test_g_closed_form(self):
        loc, val = envelope_peak(Method.G, 0.99)
        assert loc == pytest.approx(-1 / math.log(0.99), rel=1e-14)
        assert val == pytest.approx(4 / (math.e**2 * math.log(0.99) ** 2), rel=1e-14)
        # the peak is a stationary point of the envelope
        assert val >= classical_fisher_envelope(Method.G, loc * 1.001, NoiseModel(0.99))
        assert val >= classical_fisher_envelope(Method.G, loc * 0.999, NoiseModel(0.99))

    def test_q_infinite_closed_form(self):
        loc, val = envelope_peak(Method.Q, 0.99, INFINITE)
        assert loc == pytest.approx(-2 / math.log(0.99), rel=1e-14)
        assert val == pytest.approx(16 / (math.e**2 * math.log(0.99) ** 2), rel=1e-14)

    def test_q_at_d2_matches_g(self):
        loc_g, val_g = envelope_peak(Method.G, 0.99)
        loc_q, val_q = envelope_peak(Method.Q, 0.99, SystemSize(1))
        assert loc_q == pytest.approx(loc_g, abs=1e-5)
        assert val_q == pytest.approx(val_g, rel=1e-9)

    def test_q_finite_d_consistent_with_envelope(self):
        for n in (2, 10, 50):
            loc, val = envelope_peak(Method.Q, 0.99, SystemSize(n))
            env = classical_fisher_envelope(Method.Q, loc, NoiseModel(0.99), SystemSize(n))
            assert val == pytest.approx(env, rel=1e-9)
            # neighbors do not beat the reported peak
            for mult in (0.99, 1.01):
                assert (
                    classical_fisher_envelope(Method.Q, loc * mult, NoiseModel(0.99), SystemSize(n))
                    <= val * (1 + 1e-9)
                )

    def test_large_d_peak_approaches_infinite_case(self):
        loc_inf, val_inf = envelope_peak(Method.Q, 0.99, INFINITE)
        loc, val = envelope_peak(Method.Q, 0.99, SystemSize(100))
        assert loc == pytest.approx(loc_inf, abs=1e-4)
        assert val == pytest.approx(val_inf, rel=1e-9)

    def test_rejects_r_one(self):
        with pytest.raises(ValueError):
            envelope_peak(Method.G, 1.0)


class TestThetaSweep:
    def test_matches_scalar_formula(self):
        # the sweep is the kernel's maximum over the interior grid
        rng = np.random.default_rng(5)
        noise = NoiseModel(0.95)
        size = SystemSize(3)
        grid = np.linspace(0.0, math.pi / 2, 1002)[1:-1]
        for method in Method:
            swept = theta_sweep_max(method, 7, noise, size, grid_points=1000)
            direct = max(classical_fisher(method, t, 7, noise, size) for t in grid)
            assert swept == pytest.approx(direct, rel=1e-12)

    def test_envelope_is_tight(self):
        for method in Method:
            for r in (0.9, 0.99):
                noise = NoiseModel(r)
                for n in (1, 10):
                    size = SystemSize(n)
                    for n_q in (1, 5, 50):
                        env = classical_fisher_envelope(method, n_q, noise, size)
                        peak = theta_sweep_max(method, n_q, noise, size, grid_points=20_000)
                        assert peak <= env * (1 + 1e-9)
                        assert (env - peak) / env < 1e-3  # full 1e5-grid gate in acceptance


class TestCurve:
    def test_quantum_noiseless_values(self):
        c = curve("quantum", NoiseModel(1.0), INFINITE, [1.0, 2.0, 3.0])
        assert np.allclose(c.values, [4.0, 16.0, 36.0])

    def test_envelope_curve_peak_location(self):
        grid = np.arange(1.0, 1001.0)
        c = curve("classical-envelope", NoiseModel(0.99), INFINITE, grid, method=Method.G)
        k = int(np.argmax(c.values))
        assert c.n_q[k] in (99.0, 100.0)
        assert c.values[k] == pytest.approx(5359.2, rel=1e-3)

    def test_classical_bounded_by_envelope(self):
        grid = np.arange(1.0, 301.0)
        noise = NoiseModel(0.99)
        cl = curve("classical", noise, INFINITE, grid, method=Method.G, theta=1 / 6)
        env = curve("classical-envelope", noise, INFINITE, grid, method=Method.G)
        assert np.all(cl.values <= env.values * (1 + 1e-9))
        # oscillation: the classical curve actually moves around
        assert cl.values.std() > 0

    def test_no_amplification_reference(self):
        c = curve("no-amplification", NoiseModel(0.99), INFINITE, [1.0, 10.0, 100.0])
        assert np.allclose(c.values, 4 * 0.99**2)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            curve("quantum", NoiseModel(0.99), INFINITE, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            curve("classical", NoiseModel(0.99), INFINITE, [1.0, 2.0], method=Method.G)
        with pytest.raises(ValueError):
            curve("bogus", NoiseModel(0.99), INFINITE, [1.0, 2.0])
