import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelab import (
    INFINITE,
    EstimationProblem,
    Method,
    NoiseModel,
    RoundOutcome,
    Schedule,
    SystemSize,
    breakeven_qubits,
    derive_seed,
    prob_good,
    prob_pair,
    prob_terms,
    query_count,
    readout_factor,
    sample_round,
)

SIZES = [SystemSize(1), SystemSize(10), SystemSize(100), INFINITE]

thetas = st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6)
survivals = st.floats(min_value=1e-3, max_value=1.0)
amp_counts = st.integers(min_value=0, max_value=2000)


class TestTypes:
    def test_problem_roundtrip(self):
        for a in (2 / 3, 1 / 3, 1 / 6, 1 / 12, 1 / 24, 1 / 48):
            prob = EstimationProblem.from_amplitude(a)
            assert prob.a == pytest.approx(a, rel=1e-15)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.1, 2.0])
    def test_problem_rejects_boundary(self, theta):
        with pytest.raises(ValueError):
            EstimationProblem(theta)

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.0 + 1e-12])
    def test_noise_rejects_bad_r(self, r):
        with pytest.raises(ValueError):
            NoiseModel(r)

    def test_system_size_inv_d(self):
        assert SystemSize(1).inv_d == 0.5
        assert SystemSize(2).inv_d == 0.25
        assert SystemSize(100).inv_d == pytest.approx(7.888609052210118e-31, rel=1e-12)
        assert INFINITE.inv_d == 0.0
        assert INFINITE.is_infinite
        assert SystemSize.infinite() == INFINITE

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_system_size_rejects(self, n):
        with pytest.raises(ValueError):
            SystemSize(n)

    def test_schedule_keeps_duplicates_and_counts_queries(self):
        sched = Schedule(rounds=((0, 100), (1, 100), (1, 100)))
        assert len(sched) == 3
        assert sched.total_queries(Method.G) == 100 * (1 + 3 + 3)
        assert sched.total_queries(Method.Q) == 100 * (0 + 2 + 2)

    def test_round_outcome_validation(self):
        RoundOutcome(m=0, shots=10, hits=10)
        with pytest.raises(ValueError):
            RoundOutcome(m=0, shots=10, hits=11)
        with pytest.raises(ValueError):
            RoundOutcome(m=-1, shots=10, hits=0)


class TestQueryCount:
    def test_values(self):
        assert query_count(Method.G, 0) == 1
        assert query_count(Method.Q, 0) == 0
        assert query_count(Method.Q, 3) == 6
        assert query_count(Method.G, 3) == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            query_count(Method.G, -1)


class TestProbGood:
    def test_noiseless_exact_angle(self):
        # three amplified queries rotate pi/6 to pi/2: certain hit
        assert prob_good(Method.G, math.pi / 6, 1, NoiseModel(1.0), SystemSize(5)) == 1.0

    def test_q_hand_value(self):
        # r^2 = 1/4 survives, floor (3/4)*(3/4) on a 2-qubit register (d = 4)
        p = prob_good(Method.Q, math.pi / 4, 1, NoiseModel(0.5), SystemSize(2))
        assert p == pytest.approx(0.8125, rel=1e-14)

    def test_g_hand_value(self):
        # r^3 = 1/8 survives sin^2(3*pi/4) = 1/2, plus floor 7/16
        p = prob_good(Method.G, math.pi / 4, 1, NoiseModel(0.5))
        assert p == pytest.approx(0.5, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prob_good(Method.G, 0.0, 1, NoiseModel(0.9))
        with pytest.raises(ValueError):
            prob_good(Method.G, math.pi / 2, 1, NoiseModel(0.9))
        with pytest.raises(ValueError):
            prob_good(Method.G, 0.3, -1, NoiseModel(0.9))

    def test_g_independent_of_size(self):
        vals = {prob_good(Method.G, 0.7, 3, NoiseModel(0.9), s) for s in SIZES}
        assert len(vals) == 1

    @given(theta=thetas, m=amp_counts, r=survivals)
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_complementarity(self, theta, m, r):
        noise = NoiseModel(r)
        for method in Method:
            for size in (SystemSize(1), SystemSize(100), INFINITE):
                p0, p1 = prob_pair(method, theta, m, noise, size)
                assert 0.0 <= p1 <= 1.0
                assert p0 + p1 == 1.0

    @given(theta=thetas, m=st.integers(min_value=0, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_noiseless_reduction(self, theta, m):
        for method in Method:
            n_q = query_count(method, m)
            p = prob_good(method, theta, m, NoiseModel(1.0), SystemSize(3))
            assert abs(p - math.sin(n_q * theta) ** 2) <= 1e-15

    @given(theta=thetas, m=st.integers(min_value=0, max_value=500), r=survivals)
    @settings(max_examples=100, deadline=None)
    def test_q_noise_floor(self, theta, m, r):
        for size in (SystemSize(1), SystemSize(10), INFINITE):
            n_q, r_pow, floor = prob_terms(Method.Q, m, NoiseModel(r), size)
            mixed = 1.0 - r**n_q
            assert floor == pytest.approx(mixed * (1.0 - size.inv_d), abs=1e-15)
        # one-qubit register: floor is half the mixed weight; infinite: all of it
        assert prob_terms(Method.Q, m, NoiseModel(r), SystemSize(1))[2] == pytest.approx(
            (1.0 - r ** (2 * m)) / 2, abs=1e-15
        )


class TestSampleRound:
    def test_certain_hit(self):
        out = sample_round(Method.G, math.pi / 6, 1, 100, NoiseModel(1.0), INFINITE, seed=99)
        assert out.hits == 100

    def test_q_zero_round_never_hits(self):
        for seed in (0, 1, 12345):
            out = sample_round(Method.Q, 0.7, 0, 100, NoiseModel(0.37), SystemSize(4), seed=seed)
            assert out.hits == 0

    def test_statistical_agreement(self):
        # 5 sigma band around the closed-form probability
        shots = 1_000_000
        p = prob_good(Method.G, math.pi / 4, 1, NoiseModel(0.5))
        out = sample_round(Method.G, math.pi / 4, 1, shots, NoiseModel(0.5), INFINITE, seed=2718)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(out.hits / shots - p) < 5 * sigma

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_deterministic_in_seed(self, seed):
        args = (Method.Q, 0.55, 3, 250, NoiseModel(0.93), SystemSize(10))
        assert sample_round(*args, seed=seed) == sample_round(*args, seed=seed)

    def test_seed_changes_outcome(self):
        args = (Method.G, 0.55, 3, 1000, NoiseModel(0.93), SystemSize(10))
        hits = {sample_round(*args, seed=s).hits for s in range(20)}
        assert len(hits) > 1


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(42, 0, 1, 2, 3)
        assert a == derive_seed(42, 0, 1, 2, 3)
        others = {derive_seed(42, 0, 1, 2, j) for j in range(50)}
        assert len(others) == 50

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-1)
        with pytest.raises(ValueError):
            derive_seed(1, -2)


class TestReadout:
    def test_factor_values(self):
        assert readout_factor(70, 0.0) == 1.0
        assert readout_factor(1, 0.01) == pytest.approx(0.99, rel=1e-15)
        assert readout_factor(69, 0.01) == pytest.approx(0.4998370298991989, rel=1e-12)

    def test_breakeven_values(self):
        assert 68.0 <= breakeven_qubits(0.01) <= 70.0
        assert breakeven_qubits(0.5) == pytest.approx(1.0, rel=1e-12)
        assert breakeven_qubits(0.1) == pytest.approx(6.578813478960585, rel=1e-12)

    def test_breakeven_consistent_with_factor(self):
        n_star = breakeven_qubits(0.01)
        assert readout_factor(math.floor(n_star), 0.01) > 0.5 > readout_factor(math.ceil(n_star), 0.01)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2])
    def test_breakeven_rejects(self, eps):
        with pytest.raises(ValueError):
            breakeven_qubits(eps)
