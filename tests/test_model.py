import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelab import (
    INFINITE,
    MeasurementRecord,
    Method,
    NoiseModel,
    Schedule,
    SystemSize,
    breakeven_qubits,
    prob_good,
    prob_terms,
    query_count,
    readout_factor,
)
from aelab.model import RoundOutcome, decay, derive_seed, draw_hits, sample_round, seed_keys

SIZES = [SystemSize(1), SystemSize(10), SystemSize(100), INFINITE]

thetas = st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6)
survivals = st.floats(min_value=1e-3, max_value=1.0)
amp_counts = st.integers(min_value=0, max_value=2000)


class TestTypes:
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

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_system_size_rejects(self, n):
        with pytest.raises(ValueError):
            SystemSize(n)

    def test_schedule_keeps_duplicates_and_counts_queries(self):
        ms = [0, 1, 1]
        sched = Schedule(ms, [100, 100, 100])
        ms[0] = 5  # the schedule holds its own copy
        assert len(sched) == 3
        assert sched.ms.tolist() == [0, 1, 1] and sched.shots.tolist() == [100, 100, 100]
        for column in (sched.ms, sched.shots):
            assert column.dtype == np.int64 and not column.flags.writeable
        assert query_count(Method.G, sched.ms).tolist() == [1, 3, 3]
        assert query_count(Method.Q, sched.ms).tolist() == [0, 2, 2]

    @pytest.mark.parametrize(
        "ms, shots, message",
        [
            ([0, -1], [10, 10], "amplification count must be >= 0, got -1"),
            ([0, 1], [10, 0], "shot count must be >= 1, got 0"),
            ([0, 1.5], [10, 10], "must be a 1-d sequence of integers"),
            ([0, 1], [10.0, 10.0], "must be a 1-d sequence of integers"),
            ([[0, 1]], [[10, 10]], "must be a 1-d sequence of integers"),
            ([0, 1], [10], "one length, got 2 and 1"),
        ],
        ids=["negative-m", "zero-shots", "float-m", "float-shots", "2-d", "lengths"],
    )
    def test_schedule_refuses_bad_counts(self, ms, shots, message):
        with pytest.raises(ValueError, match=message):
            Schedule(ms, shots)

    def test_round_outcome_validation(self):
        # a round outcome is a plain view of a record's columns; the record and its schedule check the counts
        def record(m, shots, hits):
            return MeasurementRecord(Method.G, Schedule([0, m], [10, shots]), [5, hits])

        assert record(0, 10, 10).hits.tolist() == [5, 10]
        assert record(0, 10, 10).outcomes == (RoundOutcome(0, 10, 5), RoundOutcome(m=0, shots=10, hits=10))
        with pytest.raises(ValueError, match=r"hits must lie in \[0, 10\], got 11"):
            record(0, 10, 11)
        with pytest.raises(ValueError, match=r"hits must lie in \[0, 10\], got -1"):
            record(0, 10, -1)
        with pytest.raises(ValueError, match="amplification count must be >= 0, got -1"):
            record(-1, 10, 0)
        with pytest.raises(ValueError, match="must be a 1-d sequence of integers"):
            record(0, 10, 2.5)

    @pytest.mark.parametrize("hits", [[5], [5, 6, 7], []], ids=["short", "long", "empty"])
    def test_record_refuses_hits_of_another_length(self, hits):
        with pytest.raises(ValueError, match=f"hits must have the schedule's length 2, got {len(hits)}"):
            MeasurementRecord(Method.G, Schedule([0, 1], [10, 10]), hits)

    def test_record_of_no_rounds(self):
        # written MeasurementRecord(method, ()): an empty schedule and hits column
        empty = MeasurementRecord(Method.G, ())
        assert len(empty.schedule) == 0 and empty.hits.tolist() == [] and empty.outcomes == ()


@pytest.mark.parametrize(
    "error, call, message",
    [
        (TypeError, lambda: seed_keys(1, np.array([0.5])), "seed components must be integers"),
        (ValueError, lambda: sample_round(Method.G, 0.5, 1, 0, NoiseModel(0.9), INFINITE, 7),
         "shot count must be >= 1, got 0"),
        (ValueError, lambda: readout_factor(0, 0.01), "qubit count must be >= 1"),
        (ValueError, lambda: readout_factor(1, 1.0), r"readout error must lie in \[0, 1\)"),
    ],
    ids=["seed-key-float", "zero-shots", "no-qubits", "eps-one"],
)
def test_refuses(error, call, message):
    with pytest.raises(error, match=message):
        call()


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

    @given(theta=thetas, ms=st.lists(amp_counts, min_size=1, max_size=8), r=survivals)
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_complementarity(self, theta, ms, r):
        # one array call over m; the miss probability, written out from its
        # own closed form, complements the hit probability to within rounding
        noise = NoiseModel(r)
        for method in Method:
            for size in (SystemSize(1), SystemSize(100), INFINITE):
                p1 = prob_good(method, theta, np.array(ms), noise, size)
                assert np.all((0.0 <= p1) & (p1 <= 1.0))
                n_q, r_pow, floor = prob_terms(method, np.array(ms), noise, size)
                _, mixed = decay(r, n_q)
                p0 = r_pow * np.cos(n_q * theta) ** 2 + (mixed - floor)
                assert np.all(np.abs(p0 + p1 - 1.0) <= 1e-15)

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi / 2),
        m=st.integers(min_value=0, max_value=4999),
        r=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        size=st.one_of(st.integers(min_value=1, max_value=2000).map(SystemSize), st.just(INFINITE)),
    )
    @settings(max_examples=300, deadline=None)
    def test_unclipped_hit_probability_is_never_negative(self, theta, m, r, size):
        # why p1_from_sin2 clips above only: R >= 0, sin^2 >= 0 and the floor lies in [-0.0, 1]
        for method in Method:
            n_q, r_pow, floor = prob_terms(method, m, NoiseModel(r), size)
            for s2 in (0.0, np.square(np.sin(n_q * theta))):
                assert r_pow * s2 + floor >= 0.0

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        args = (Method.G, 0.55, 3, 100, NoiseModel(0.93), SystemSize(10))
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            sample_round(*args, seed=seed)

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
        with pytest.raises(ValueError):
            seed_keys(1, 0, np.array([3, -2]))

    @given(
        master=st.integers(min_value=0, max_value=2**80 - 1),
        prefix=st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=3),
        paths=st.integers(min_value=1, max_value=6).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=k, max_size=k),
                min_size=1,
                max_size=4,
            )
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_keys_equal_seed_sequence(self, master, prefix, paths):
        # scalars split into SeedSequence's words; an array component is one
        # word per path, below 2**32
        keys = seed_keys(master, *prefix, *np.array(paths, dtype=np.int64).T)
        assert keys.dtype == np.uint64 and keys.shape == (len(paths),)
        for key, path in zip(keys.tolist(), paths):
            expected = int(np.random.SeedSequence([master, *prefix, *path]).generate_state(1, np.uint64)[0])
            assert derive_seed(master, *prefix, *path) == expected
            assert key == expected
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            seed_keys(master, *prefix, np.array([2**32]))


class TestDrawHits:
    @given(
        draws=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.integers(min_value=1, max_value=1000),
                st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_reset_draw_equals_fresh_generator(self, draws):
        # the draws follow one another on one reset generator
        keys, shots, p1 = zip(*draws)
        hits = draw_hits(np.array(shots), np.array(p1), np.array(keys, dtype=np.uint64))
        for h, (key, n, p) in zip(hits.tolist(), draws):
            assert h == np.random.Generator(np.random.Philox(key=key)).binomial(n, p)


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

    @pytest.mark.parametrize("eps", [1e-320, 5e-324, 3e-309])
    def test_breakeven_refuses_an_overflowing_register(self, eps):
        # log(1/2) / log1p(-eps) is past the largest float here
        with pytest.raises(ValueError, match="beyond the largest float"):
            breakeven_qubits(eps)
        assert math.isfinite(breakeven_qubits(1e-308))
