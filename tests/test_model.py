import dataclasses
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
from aelab import ExperimentConfig, build_eis_schedule, classical_fisher, classical_fisher_envelope, envelope_peak
from aelab.model import RoundOutcome, decay, derive_seed, draw_hits, sample_round, seed_keys
from aelab.refsim import UnitaryFactory, evolve, measure_probs, rotation_check, run_equivalence_suite, theorem_bound

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

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, np.True_, np.float64(3.0)])
    def test_system_size_rejects(self, n):
        with pytest.raises(ValueError):
            SystemSize(n)

    @pytest.mark.parametrize("n", [np.int64(100), np.int32(3), np.uint8(1)])
    def test_system_size_takes_numpy_integers(self, n):
        # ExperimentConfig's integer rule: any integral type but bool, kept as the int it equals
        size = SystemSize(n)
        assert type(size.n) is int and size == SystemSize(int(n)) and size.inv_d == 2.0 ** -int(n)
        assert repr(size) == repr(SystemSize(int(n)))

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
            ([0, 1.5], [10, 10], "^amplification count must be an integer, got 1.5$"),
            ([0, 1], [10.0, 10.0], "^shot count must be an integer, got 10.0$"),
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
        with pytest.raises(ValueError, match="^hits must be an integer, got 2.5$"):
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
        (ValueError, lambda: seed_keys(1, np.array([0.5])), "^array seed component must be an integer, got 0.5$"),
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
        assert query_count(Method.G, np.int64(3)) == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            query_count(Method.G, -1)

    @pytest.mark.parametrize(
        "m",
        [1.3, 3.0, np.array([1.3]), np.array([0.0, 2.0]), True, np.array([True, False])],
        ids=["1.3", "3.0", "array-1.3", "array-float", "True", "array-bool"],
    )
    @pytest.mark.parametrize("method", list(Method))
    def test_rejects_non_integer_counts(self, method, m):
        # a scalar call would truncate where the array call kept the fraction
        with pytest.raises(ValueError, match="amplification count must be an integer"):
            query_count(method, m)
        with pytest.raises(ValueError, match="amplification count must be an integer"):
            prob_good(method, 0.3, m, NoiseModel(0.9))


    def test_narrow_integers_do_not_wrap(self):
        # 2*m + 1 in a uint8 or int8 wraps; the count is widened to int64 first
        assert query_count(Method.G, np.uint8(200)) == 401
        assert query_count(Method.Q, np.int8(100)) == 200
        assert query_count(Method.G, np.array([200], dtype=np.uint8)).tolist() == [401]
        assert query_count(Method.Q, np.array([100], dtype=np.int8)).tolist() == [200]
        noise = NoiseModel(1.0)
        narrow = prob_good(Method.G, 0.3, np.array([200], dtype=np.uint8), noise)
        assert narrow.tolist() == [prob_good(Method.G, 0.3, 200, noise)]


def _suite(**grid):
    return run_equivalence_suite(**{"n_values": (1,), "m_values": (1,), "r_values": (0.9,), "seeds": 1, **grid})


# every public entry point that takes a count, as a call of the count k that returns a comparable value
COUNT_ENTRY_POINTS = {
    "config-rounds": lambda k: ExperimentConfig(rounds=k).rounds,
    "config-shots": lambda k: ExperimentConfig(shots=k).shots,
    "config-repetitions": lambda k: ExperimentConfig(repetitions=k).repetitions,
    "config-master-seed": lambda k: ExperimentConfig(master_seed=k).master_seed,
    "system-size": lambda k: SystemSize(k).n,
    "eis-rounds": lambda k: build_eis_schedule(6 / 5, k, 10, Method.G).ms.tolist(),
    "eis-shots": lambda k: build_eis_schedule(6 / 5, 3, k, Method.G).shots.tolist(),
    "schedule-m": lambda k: Schedule([0, k], [10, 10]).ms.tolist(),
    "schedule-shots": lambda k: Schedule([0, 1], [10, k]).shots.tolist(),
    "record-hits": lambda k: MeasurementRecord(Method.G, Schedule([0, 1], [10, 10]), [5, k]).hits.tolist(),
    "query-count": lambda k: query_count(Method.G, k),
    "prob-good": lambda k: prob_good(Method.G, 0.3, k, NoiseModel(0.9)),
    "sample-round-m": lambda k: sample_round(Method.G, 0.3, k, 10, NoiseModel(0.9), INFINITE, 7),
    "sample-round-shots": lambda k: sample_round(Method.G, 0.3, 1, k, NoiseModel(0.9), INFINITE, 7),
    "readout-factor": lambda k: readout_factor(k, 0.01),
    "factory-n": lambda k: UnitaryFactory(n=k, theta=0.3).n,
    "evolve-m": lambda k: evolve(Method.G, k, UnitaryFactory(n=1, theta=0.3), 0.9).tolist(),
    "rotation-check-m": lambda k: rotation_check(UnitaryFactory(n=1, theta=0.3), k),
    "bound-n-ops": lambda k: theorem_bound(k, 4, 0.9),
    "bound-d": lambda k: theorem_bound(2, k, 0.9),
    "suite-n": lambda k: _suite(n_values=(k,)).as_dicts(),
    "suite-m": lambda k: _suite(m_values=(k,)).as_dicts(),
    "suite-seeds": lambda k: _suite(seeds=k).as_dicts(),
    "suite-master-seed": lambda k: _suite(master_seed=k).as_dicts(),
    "derive-seed": lambda k: derive_seed(k, 0),
    "seed-keys-array": lambda k: seed_keys(1, [0, k]).tolist(),
    "sample-round-seed": lambda k: sample_round(Method.G, 0.3, 1, 10, NoiseModel(0.9), INFINITE, k),
    "factory-w-seed": lambda k: UnitaryFactory(n=1, theta=0.3, w_seed=k).w_seed,
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
class TestIntegerRule:
    """One rule for every count: an integer of any integral type but bool, widened to a Python int or int64."""

    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"], ids=["bool", "float", "whole-float", "str"])
    def test_refuses_what_is_not_an_integer(self, entry, value):
        with pytest.raises(ValueError, match=f"must be an integer, got {value!r}$"):
            COUNT_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8])
    def test_takes_numpy_integers_as_python_ints(self, entry, kind):
        call = COUNT_ENTRY_POINTS[entry]
        want = call(3)
        got = call(kind(3))
        assert got == want and type(got) is type(want)
        if isinstance(got, RoundOutcome):
            assert all(type(v) is int for v in dataclasses.astuple(got))


# every public entry point that takes a method tag, as a call of the tag
METHOD_ENTRY_POINTS = {
    "query-count": lambda x: query_count(x, 3),
    "prob-good": lambda x: prob_good(x, 0.3, 3, NoiseModel(0.99)),
    "sample-round": lambda x: sample_round(x, 0.3, 1, 10, NoiseModel(0.9), INFINITE, 7),
    "eis-schedule": lambda x: build_eis_schedule(1.2, 12, 100, x),
    "record": lambda x: MeasurementRecord(x, Schedule([1], [10]), [5]),
    "config-methods": lambda x: ExperimentConfig(methods=(Method.G, x)),
    "classical-fisher": lambda x: classical_fisher(x, 0.3, 7.0, NoiseModel(0.99)),
    "envelope": lambda x: classical_fisher_envelope(x, 7.0, NoiseModel(0.99), SystemSize(3)),
    "envelope-peak": lambda x: envelope_peak(x, 0.9, SystemSize(3)),
    "measure-probs": lambda x: measure_probs(np.eye(4) / 4, x),
    "evolve-tuple": lambda x: evolve((Method.G, x), 1, UnitaryFactory(n=1, theta=0.3), 0.9),
}


@pytest.mark.parametrize("entry", METHOD_ENTRY_POINTS)
@pytest.mark.parametrize("tag", ["g", "q", None])
def test_refuses_a_tag_that_is_not_a_method(entry, tag):
    # such a tag used to take one method's formulas, mostly Q's
    with pytest.raises(ValueError, match=f"^method must be a Method, got {tag!r}$"):
        METHOD_ENTRY_POINTS[entry](tag)


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
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, {2**64 - 1}\], got {seed}$"):
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

    def test_zero_dimensional_arrays_are_scalars(self):
        # a 0-d array splits into words like the int it holds, past int64 too
        for seed in (5, 2**63, 2**64 - 1):
            assert derive_seed(np.array(seed, dtype=np.uint64), 3) == derive_seed(seed, 3)
        args = (Method.G, 0.55, 3, 100, NoiseModel(0.93), SystemSize(10))
        assert sample_round(*args, seed=np.array(2**64 - 1, dtype=np.uint64)) == sample_round(*args, seed=2**64 - 1)

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
        with pytest.raises(ValueError, match=rf"^array seed component must lie in \[0, {2**32 - 1}\], got {2**32}$"):
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
