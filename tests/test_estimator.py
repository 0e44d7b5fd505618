import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelab import (
    INFINITE,
    ExperimentConfig,
    MeasurementRecord,
    Method,
    NoiseModel,
    RoundOutcome,
    SystemSize,
    build_eis_schedule,
    crb_curves,
    derive_seed,
    log_likelihood,
    mle_estimate,
    run_experiment,
    sample_record,
    sample_round,
)
from aelab.estimator import _GridLikelihood

sizes = st.one_of(st.integers(min_value=1, max_value=20).map(SystemSize), st.just(INFINITE))


class TestSchedule:
    def test_small_g(self):
        sched = build_eis_schedule(6 / 5, 4, 100, Method.G)
        assert [m for m, _ in sched.rounds] == [0, 1, 1, 1]

    def test_small_q_drops_zero_round(self):
        sched = build_eis_schedule(6 / 5, 4, 100, Method.Q)
        assert [m for m, _ in sched.rounds] == [1, 1, 1]

    def test_full_depth(self):
        sched = build_eis_schedule(6 / 5, 37, 100, Method.G)
        assert sched.rounds[-1] == (590, 100)
        assert len(sched) == 37

    def test_rejects_base(self):
        with pytest.raises(ValueError):
            build_eis_schedule(1.0, 5, 100, Method.G)

    def test_record_rejects_zero_round_for_q(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Method.Q, (RoundOutcome(0, 100, 0),))


class TestLogLikelihood:
    def test_fifty_fifty(self):
        rec = MeasurementRecord(Method.G, (RoundOutcome(0, 100, 50),))
        val = log_likelihood(rec, math.pi / 4, NoiseModel(1.0))
        assert val == pytest.approx(100 * math.log(0.5), rel=1e-12)

    def test_all_hits(self):
        rec = MeasurementRecord(Method.G, (RoundOutcome(0, 100, 100),))
        val = log_likelihood(rec, math.pi / 6, NoiseModel(1.0))
        assert val == pytest.approx(100 * math.log(0.25), rel=1e-12)

    def test_inconsistent_deterministic_round(self):
        # a miss observed where the hit probability is exactly 1
        rec = MeasurementRecord(Method.G, (RoundOutcome(1, 100, 99),))
        assert log_likelihood(rec, math.pi / 6, NoiseModel(1.0)) == -math.inf

    def test_finite_near_boundary_with_noise(self):
        sched = build_eis_schedule(6 / 5, 10, 100, Method.Q)
        rec = sample_record(Method.Q, 0.5, sched, NoiseModel(0.9), SystemSize(4), 3, 0)
        for theta in (1e-9, math.pi / 2 - 1e-9):
            assert math.isfinite(log_likelihood(rec, theta, NoiseModel(0.9), SystemSize(4)))

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(MeasurementRecord(Method.G, ()), 0.3, NoiseModel(0.9))


class TestMle:
    def test_single_round_closed_form(self):
        rec = MeasurementRecord(Method.G, (RoundOutcome(0, 100, 25),))
        theta = mle_estimate(rec, NoiseModel(1.0))
        assert abs(theta - math.pi / 6) < 1e-9

    def test_large_shot_consistency(self):
        rec = MeasurementRecord(Method.G, (RoundOutcome(0, 10_000, 3344),))
        theta = mle_estimate(rec, NoiseModel(1.0))
        assert theta == pytest.approx(math.asin(math.sqrt(0.3344)), abs=1e-8)

    def test_q_estimates_fold_to_lower_branch(self):
        # even query counts cannot tell theta from pi/2 - theta; the smaller
        # angle is the documented deterministic representative
        noise, size = NoiseModel(0.99), SystemSize(20)
        sched = build_eis_schedule(6 / 5, 12, 100, Method.Q)
        theta = math.asin(math.sqrt(1 / 6))
        for rep in range(5):
            rec = sample_record(Method.Q, theta, sched, noise, size, 7, rep)
            est = mle_estimate(rec, noise, size)
            assert est <= math.pi / 4
            assert abs(est - theta) < 0.05

    def test_q_mirror_target_maps_to_representative(self):
        # a target above 1/2 is indistinguishable from its mirror; the
        # estimate lands on the mirror of the truth
        noise, size = NoiseModel(0.99), SystemSize(20)
        sched = build_eis_schedule(6 / 5, 12, 100, Method.Q)
        theta = math.asin(math.sqrt(2 / 3))
        rec = sample_record(Method.Q, theta, sched, noise, size, 7, 0)
        est = mle_estimate(rec, noise, size)
        assert abs(est - (math.pi / 2 - theta)) < 0.05

    def test_mirror_likelihoods_agree(self):
        # the fold really is a tie-break: both branches carry the same likelihood
        noise, size = NoiseModel(0.99), SystemSize(20)
        sched = build_eis_schedule(6 / 5, 12, 100, Method.Q)
        rec = sample_record(Method.Q, 0.4, sched, noise, size, 11, 0)
        est = mle_estimate(rec, noise, size)
        lo = log_likelihood(rec, est, noise, size)
        hi = log_likelihood(rec, math.pi / 2 - est, noise, size)
        assert hi == pytest.approx(lo, rel=1e-12)

    def test_matches_coverage_band(self):
        # estimates concentrate within a few CRB widths of the truth
        noise = NoiseModel(1.0)
        theta = math.asin(math.sqrt(1 / 3))
        trials, misses = 200, 0
        for method in Method:
            sched = build_eis_schedule(6 / 5, 15, 100, method)
            from aelab import query_count

            f_total = sum(shots * 4 * query_count(method, m) ** 2 for m, shots in sched.rounds)
            band = 3 / math.sqrt(f_total)
            for rep in range(trials):
                rec = sample_record(method, theta, sched, noise, INFINITE, 2024, rep)
                est = mle_estimate(rec, noise, INFINITE)
                if abs(est - theta) > band:
                    misses += 1
        assert misses <= 0.01 * 2 * trials


    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(Method),
        r=st.floats(min_value=0.5, max_value=1.0),
        size=sizes,
        rounds=st.integers(min_value=1, max_value=12),
        theta=st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_estimate_is_a_folded_local_maximum(self, method, r, size, rounds, theta, seed):
        noise = NoiseModel(r)
        # method Q drops the zero-amplification round; keep `rounds` rounds either way
        sched = build_eis_schedule(6 / 5, rounds + (method is Method.Q), 100, method)
        rec = sample_record(method, theta, sched, noise, size, seed)
        est = mle_estimate(rec, noise, size)
        assert 0.0 < est < math.pi / 2
        if method is Method.Q:
            assert est <= math.pi / 4
        here = log_likelihood(rec, est, noise, size)
        for side in (est - 1e-6, est + 1e-6):
            if 0.0 < side < math.pi / 2:
                assert log_likelihood(rec, side, noise, size) <= here + 1e-12 * abs(here)
        prefix = _GridLikelihood(method, sched, noise, size).prefix_estimates(rec.outcomes)
        assert est == pytest.approx(prefix[-1], abs=1e-11)

    def test_grid_follows_the_largest_query_count(self):
        # 32 points per period pi/n_q of the deepest round: 16 * (2*590 + 1)
        sched = build_eis_schedule(6 / 5, 37, 100, Method.G)
        grid = _GridLikelihood(Method.G, sched, NoiseModel(0.99), SystemSize(100))
        assert len(grid.theta) == 18_896
        short = build_eis_schedule(6 / 5, 5, 100, Method.G)
        assert len(_GridLikelihood(Method.G, short, NoiseModel(0.99), INFINITE).theta) == 4096

    def test_refuses_schedule_the_grid_cannot_resolve(self):
        # 72 rounds reach n_q = 697,777: silently aliased on any affordable grid
        sched = build_eis_schedule(6 / 5, 72, 100, Method.G)
        rec = MeasurementRecord(Method.G, tuple(RoundOutcome(m, s, s // 2) for m, s in sched.rounds))
        with pytest.raises(ValueError, match="largest supported query count is"):
            mle_estimate(rec, NoiseModel(1.0))


class TestCrbCurves:
    def test_single_round_value(self):
        cfg = ExperimentConfig(
            targets=(0.25,), noise=NoiseModel(1.0), size=INFINITE, rounds=1, repetitions=1
        )
        bounds = crb_curves(cfg, 0.25, Method.G)
        assert bounds.classical[0] == pytest.approx(0.05, rel=1e-12)
        assert bounds.n_q_tot[0] == 100

    def test_weak_noise_matches_noiseless_at_small_depth(self):
        # while r**n_q stays near 1 (here: the single-query prefix) the noisy
        # bound is within a couple percent of the ideal one, then drifts
        cfg_n = ExperimentConfig(targets=(1 / 3,), rounds=8, repetitions=1)
        bounds = crb_curves(cfg_n, 1 / 3, Method.G)
        rel = np.abs(bounds.classical / bounds.noiseless - 1)
        assert rel[0] < 0.02
        assert np.all(np.diff(rel) > 0)  # decay accumulates with depth

    def test_ordering_and_monotonicity(self):
        cfg = ExperimentConfig(targets=(1 / 6,), rounds=25, repetitions=1)
        for method in Method:
            bounds = crb_curves(cfg, 1 / 6, method)
            assert np.all(np.diff(bounds.classical) <= 0)  # information only grows
            assert np.all(bounds.classical >= bounds.quantum * (1 - 1e-12))
            assert np.all(np.diff(bounds.n_q_tot) > 0)


class TestRunExperiment:
    def test_reproducible(self):
        cfg = ExperimentConfig(
            targets=(1 / 3,), rounds=8, repetitions=5, master_seed=31, methods=(Method.G, Method.Q)
        )
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_method_subset_preserves_draws(self):
        both = ExperimentConfig(targets=(1 / 3,), rounds=8, repetitions=4, master_seed=5)
        only_q = ExperimentConfig(
            targets=(1 / 3,), rounds=8, repetitions=4, master_seed=5, methods=(Method.Q,)
        )
        q_rows_both = run_experiment(both).select(Method.Q)
        q_rows_only = run_experiment(only_q).select(Method.Q)
        assert q_rows_both == q_rows_only

    def test_prefix_estimates_match_direct_mle(self):
        cfg = ExperimentConfig(targets=(1 / 6,), rounds=7, repetitions=1, master_seed=13)
        method, ti, rep = Method.G, 0, 0
        sched = build_eis_schedule(cfg.base, cfg.rounds, cfg.shots, method)
        theta = math.asin(math.sqrt(1 / 6))
        rec = sample_record(method, theta, sched, cfg.noise, cfg.size, cfg.master_seed, 0, ti, rep)
        grid = _GridLikelihood(method, sched, cfg.noise, cfg.size)
        prefix_ests = grid.prefix_estimates(rec.outcomes)
        for k in (0, 3, 6):
            short = MeasurementRecord(method, rec.outcomes[: k + 1])
            assert prefix_ests[k] == pytest.approx(
                mle_estimate(short, cfg.noise, cfg.size), abs=1e-11
            )

    def test_round_seeds_reproduce_outcomes(self):
        # the documented derivation rule regenerates the exact draws, so the
        # record sampler and the single-round sampler stay interchangeable
        cfg = ExperimentConfig(targets=(1 / 3,), repetitions=2, master_seed=77)
        theta = math.asin(math.sqrt(1 / 3))
        for code, method in enumerate(Method):
            sched = build_eis_schedule(cfg.base, cfg.rounds, cfg.shots, method)
            assert len(sched) == 37 - code  # the reference schedule
            rec = sample_record(method, theta, sched, cfg.noise, cfg.size, 77, code, 0, 1)
            for j, (m, shots) in enumerate(sched.rounds):
                seed = derive_seed(77, code, 0, 1, j)
                redo = sample_round(method, theta, m, shots, cfg.noise, cfg.size, seed)
                assert redo == rec.outcomes[j]

    def test_efficiency_at_desk_scale(self):
        # the estimator tracks the classical bound once data accumulate
        cfg = ExperimentConfig(
            targets=(1 / 3,),
            noise=NoiseModel(1.0),
            size=INFINITE,
            rounds=15,
            repetitions=200,
            master_seed=2024,
        )
        table = run_experiment(cfg)
        for method in Method:
            rows = table.select(method, 1 / 3)
            for row in rows[-5:]:
                ratio = row.rmse / row.crb_classical
                assert 0.8 <= ratio <= 1.6

    def test_table_shape_and_columns(self):
        cfg = ExperimentConfig(targets=(1 / 3, 1 / 6), rounds=6, repetitions=2, master_seed=1)
        table = run_experiment(cfg)
        assert len(table.rows) == 6 * 2 + 5 * 2  # Q schedule drops one round
        d = table.as_dicts()[0]
        assert set(d) == {
            "method",
            "a",
            "prefix",
            "n_q_tot",
            "rmse",
            "crb_classical",
            "crb_quantum",
            "crb_noiseless",
            "crb_no_amplification",
        }
