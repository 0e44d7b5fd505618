import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aelab import (
    INFINITE,
    ExperimentConfig,
    MeasurementRecord,
    Method,
    NoiseModel,
    Schedule,
    SystemSize,
    build_eis_schedule,
    crb_curves,
    log_likelihood,
    mle_estimate,
    run_experiment,
    sample_record,
)
from aelab import estimator
from aelab.estimator import _METHOD_CODE, ROOT_TOL, _GridLikelihood, _loglik, sample_hits
from aelab.model import derive_seed, hit_probability, sample_round

sizes = st.one_of(st.integers(min_value=1, max_value=20).map(SystemSize), st.just(INFINITE))

# odd shots: no round has hits == misses, so G's likelihood never ties exactly with its mirror
HALF_GRID_SHOTS = 99
half_grid_cases = dict(
    r=st.floats(min_value=0.9, max_value=1.0),
    size=st.sampled_from([SystemSize(2), SystemSize(3), SystemSize(100), INFINITE]),
    rounds=st.integers(min_value=2, max_value=20),
    hits=st.lists(st.integers(min_value=0, max_value=HALF_GRID_SHOTS), min_size=20, max_size=20),
)


def one_round(method: Method, m: int, shots: int, hits: int) -> MeasurementRecord:
    """The record of a single round."""
    return MeasurementRecord(method, Schedule([m], [shots]), [hits])


def random_record(method: Method, rounds: int, hits) -> MeasurementRecord:
    """``rounds`` rounds of the base-6/5 schedule (Q's m = 0 round dropped) with the first ``rounds`` hits."""
    sched = build_eis_schedule(6 / 5, rounds + (method is Method.Q), HALF_GRID_SHOTS, method)
    return MeasurementRecord(method, sched, hits[:rounds])


def full_grid_estimate(record: MeasurementRecord, noise: NoiseModel, size: SystemSize) -> float:
    """The estimate the long way: the log-likelihood at every point of the
    engine's grid over (0, pi/2), its first argmax, the engine's bracket
    refinement, and the fold onto (0, pi/4] for Q."""
    grid = _GridLikelihood(record.method, record.schedule, noise, size)
    hits, misses = record.hits.astype(float), (record.schedule.shots - record.hits).astype(float)
    center = grid.theta[np.argmax(_loglik(grid.theta, grid.terms, hits, misses))]
    bracket = np.array([center]), hits[None], misses[None], np.zeros(1, int), np.array([len(hits) - 1])
    est = float(grid._refine(*bracket)[0])
    return min(est, math.pi / 2 - est) if record.method is Method.Q else est


def full_scan(grid: _GridLikelihood, hits, misses, ends) -> list[int]:
    """The unpruned grid scan: every round accumulates over the whole grid,
    and the argmax after each round in ``ends`` is taken over all of it."""
    acc = np.zeros_like(grid._logs[0][0])
    tmp = np.empty_like(acc)
    best = []
    for k, ((lp1, lp0), h, m) in enumerate(zip(grid._logs, hits, misses)):
        if h:
            acc += np.multiply(lp1, h, out=tmp)
        if m:
            acc += np.multiply(lp0, m, out=tmp)
        if k in ends:
            best.append(int(np.argmax(acc)))
    return best


def full_scan_fit(grid: _GridLikelihood, hits, ends) -> np.ndarray:
    """``grid.fit`` with :func:`full_scan` in place of the engine's scan: the
    engine's refinement of every (record, end) bracket in one batch, and Q's fold."""
    hits, ends = np.asarray(hits, dtype=float), np.asarray(ends)
    misses = grid._shots - hits
    centers = grid.theta[[full_scan(grid, h, m, set(ends.tolist())) for h, m in zip(hits, misses)]].ravel()
    rec, end = np.divmod(np.arange(len(centers)), len(ends))
    est = grid._refine(centers, hits, misses, rec, ends[end]).reshape(len(hits), len(ends))
    return np.minimum(est, math.pi / 2 - est) if grid.method is Method.Q else est


def dense_slopes(theta, terms, hits, misses):
    """First two theta-derivatives of the log-likelihood of the rounds along
    the last axis, every round evaluated; zero counts contribute exactly zero,
    so rounds beyond a prefix are masked out by zeroing their counts."""
    n_q, r_pow, floor = terms
    x = n_q * np.asarray(theta)[..., None]
    p1 = hit_probability(x, r_pow, floor)
    has1, has0 = hits > 0, misses > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = np.where(has1, hits / p1, 0.0)
        w0 = np.where(has0, misses / (1.0 - p1), 0.0)
        curvature = np.where(has1, w1 / p1, 0.0) + np.where(has0, w0 / (1.0 - p1), 0.0)
    dp1 = r_pow * n_q * np.sin(2.0 * x)
    d2p1 = 2.0 * r_pow * n_q**2 * np.cos(2.0 * x)
    return np.sum((w1 - w0) * dp1, axis=-1), np.sum((w1 - w0) * d2p1 - curvature * dp1**2, axis=-1)


def dense_refine(grid: _GridLikelihood, centers, hits, misses) -> np.ndarray:
    """The refinement with every bracket evaluated over all rounds: ``hits``/
    ``misses`` hold one row per bracket, zeroed after its end.  The same
    bracket ends, sign tests, safeguarded Newton steps and stopping rules as
    the engine's, on :func:`dense_slopes`."""
    lo = np.maximum(centers - grid._step, 1e-12)
    hi = np.minimum(centers + grid._step, math.pi / 2 - 1e-12)
    d_lo, d_hi = dense_slopes(np.stack([lo, hi]), grid.terms, hits, misses)[0]
    out = np.where(d_hi >= 0.0, hi, lo)
    idx = np.flatnonzero((d_lo > 0.0) & (d_hi < 0.0))
    x, lo, hi, hits, misses = centers[idx], lo[idx], hi[idx], hits[idx], misses[idx]
    step = prev = hi - lo
    for _ in range(estimator.MAX_ROOT_STEPS):
        f, fp = dense_slopes(x, grid.terms, hits, misses)
        lo = np.where(f > 0.0, x, lo)
        hi = np.where(f < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / fp
            fast = np.abs(newton - x) <= np.maximum(ROOT_TOL, 0.5 * np.abs(prev))
        nxt = np.where((newton >= lo) & (newton <= hi) & fast, newton, 0.5 * (lo + hi))
        prev, step = step, nxt - x
        root = f == 0.0
        done = root | (np.abs(step) <= ROOT_TOL)
        out[idx[done]] = np.where(root, x, nxt)[done]
        keep = ~done
        if not keep.any():
            return out
        idx, x, lo, hi, step, prev = idx[keep], nxt[keep], lo[keep], hi[keep], step[keep], prev[keep]
        hits, misses = hits[keep], misses[keep]
    out[idx] = 0.5 * (lo + hi)
    return out


class TestSchedule:
    def test_small_g(self):
        sched = build_eis_schedule(6 / 5, 4, 100, Method.G)
        assert sched.ms.tolist() == [0, 1, 1, 1]

    def test_small_q_drops_zero_round(self):
        sched = build_eis_schedule(6 / 5, 4, 100, Method.Q)
        assert sched.ms.tolist() == [1, 1, 1]

    def test_full_depth(self):
        sched = build_eis_schedule(6 / 5, 37, 100, Method.G)
        assert (sched.ms[-1], sched.shots[-1]) == (590, 100)
        assert len(sched) == 37

    def test_rejects_base(self):
        with pytest.raises(ValueError):
            build_eis_schedule(1.0, 5, 100, Method.G)

    def test_record_rejects_zero_round_for_q(self):
        with pytest.raises(ValueError):
            one_round(Method.Q, 0, 100, 0)


class TestLogLikelihood:
    def test_fifty_fifty(self):
        rec = one_round(Method.G, 0, 100, 50)
        val = log_likelihood(rec, math.pi / 4, NoiseModel(1.0))
        assert val == pytest.approx(100 * math.log(0.5), rel=1e-12)

    def test_all_hits(self):
        rec = one_round(Method.G, 0, 100, 100)
        val = log_likelihood(rec, math.pi / 6, NoiseModel(1.0))
        assert val == pytest.approx(100 * math.log(0.25), rel=1e-12)

    def test_inconsistent_deterministic_round(self):
        # a miss observed where the hit probability is exactly 1
        rec = one_round(Method.G, 1, 100, 99)
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
        rec = one_round(Method.G, 0, 100, 25)
        theta = mle_estimate(rec, NoiseModel(1.0))
        assert abs(theta - math.pi / 6) < 1e-9

    def test_large_shot_consistency(self):
        rec = one_round(Method.G, 0, 10_000, 3344)
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

            f_total = int(np.sum(sched.shots * 4 * query_count(method, sched.ms) ** 2))
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
        if method is Method.Q:
            # the fold maps onto a mirror maximum of equal likelihood; the
            # absolute term covers a log-likelihood of exactly 0
            mirror = log_likelihood(rec, math.pi / 2 - est, noise, size)
            assert mirror == pytest.approx(here, rel=1e-12, abs=1e-15)
        grid = _GridLikelihood(method, sched, noise, size)
        prefix = grid.fit(rec.hits[None], range(len(sched)))[0]
        assert est == prefix[-1]  # one fit routine: the last prefix is the estimate, bit for bit

    @settings(max_examples=60, deadline=None)
    @given(method=st.sampled_from(Method), **half_grid_cases)
    def test_half_grid_matches_a_full_grid_scan(self, method, r, size, rounds, hits):
        rec = random_record(method, rounds, hits)
        est = mle_estimate(rec, NoiseModel(r), size)
        assert est == pytest.approx(full_grid_estimate(rec, NoiseModel(r), size), abs=1e-10)
        if method is Method.Q:
            assert est <= math.pi / 4

    @settings(max_examples=60, deadline=None)
    @given(**half_grid_cases)
    def test_g_swapping_hits_and_misses_mirrors_the_estimate(self, r, size, rounds, hits):
        # odd query counts: p1(pi/2 - theta) = 1 - p1(theta)
        rec = random_record(Method.G, rounds, hits)
        swapped = MeasurementRecord(Method.G, rec.schedule, rec.schedule.shots - rec.hits)
        est = mle_estimate(rec, NoiseModel(r), size)
        mirror = math.pi / 2 - mle_estimate(swapped, NoiseModel(r), size)
        assert mirror == pytest.approx(est, abs=1e-10)

    @pytest.mark.parametrize("r", [1.0, 0.95])
    def test_edge_pinned_maximum_is_the_edge(self, r):
        # near pi/2 log(p1) is flat to rounding within ~1e-8, so only the derivative's sign finds this edge
        def estimate(hits):
            rec = MeasurementRecord(Method.G, Schedule([0, 1], [99, 99]), [hits, hits])
            return mle_estimate(rec, NoiseModel(r), SystemSize(2))

        assert estimate(99) == math.pi / 2 - 1e-12
        assert estimate(0) == 1e-12

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
        rec = MeasurementRecord(Method.G, sched, sched.shots // 2)
        with pytest.raises(ValueError, match="largest supported query count is"):
            mle_estimate(rec, NoiseModel(1.0))

    def test_refuses_a_record_no_grid_angle_can_produce(self):
        # at r = 0.5 a deep Q round's r**n_q underflows to 0, so its hit probability (1 - 2**-100) rounds to
        # exactly 1 at every angle, and a miss there makes the log-likelihood -inf on the whole grid
        noise, size = NoiseModel(0.5), SystemSize(100)
        sched = build_eis_schedule(6 / 5, 37, 1, Method.Q)
        hits = np.random.default_rng(1).integers(0, 1, 36, endpoint=True)
        rec = MeasurementRecord(Method.Q, sched, hits)
        assert log_likelihood(rec, 0.3, noise, size) == -math.inf
        with pytest.raises(ValueError, match="no grid angle can produce the record"):
            mle_estimate(rec, noise, size)
        # every longer prefix of an impossible one is impossible too, so the last end decides
        grid = _GridLikelihood(Method.Q, sched, noise, size)
        counts = np.stack([sched.shots, hits])  # an all-hit record, which every angle can produce, and the one above
        with pytest.raises(ValueError, match="no grid angle can produce the record"):
            grid.fit(counts, range(len(sched)))
        assert grid.fit(counts, [0, 5]).shape == (2, 2)


class TestLikelihoodTables:
    @pytest.mark.parametrize("rounds", [15, 37])
    @pytest.mark.parametrize("size", [SystemSize(2), SystemSize(100), INFINITE], ids=["2q", "100q", "inf"])
    @pytest.mark.parametrize("r", [0.9, 0.99, 1.0])
    @pytest.mark.parametrize("method", list(Method))
    def test_tables_match_the_closed_form(self, method, r, size, rounds):
        # compared in probability space: where p1 rounds to within ulps of 1 log1p(-p1) is ill-conditioned,
        # and at r = 1 an exact zero of p1 can come out of the rounding as a tiny positive value
        grid = _GridLikelihood(method, build_eis_schedule(6 / 5, rounds, 100, method), NoiseModel(r), size)
        half = len(grid.theta) // 2
        assert grid.theta[half - 1] < math.pi / 4 < grid.theta[half]
        n_q, r_pow, floor = grid.terms
        for k, (lp1, lp0) in enumerate(grid._logs):
            assert len(lp1) == (len(grid.theta) if method is Method.G else half)  # Q's rows stop at pi/4
            p1 = hit_probability(n_q[k] * grid.theta[: len(lp1)], r_pow[k], floor[k])
            assert np.max(np.abs(np.exp(lp1) - p1)) <= 1e-12
            assert np.max(np.abs(np.exp(lp0) - (1.0 - p1))) <= 1e-12
            if method is Method.G:  # the upper half mirrors the lower with hit and miss exchanged
                assert np.array_equal(lp1[half:], lp0[half - 1 :: -1])
                assert np.array_equal(lp0[half:], lp1[half - 1 :: -1])

    @pytest.mark.parametrize("ends", [[9, 9], [9, 3], [12], [10], [-1], [], [2.0], [[1, 2]]])
    def test_fit_refuses_ends_outside_the_schedule(self, ends):
        sched = build_eis_schedule(6 / 5, 10, 100, Method.G)
        grid = _GridLikelihood(Method.G, sched, NoiseModel(0.99), SystemSize(100))
        hits = np.tile(np.arange(40.0, 80.0, 4.0), (2, 1))
        every = grid.fit(hits, range(10))
        assert np.array_equal(grid.fit(hits, [3, 9]), every[:, [3, 9]])
        with pytest.raises(ValueError, match="strictly increasing round indices in \\[0, 10\\)"):
            grid.fit(hits, ends)


class TestRefinement:
    @staticmethod
    def cell_fit(method):
        """A run_experiment cell's grid and its estimates at every prefix."""
        cfg = ExperimentConfig(rounds=14, repetitions=8, master_seed=23)
        sched = build_eis_schedule(cfg.base, cfg.rounds, cfg.shots, method)
        grid = _GridLikelihood(method, sched, cfg.noise, cfg.size)
        cell = (cfg.master_seed, _METHOD_CODE[method], 2, np.arange(cfg.repetitions))
        hits = sample_hits(method, math.asin(math.sqrt(1 / 6)), sched, cfg.noise, cfg.size, *cell)
        return grid, grid.fit(hits, range(len(sched)))

    @pytest.mark.parametrize("method", list(Method))
    def test_refine_blocks_leave_every_estimate_unchanged(self, method, monkeypatch):
        # the default block holds a whole cell here (8 records, at most 105 live terms each); a block of one term holds
        # one bracket, one of 40 a few whole ones: each bracket's refinement must not depend on its neighbours
        _, whole = self.cell_fit(method)
        for block in (1, 40):
            monkeypatch.setattr(estimator, "REFINE_BLOCK", block)
            _, blocked = self.cell_fit(method)
            assert blocked.tobytes() == whole.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(Method),
        r=st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=1.0)),
        size=st.sampled_from([SystemSize(2), SystemSize(3), SystemSize(100), INFINITE]),
        rounds=st.integers(min_value=1, max_value=37),
        kind=st.sampled_from(["sampled", "all hits", "all misses"]),
        theta=st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_live_terms_match_the_dense_refinement(self, method, r, size, rounds, kind, theta, seed):
        # every prefix of one record, refined over its live rounds and over all rounds with the rest zeroed:
        # only the order of the per-bracket sums differs, and an edge-pinned bracket returns the same edge
        noise = NoiseModel(r)
        sched = build_eis_schedule(6 / 5, rounds + (method is Method.Q), 100, method)
        grid = _GridLikelihood(method, sched, noise, size)
        if kind == "sampled":
            hits = sample_hits(method, theta, sched, noise, size, seed).astype(float)
        else:
            hits = np.full(rounds, 100.0 if kind == "all hits" else 0.0)
        misses = 100.0 - hits
        ends = np.arange(rounds)
        centers = grid.theta[full_scan(grid, hits, misses, set(ends.tolist()))]
        assume(np.isfinite(_loglik(centers[-1], grid.terms, hits, misses)))  # else fit refuses the record
        live = grid._refine(centers, hits[None], misses[None], np.zeros(rounds, dtype=int), ends)
        upto = ends <= ends[:, None]
        dense = dense_refine(grid, centers, hits * upto, misses * upto)
        assert np.max(np.abs(live - dense)) <= 2 * ROOT_TOL
        lo, hi = np.maximum(centers - grid._step, 1e-12), np.minimum(centers + grid._step, math.pi / 2 - 1e-12)
        edges = (dense == lo) | (dense == hi)
        assert np.array_equal(live[edges], dense[edges])

    @pytest.mark.parametrize("method", list(Method))
    def test_unconverged_brackets_return_within_a_grid_step(self, method, monkeypatch):
        # after one root step a bracket still open returns the midpoint of what is left of it
        grid, converged = self.cell_fit(method)
        monkeypatch.setattr(estimator, "MAX_ROOT_STEPS", 1)
        _, capped = self.cell_fit(method)
        assert not np.array_equal(capped, converged)
        assert np.max(np.abs(capped - converged)) <= grid._step


class TestPrunedScan:
    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(Method),
        r=st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=1.0)),
        size=st.sampled_from([SystemSize(2), SystemSize(3), SystemSize(100), INFINITE]),
        rounds=st.integers(min_value=1, max_value=37),
        shots=st.one_of(st.sampled_from([1, 2, 100, 1_000_000]), st.integers(min_value=1, max_value=1_000_000)),
        kind=st.sampled_from(["sampled", "uniform", "all hits", "all misses", "even split"]),
        theta=st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
        seed=st.integers(min_value=0, max_value=2**32),
        end=st.integers(min_value=0, max_value=36),
    )
    def test_matches_the_full_grid_scan(self, method, r, size, rounds, shots, kind, theta, seed, end):
        # the argmax at every prefix, as fit(..., range(rounds)) asks, and at one end, as mle_estimate asks
        noise = NoiseModel(r)
        sched = build_eis_schedule(6 / 5, rounds + (method is Method.Q), shots, method)
        grid = _GridLikelihood(method, sched, noise, size)
        if kind == "sampled":
            hits = sample_hits(method, theta, sched, noise, size, seed).astype(float)
        elif kind == "uniform":
            hits = np.random.default_rng(seed).integers(0, shots, size=rounds, endpoint=True).astype(float)
        else:
            hits = np.full(rounds, {"all hits": shots, "all misses": 0, "even split": shots // 2}[kind], dtype=float)
        misses = shots - hits
        for ends in (set(range(rounds)), {end % rounds}):
            assert grid._scan(hits, misses, ends) == full_scan(grid, hits, misses, ends)

    @pytest.mark.parametrize("shots", [2, 100, 1_000_000])
    def test_rounding_alone_decides_a_zero_slack_bound(self, shots):
        # at r = 0.5, R = r**n_q is below 1e-17 from round 20 on, so every G grid point has p1 = 1/2 exactly;
        # rounds with hits = misses then add exactly their saturated term everywhere, the bound's slack is zero,
        # and G's mirror points tie up to rounding: only the prune margin keeps the argmax (and c) in the window
        grid = _GridLikelihood(Method.G, build_eis_schedule(6 / 5, 37, shots, Method.G), NoiseModel(0.5), INFINITE)
        hits = np.full(37, shots / 2)
        for ends in (set(range(37)), {36}):
            assert grid._scan(hits, hits, ends) == full_scan(grid, hits, hits, ends)

    def test_experiment_cells_match_the_full_grid_scan(self):
        # run_experiment's RMSE, bit for bit, from estimates of the full-grid scan, the refinement and Q's fold;
        # each cell is fitted alone here, where run_experiment fits every target of a method in one call
        cfg = ExperimentConfig(targets=(2 / 3, 1 / 6, 1 / 48), rounds=14, repetitions=8, master_seed=19)
        table = run_experiment(cfg)
        for method in cfg.methods:
            sched = build_eis_schedule(cfg.base, cfg.rounds, cfg.shots, method)
            grid = _GridLikelihood(method, sched, cfg.noise, cfg.size)
            for ti, a in enumerate(cfg.targets):
                theta = math.asin(math.sqrt(a))
                cell = (cfg.master_seed, _METHOD_CODE[method], ti, np.arange(cfg.repetitions))
                hits = sample_hits(method, theta, sched, cfg.noise, cfg.size, *cell)
                estimates = full_scan_fit(grid, hits, range(len(sched)))
                rmse = np.sqrt(np.mean((estimates - theta) ** 2, axis=0))
                assert [row.rmse for row in table.select(method, a)] == rmse.tolist()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExperimentConfig(rounds=0), "rounds, shots and repetitions must all be >= 1"),
        (lambda: ExperimentConfig(targets=(1.0,)), r"strictly inside \(0, 1\)"),
        (lambda: ExperimentConfig(methods=()), "at least one method is required"),
        (lambda: mle_estimate(MeasurementRecord(Method.G, ()), NoiseModel(0.99)), "no rounds to fit"),
    ],
    ids=["no-rounds", "target-one", "no-methods", "empty-record"],
)
def test_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "field, value",
    [("rounds", 5.5), ("rounds", 5.0), ("shots", 100.0), ("repetitions", 2.5), ("repetitions", True),
     ("master_seed", 1.5), ("master_seed", False), ("shots", "100")],
    ids=["rounds-float", "rounds-whole-float", "shots-float", "reps-float", "reps-true", "seed-float",
         "seed-false", "shots-str"],
)
def test_config_refuses_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        ExperimentConfig(**{field: value})
    assert getattr(ExperimentConfig(**{field: np.int64(3)}), field) == 3


class TestRecordColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(Method),
        r=st.floats(min_value=0.5, max_value=1.0),
        size=sizes,
        rounds=st.integers(min_value=1, max_value=20),
        theta=st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_outcomes_reproduce_the_columns(self, method, r, size, rounds, theta, seed, data):
        # a sampled record and one of random counts: each outcome is round k's m, shots and hits
        sched = build_eis_schedule(6 / 5, rounds + (method is Method.Q), 1 + seed % 200, method)
        hits = [data.draw(st.integers(min_value=0, max_value=n)) for n in sched.shots.tolist()]
        sampled = sample_record(method, theta, sched, NoiseModel(r), size, seed)
        for rec in (sampled, MeasurementRecord(method, sched, hits)):
            assert [oc.m for oc in rec.outcomes] == sched.ms.tolist()
            assert [oc.shots for oc in rec.outcomes] == sched.shots.tolist()
            assert [oc.hits for oc in rec.outcomes] == rec.hits.tolist()
            assert rec.schedule is sched and rec.hits.dtype == np.int64 and not rec.hits.flags.writeable


class TestCrbCurves:
    def test_single_round_value(self):
        cfg = ExperimentConfig(
            targets=(0.25,), noise=NoiseModel(1.0), size=INFINITE, rounds=1, repetitions=1, methods=(Method.G,)
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
        prefix_ests = grid.fit(rec.hits[None], range(len(sched)))[0]
        for k in (0, 3, 6):
            short = MeasurementRecord(method, Schedule(sched.ms[: k + 1], sched.shots[: k + 1]), rec.hits[: k + 1])
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
            for j, outcome in enumerate(rec.outcomes):
                seed = derive_seed(77, code, 0, 1, j)
                assert sample_round(method, theta, outcome.m, outcome.shots, cfg.noise, cfg.size, seed) == outcome

    def test_pinned_hits(self):
        # the sha256 below was computed with the per-record sampler
        # (sample_record, one SeedSequence and one fresh Philox generator per
        # round) before the cell sampler replaced it; the hits must never move
        cfg = ExperimentConfig(targets=(1 / 3, 1 / 12), rounds=12, repetitions=3, master_seed=2**33 + 5)
        digest = hashlib.sha256()
        for code, method in enumerate(cfg.methods):
            sched = build_eis_schedule(cfg.base, cfg.rounds, cfg.shots, method)
            for ti, a in enumerate(cfg.targets):
                theta = math.asin(math.sqrt(a))
                args = (method, theta, sched, cfg.noise, cfg.size, cfg.master_seed, code, ti)
                hits = sample_hits(*args, np.arange(cfg.repetitions))
                for rep in range(cfg.repetitions):
                    assert sample_record(*args, rep).hits.tolist() == hits[rep].tolist()
                digest.update(hits.astype("<i8").tobytes())
        assert digest.hexdigest() == "a108d70d09b53bf928c2fa75016472103321cb5f3a20074cd736558b90e4ab27"

    def test_refuses_method_q_with_one_round(self):
        # Q drops the m = 0 round, so one round leaves it nothing to fit; refused before any cell runs
        for methods in ((Method.Q,), (Method.G, Method.Q)):
            with pytest.raises(ValueError, match="method Q needs rounds >= 2"):
                ExperimentConfig(rounds=1, methods=methods)
        assert ExperimentConfig(rounds=1, methods=(Method.G,)).rounds == 1

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExperimentConfig(master_seed=-1)

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
