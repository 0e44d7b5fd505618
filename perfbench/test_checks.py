"""Self-test of the workload checks: correct output passes, broken output fails.

    python3 -m pytest perfbench -q
"""

import math

import pytest

import checks
import workloads
from run import load_package

PKG = load_package()


def test_oracle_perturbation_is_reported_as_failures(tmp_path):
    batch = workloads.Oracle(PKG, 3, tmp_path, perturb_r=0.01).batch(0)
    assert batch.items == 144
    assert 0 < batch.failed <= batch.items


@pytest.fixture(scope="module")
def simulate_batch(tmp_path_factory):
    wl = workloads.Simulate(PKG, 3, tmp_path_factory.mktemp("simulate"))
    wl.prepare()
    batch = wl.batch(0)
    _, rows = checks.read_csv(wl.out)
    return wl, batch, rows


def recheck(wl, rows):
    return checks.check_simulate(rows, wl.config, wl.crb_curves, wl.schedule_len,
                                 wl.reference, workloads.SIMULATE_RMSE_BAND)


def test_simulate_output_passes(simulate_batch):
    wl, batch, rows = simulate_batch
    assert (batch.items, batch.failed, batch.notes) == (72, 0, ())
    assert len(rows) == 438


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda row: row.update(crb_classical=repr(math.nextafter(float(row["crb_classical"]), 1.0))),
        lambda row: row.update(rmse=repr(100 * float(row["rmse"]))),
        lambda row: row.update(rmse="nan"),
        lambda row: row.update(n_q_tot=str(int(row["n_q_tot"]) + 1)),
    ],
    ids=["crb-one-ulp", "rmse-x100", "rmse-nan", "n_q_tot"],
)
def test_one_corrupted_simulate_row_is_caught(simulate_batch, corrupt):
    wl, _, rows = simulate_batch
    rows = [dict(row) for row in rows]
    corrupt(rows[200])
    bad = recheck(wl, rows)
    assert list(bad) == [(rows[200]["method"], [repr(a) for a in wl.config.targets].index(rows[200]["a"]))]


def test_missing_simulate_row_is_caught(simulate_batch):
    wl, _, rows = simulate_batch
    assert recheck(wl, rows[:17] + rows[18:])


def test_fit_check_accepts_the_estimate_and_rejects_moved_ones(tmp_path):
    wl = workloads.Fit(PKG, 3, tmp_path)
    wl.prepare()
    for index in (0, 1, len(wl.pool) - 1):
        record, is_q, ref, ll_at = wl.pool[index]
        estimate = PKG.estimator.mle_estimate(record, wl.noise, wl.size)
        assert checks.check_fit(estimate, is_q, ref, ll_at) is None
        assert checks.check_fit(estimate + 1e-4, is_q, ref, ll_at) is not None
        assert checks.check_fit(estimate + 2e-7, is_q, ref, ll_at) is not None
        if is_q:
            assert checks.check_fit(math.pi / 2 - estimate, is_q, ref, ll_at) is not None
