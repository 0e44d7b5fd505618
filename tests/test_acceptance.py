"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
all).  Criterion 6 runs its fast gate (50 repetitions) by default; set
``AELAB_ACCEPTANCE_REPS=200`` for the full-depth run.
"""

import math
import os
import time

import numpy as np
import pytest

from aelab import (
    INFINITE,
    ExperimentConfig,
    Method,
    NoiseModel,
    SystemSize,
    breakeven_qubits,
    classical_fisher,
    classical_fisher_envelope,
    envelope_peak,
    quantum_fisher,
    run_experiment,
)
from aelab.cli import main as cli_main
from aelab.refsim import run_equivalence_suite

C6_REPS = int(os.environ.get("AELAB_ACCEPTANCE_REPS", "50"))


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


def heisenberg_config() -> ExperimentConfig:
    return ExperimentConfig(
        targets=(1 / 3,),
        noise=NoiseModel(1.0),
        size=INFINITE,
        rounds=20,
        repetitions=100,
        master_seed=42,
        methods=(Method.G,),
    )


def test_criterion_1_noiseless_heisenberg_scaling():
    t0 = time.perf_counter()
    table = run_experiment(heisenberg_config())
    rows = table.select(Method.G, 1 / 3)[-10:]
    slope = np.polyfit(
        np.log([r.n_q_tot for r in rows]), np.log([r.rmse for r in rows]), 1
    )[0]
    elapsed = time.perf_counter() - t0
    ok = -1.15 <= slope <= -0.85 and elapsed < 120
    report(1, "noiseless RMSE log-log slope in [-1.15, -0.85]", ok,
           f"(slope={slope:.3f}, {elapsed:.1f}s)")


@pytest.fixture(scope="module")
def equivalence_report():
    t0 = time.perf_counter()
    rep = run_equivalence_suite()  # n in 1..4, m in 0..5, r in {1, 0.9, 0.5}, 20 seeds
    return rep, time.perf_counter() - t0


def test_criterion_2_oracle_equivalence(equivalence_report):
    rep, elapsed = equivalence_report
    prob = rep.worst("prob_dev")
    qfi = rep.worst("qfi_rel_dev")
    ok = (
        rep.n_cases >= 960
        and rep.n_failed == 0
        and prob <= 1e-10
        and qfi <= 1e-8
        and elapsed < 60
    )
    report(2, "simulator matches closed forms (prob 1e-10, QFI 1e-8 rel)", ok,
           f"({rep.n_cases} cases, worst prob dev {prob:.2e}, worst QFI rel {qfi:.2e}, "
           f"{elapsed:.1f}s)")


def test_criterion_3_fisher_inequality_chain():
    sizes = [SystemSize(1), SystemSize(2), SystemSize(10), SystemSize(100), INFINITE]
    worst_chain = 0.0
    worst_eq = 0.0
    n_q = np.arange(1, 2001)
    for r in (0.9, 0.99, 0.999):
        noise = NoiseModel(r)
        for size in sizes:
            eg = classical_fisher_envelope(Method.G, n_q, noise, size)
            eq_ = classical_fisher_envelope(Method.Q, n_q, noise, size)
            qf = quantum_fisher(n_q, noise, size)
            worst_chain = max(worst_chain, np.max((eg - eq_) / qf), np.max((eq_ - qf) / qf))
            if size.n == 1:
                worst_eq = max(worst_eq, np.max(abs(eg - qf) / qf), np.max(abs(eq_ - qf) / qf))
    ok = worst_chain <= 1e-9 and worst_eq <= 1e-12
    report(3, "envelope(G) <= envelope(Q) <= quantum, equal at one qubit", ok,
           f"(worst chain violation {worst_chain:.2e}, worst 1-qubit split {worst_eq:.2e})")


def test_criterion_4_peak_ratios():
    r = 0.99
    loc_g, val_g = envelope_peak(Method.G, r)
    loc_q, val_q = envelope_peak(Method.Q, r, INFINITE)
    # recompute the closed forms inline as the oracle for the returned values
    ref_loc_g, ref_val_g = -1 / math.log(r), 4 / (math.e**2 * math.log(r) ** 2)
    ref_loc_q, ref_val_q = -2 / math.log(r), 16 / (math.e**2 * math.log(r) ** 2)
    # and scan the envelopes directly as an independent numerical check
    grid = np.arange(1.0, 500.0, 0.02)
    noise = NoiseModel(r)
    scan_g = classical_fisher_envelope(Method.G, grid, noise).max()
    scan_q = classical_fisher_envelope(Method.Q, grid, noise, INFINITE).max()
    ok = (
        abs(val_q / val_g - 4.0) <= 1e-6
        and abs(loc_q / loc_g - 2.0) <= 1e-6
        and val_g == pytest.approx(ref_val_g, rel=1e-12)
        and val_q == pytest.approx(ref_val_q, rel=1e-12)
        and loc_g == pytest.approx(ref_loc_g, rel=1e-12)
        and loc_q == pytest.approx(ref_loc_q, rel=1e-12)
        and scan_g == pytest.approx(val_g, rel=1e-6)
        and scan_q == pytest.approx(val_q, rel=1e-6)
        and val_g == pytest.approx(5.3594e3, rel=1e-3)
        and val_q == pytest.approx(2.1438e4, rel=1e-3)
        and loc_g == pytest.approx(99.5, abs=0.1)
        and loc_q == pytest.approx(199.0, abs=0.1)
    )
    report(4, "envelope peaks: value ratio 4, location ratio 2", ok,
           f"(G peak {val_g:.4g} at {loc_g:.4g}, Q peak {val_q:.4g} at {loc_q:.4g})")


def test_criterion_5_envelope_tightness():
    grid = np.linspace(0.0, math.pi / 2, 100_002)[1:-1]  # 1e5 interior angles
    worst = 0.0
    for method in Method:
        for n_q in (1, 2, 5, 10, 50):
            for r in (0.9, 0.99):
                noise = NoiseModel(r)
                for n in (1, 10):
                    size = SystemSize(n)
                    env = classical_fisher_envelope(method, n_q, noise, size)
                    peak = classical_fisher(method, grid, n_q, noise, size).max()
                    worst = max(worst, (env - peak) / env)
                    assert peak <= env * (1 + 1e-9)
    ok = worst <= 1e-4
    report(5, "classical Fisher information attains its envelope on a 1e5 grid", ok,
           f"(worst relative gap {worst:.2e})")


@pytest.fixture(scope="module")
def saturation_table():
    config = ExperimentConfig(targets=(1 / 6, 1 / 12), repetitions=C6_REPS, master_seed=42)
    t0 = time.perf_counter()
    table = run_experiment(config)
    return table, time.perf_counter() - t0


def test_criterion_6_saturation_ratios(saturation_table):
    table, elapsed = saturation_table
    details = []
    ok = elapsed < 900
    for a in (1 / 6, 1 / 12):
        g5 = table.select(Method.G, a)[-5:]
        q5 = table.select(Method.Q, a)[-5:]
        qg = np.mean([r.rmse for r in q5]) / np.mean([r.rmse for r in g5])
        g_over_qcrb = float(np.mean([r.rmse / r.crb_quantum for r in g5]))
        q_over_qcrb = float(np.mean([r.rmse / r.crb_quantum for r in q5]))
        ok = ok and 0.33 <= qg <= 0.67
        ok = ok and 2.0 <= g_over_qcrb <= 3.5
        ok = ok and 1.1 <= q_over_qcrb <= 1.7
        details.append(f"a={a:.4f}: Q/G={qg:.2f}, G/qCRB={g_over_qcrb:.2f}, Q/qCRB={q_over_qcrb:.2f}")
    report(6, f"saturated errors match the reference windows (R={C6_REPS})", ok,
           "(" + "; ".join(details) + f", {elapsed:.0f}s)")


def test_criterion_7_rescaling_law():
    worst = 0.0
    noise = NoiseModel(0.99)
    for c in (0.5, 2.0, 5.0):
        noise_c = NoiseModel(0.99**c)
        for size in (SystemSize(1), SystemSize(10), SystemSize(100), INFINITE):
            n_q = np.arange(1, 501)
            for f in (
                lambda nq, ns: classical_fisher_envelope(Method.G, nq, ns, size),
                lambda nq, ns: classical_fisher_envelope(Method.Q, nq, ns, size),
                lambda nq, ns: quantum_fisher(nq, ns, size),
            ):
                lhs = f(n_q, noise_c)
                rhs = f(c * n_q, noise) / c**2
                worst = max(worst, np.max(abs(lhs - rhs) / rhs))
    ok = worst <= 1e-9
    report(7, "noise-power rescaling identity for envelopes and quantum bound", ok,
           f"(worst relative deviation {worst:.2e})")


def test_criterion_8_circuit_bound(equivalence_report):
    rep, _ = equivalence_report
    excess = rep.worst("bound_excess")
    gap = rep.worst("bound_rel_gap")
    ok = excess <= 1e-9 and gap <= 1e-8
    report(8, "numeric QFI never exceeds and in fact attains the circuit bound", ok,
           f"(worst excess {excess:.2e}, worst attainment gap {gap:.2e})")


def test_criterion_9_breakeven():
    val = breakeven_qubits(0.01)
    ok = 68.0 <= val <= 70.0
    report(9, "readout break-even near 70 qubits at 1% error", ok, f"(value {val:.3f})")


def test_criterion_10_determinism(tmp_path):
    # the seeded artifacts rerun bit-identically: the experiment table at the
    # criterion-1 configuration, plus CSV outputs of every subcommand
    ok = run_experiment(heisenberg_config()) == run_experiment(heisenberg_config())

    pairs = []
    sim_args = ["simulate", "--targets", "1/6,1/12", "--rounds", "25", "--reps", "10",
                "--seed", "42"]
    curve_args = ["fisher-curves"]
    verify_args = ["oracle-verify", "--n-qubits", "1,2", "--m-values", "0,1,2,3",
                   "--r-values", "1,0.9,0.5", "--seeds", "5", "--seed", "42"]
    for tag, argv in (("sim", sim_args), ("curves", curve_args), ("verify", verify_args)):
        a, b = tmp_path / f"{tag}_a.csv", tmp_path / f"{tag}_b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    ok = ok and all(same for _, same in pairs)
    report(10, "same master seed reproduces byte-identical outputs", ok,
           f"({', '.join(f'{tag}:{same}' for tag, same in pairs)})")
