"""The workloads: what one batch runs, what one item is, and its check.

Every batch calls one public entry point of aelab, looked up on its module at
call time so that a traced pass sees the wrappers.  Only that call is timed;
reading the output back and checking it happens outside the timed region.
A round is ``round_size`` batches; batch ``j`` of every round gets the same
input, which depends only on the workload seed and ``j``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import checks

REFERENCE = Path(__file__).resolve().parent / "reference" / "simulate_rmse.json"
# the reference physics, spelled out so that the workloads do not follow a
# change of the package's defaults
TARGETS = (2 / 3, 1 / 3, 1 / 6, 1 / 12, 1 / 24, 1 / 48)
TARGETS_ARG = "2/3,1/3,1/6,1/12,1/24,1/48"
SIMULATE_ARGV = ["simulate", "--r", "0.99", "--n-qubits", "100", "--targets", TARGETS_ARG,
                 "--base", "1.2", "--rounds", "37", "--shots", "100", "--methods", "both"]
# in 100k resamples per row of 6 of the reference's 600 repetitions, the RMSE
# stayed within [0.026, 4.9] x the reference; the band leaves a wide margin,
# so only gross errors (wrong truth, wrong fold, broken estimator) fail
SIMULATE_RMSE_BAND = (0.01, 10.0)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Batch:
    items: int
    failed: int
    wall_s: float
    cpu_s: float
    output: tuple[int, str] = (0, "")  # size and sha256 of what the call produced
    notes: tuple[str, ...] = ()


def _digest(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


def _timed(fn, *args):
    sink = io.StringIO()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, cpu_seconds() - cpu0


class Workload:
    name = ""
    item = ""
    round_size = 1  # batches in one round of distinct inputs
    nominal_round_s = 1.0  # sizes the fixed traced pass; never measured

    def __init__(self, pkg, seed: int, workdir: Path, perturb_r: float = 0.0) -> None:
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.perturb_r = perturb_r
        self.out = workdir / f"{self.name}.csv"

    def prepare(self) -> None:
        """Untimed set-up: inputs and references."""

    def batch(self, j: int) -> Batch:
        """Run and check batch ``j`` of a round."""
        raise NotImplementedError

    def _cli(self, argv) -> tuple[int, float, float, tuple[int, str]]:
        self.out.unlink(missing_ok=True)
        code, wall, cpu = _timed(lambda: self.pkg.cli.main([*argv, "--out", str(self.out)]))
        return code, wall, cpu, _digest(self.out.read_bytes() if self.out.exists() else b"")


class Simulate(Workload):
    name = "simulate"
    item = "one (method, target, repetition) record fitted at every schedule prefix"
    reps = 6
    nominal_round_s = 5.0

    def prepare(self) -> None:
        est, model = self.pkg.estimator, self.pkg.model
        self.config = est.ExperimentConfig(
            targets=TARGETS, noise=model.NoiseModel(0.99), size=model.SystemSize(100), base=1.2,
            rounds=37, shots=100, repetitions=self.reps, methods=(model.Method.G, model.Method.Q),
        )
        self.crb_curves = est.crb_curves
        self.schedule_len = {
            m: len(est.build_eis_schedule(self.config.base, self.config.rounds, self.config.shots, m))
            for m in self.config.methods
        }
        rows = json.loads(REFERENCE.read_text())["rows"]
        self.reference = {(r["method"], r["target_index"], r["prefix"]): r["rmse"] for r in rows}

    def batch(self, j: int) -> Batch:
        argv = [*SIMULATE_ARGV, "--reps", str(self.reps), "--seed", str(self.seed * 1000 + j)]
        code, wall, cpu, data = self._cli(argv)
        items = len(self.config.methods) * len(self.config.targets) * self.reps
        if code != 0:
            return Batch(items, items, wall, cpu, data, (f"exit status {code}",))
        _, rows = checks.read_csv(self.out)
        bad = checks.check_simulate(rows, self.config, self.crb_curves, self.schedule_len,
                                    self.reference, SIMULATE_RMSE_BAND)
        failed = items if ("table", -1) in bad else min(items, self.reps * len(bad))
        return Batch(items, failed, wall, cpu, data, tuple(f"{k}: {v}" for k, v in bad.items()))


class Fit(Workload):
    name = "fit"
    item = "one mle_estimate call on one record"
    lengths = tuple(range(15, 38, 2))
    round_size = 2 * len(lengths)
    nominal_round_s = 2.5

    def prepare(self) -> None:
        est, model = self.pkg.estimator, self.pkg.model
        self.noise = model.NoiseModel(0.99)
        self.size = model.SystemSize(100)
        log_likelihood = est.log_likelihood
        self.pool = []
        for j, rounds in enumerate(self.lengths):
            for code, method in enumerate((model.Method.G, model.Method.Q)):
                ti = (j + 3 * code) % len(TARGETS)
                theta = math.asin(math.sqrt(TARGETS[ti]))
                schedule = est.build_eis_schedule(1.2, rounds, 100, method)
                record = est.sample_record(method, theta, schedule, self.noise, self.size,
                                           self.seed, code, ti, rounds)
                ref = checks.reference_mle(
                    method is model.Method.Q,
                    [oc.m for oc in record.outcomes],
                    [oc.shots for oc in record.outcomes],
                    [oc.hits for oc in record.outcomes],
                    self.noise.r,
                    self.size.inv_d,
                )

                def ll_at(t, record=record):
                    return log_likelihood(record, t, self.noise, self.size)

                self.pool.append((record, method is model.Method.Q, ref, ll_at))

    def batch(self, j: int) -> Batch:
        record, is_q, ref, ll_at = self.pool[j]
        estimate, wall, cpu = _timed(self.pkg.estimator.mle_estimate, record, self.noise, self.size)
        reason = checks.check_fit(float(estimate), is_q, ref, ll_at)
        return Batch(1, int(reason is not None), wall, cpu, _digest(repr(float(estimate)).encode()),
                     () if reason is None else (reason,))


class Oracle(Workload):
    name = "oracle"
    item = "one simulator-vs-closed-form equivalence case"
    seeds = 1
    round_size = 5
    nominal_round_s = 3.3

    def batch(self, j: int) -> Batch:
        argv = ["oracle-verify", "--n-qubits", "1,2,3,4", "--m-values", "0,1,2,3,4,5",
                "--r-values", "1,0.9,0.5", "--seeds", str(self.seeds),
                "--seed", str(self.seed * 1000 + j)]
        if self.perturb_r:
            argv += ["--selftest-perturb-r", repr(self.perturb_r)]
        code, wall, cpu, data = self._cli(argv)
        expected = 4 * self.seeds * 6 * 3 * 2
        if code not in (0, 2):
            return Batch(expected, expected, wall, cpu, data, (f"exit status {code}",))
        _, rows = checks.read_csv(self.out)
        items, failed = checks.check_oracle(rows, expected)
        if (code == 2) != (failed > 0):
            failed = items
        return Batch(items, failed, wall, cpu, data)


WORKLOADS = {w.name: w for w in (Simulate, Fit, Oracle)}
