"""aelab benchmark: one workload, one seed, one measured pass, one JSON result.

    python3 perfbench/run.py --workload {simulate,fit,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` rounds of the
workload's batches (the same inputs every round) repeat for about ``S``
seconds and the end-to-end metrics are reported.  With ``--trace 1`` a fixed
number of rounds (set by ``S``) runs each batch twice on the same input,
plain and then with every public layer boundary wrapped, and the per-layer
metrics are reported.  The last line of
standard output is the result object; the line before it records the
environment and the seed.  Both, and the spans of a traced pass, are also
written under ``.perfbench_work/results/``.
"""

import os

# pinned before numpy is first imported; one process generates all load
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7  # timed fresh-interpreter imports, after one untimed warm-up

# name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "item_ms.p50": ("ms", "lower"),
    "item_ms.tail": ("ms", "lower"),
    "cpu_ms_per_item": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class SetupError(Exception):
    pass


def load_package() -> SimpleNamespace:
    """Import aelab from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "aelab" / "__init__.py").is_file():
        raise SetupError(f"no aelab package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import aelab
    import aelab.cli
    import aelab.estimator
    import aelab.fisher
    import aelab.model
    import aelab.refsim

    if Path(aelab.__file__).resolve().parent != SRC / "aelab":
        raise SetupError(f"imported aelab from {aelab.__file__}, not from {SRC}")
    return SimpleNamespace(
        aelab=aelab, cli=aelab.cli, estimator=aelab.estimator, fisher=aelab.fisher,
        model=aelab.model, refsim=aelab.refsim,
    )


def measure_setup() -> tuple[float, list[float]]:
    """Median time for a fresh interpreter to import aelab."""
    code = "import time; t = time.perf_counter(); import aelab; print(repr(time.perf_counter() - t))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"fresh import of aelab failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:]), times[1:]


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    """Software, hardware and seed of this run (hardware read-only from /proc and /sys)."""
    import numpy as np

    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest whole percentile, p50 or above, with at least ten samples
    beyond it (nearest rank); the maximum when fewer than 20 samples leave
    no such percentile."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p}"
    return xs[-1], "max"


def timed_pass(workload, seconds: float) -> list[list]:
    """Whole rounds of batches until about ``seconds`` have passed.

    Every round repeats the same inputs, so each batch is timed once per
    round.
    """
    rounds, round_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append([workload.batch(j) for j in range(workload.round_size)])
        round_times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + 0.5 * statistics.median(round_times) >= seconds:
            return rounds


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def end_to_end(rounds: list[list], info: dict) -> dict:
    """Metrics of the timed pass; latency samples are per-batch item times."""
    batches = [b for r in rounds for b in r]
    items = sum(b.items for b in batches)
    per_item = [1000.0 * b.wall_s / b.items for b in batches]
    tail_ms, tail_label = tail(per_item)
    info.update(
        rounds=len(rounds),
        item_ms_samples=len(per_item),
        item_ms_tail_is=tail_label,
        batch_wall_s=[[b.wall_s for b in r] for r in rounds],
    )
    return {
        "items_per_s": items / sum(b.wall_s for b in batches),
        "item_ms.p50": statistics.median(per_item),
        "item_ms.tail": tail_ms,
        "cpu_ms_per_item": 1000.0 * sum(b.cpu_s for b in batches) / items,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pass(workload, rounds: int, info: dict):
    """Each batch runs plain, then traced on the same input, so host drift
    affects both alike; wrappers are installed only around traced batches."""
    tracer = Tracer()
    plain, traced = [], []
    for i in range(rounds * workload.round_size):
        j = i % workload.round_size
        plain.append(workload.batch(j))
        tracer.run_id = i
        tracer.install(layers.TARGETS)
        try:
            traced.append(workload.batch(j))
        finally:
            tracer.restore()
    info["traced_rounds"] = rounds
    metrics = layers.per_layer_metrics(
        tracer,
        traced_wall_s=sum(b.wall_s for b in traced),
        untraced_wall_s=sum(b.wall_s for b in plain),
        output_bytes=traced[0].output[0],
    )
    return metrics, plain + traced, tracer


def run(args, pkg, workdir: Path, info: dict) -> tuple[dict, list, object]:
    workload = WORKLOADS[args.workload](pkg, args.seed, workdir, args.selftest_perturb_r)
    info["item"] = workload.item
    t0 = time.perf_counter()
    workload.prepare()
    info["prepare_s"] = time.perf_counter() - t0
    if args.trace:
        return traced_pass(workload, max(1, round(args.seconds / 2 / workload.nominal_round_s)), info)
    rounds = timed_pass(workload, args.seconds)
    metrics = end_to_end(rounds, info)
    metrics["setup_s"], info["setup_s_samples"] = measure_setup()
    return metrics, [b for r in rounds for b in r], None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest-perturb-r", type=float, default=0.0,
                        help="oracle only: shrink r inside the simulator; the run must then report failures")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.selftest_perturb_r and args.workload != "oracle":
        parser.error("--selftest-perturb-r applies to the oracle workload only")

    try:
        pkg = load_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(args.seed)}
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, batches, tracer = run(args, pkg, workdir, info)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b.items for b in batches)
    failed = sum(b.failed for b in batches)
    info["failed_frac"] = failed / attempted
    info["first_output"] = dict(zip(("bytes", "sha256"), batches[0].output))
    info["failures"] = [note for b in batches for note in b.notes][:10]
    spec = layers.PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, (unit, _) in spec.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
