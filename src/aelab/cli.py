"""Command-line front end: deterministic experiment runs with CSV/JSON output.

Subcommands
-----------
fisher-curves   information-vs-queries series (classical curves, both
                envelopes, the quantum bound) for each requested register size
simulate        the Monte-Carlo RMSE experiment with all bound columns
oracle-verify   density-matrix reference simulator vs every closed form
breakeven       readout-error break-even register size

Exit status: 0 on success, 1 on a usage error, 2 on verification failure.
Output files are byte-identical across reruns of the same configuration and
seed; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__
from .estimator import ExperimentConfig, RmseRow, run_experiment
from .fisher import curve
from .model import INFINITE, Method, NoiseModel, SystemSize, breakeven_qubits
from .refsim import run_equivalence_suite

DEFAULT_THETAS = (1 / 6, 1 / 20, 1 / 50)
DEFAULT_CURVE_SIZES = "1,10,100,inf"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _parse_fraction(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_size(tok: str) -> SystemSize:
    tok = tok.strip().lower()
    if tok in ("inf", "infinite", "infinity"):
        return INFINITE
    return SystemSize(int(tok))


def _parse_sizes(text: str) -> tuple[SystemSize, ...]:
    return tuple(_parse_size(tok) for tok in text.split(",") if tok)


def _parse_methods(text: str) -> tuple[Method, ...]:
    key = text.strip().lower()
    if key == "both":
        return (Method.G, Method.Q)
    try:
        return (Method(key),)
    except ValueError:
        raise _UsageError(f"methods must be one of g, q, both; got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_fraction(tok) for tok in text.split(",") if tok)


def _merged(args: argparse.Namespace, defaults: dict):
    """Configuration precedence: command line > JSON config file > defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, fallback in defaults.items():
        cli_val = getattr(args, key.replace("-", "_"), None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in file_cfg:
            out[key] = file_cfg[key]
        else:
            out[key] = fallback
    return out


def _write_rows(path: str, fmt: str, metadata: dict, fieldnames: list[str], rows: list[dict]) -> None:
    if fmt == "json":
        payload = {"metadata": metadata, "rows": rows}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _metadata(command: str, params: dict) -> dict:
    meta = {"tool": f"aelab {__version__}", "command": command}
    meta.update(params)
    return meta


def cmd_fisher_curves(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        {
            "r": 0.99,
            "n_qubits": DEFAULT_CURVE_SIZES,
            "thetas": ",".join(str(t) for t in DEFAULT_THETAS),
            "methods": "both",
            "nq_max": 1000.0,
            "nq_points": 1000,
            "out": "fisher_curves.csv",
            "format": "csv",
        },
    )
    noise = NoiseModel(float(cfg["r"]))
    sizes = _parse_sizes(str(cfg["n_qubits"]))
    thetas = _parse_float_list(str(cfg["thetas"]))
    methods = _parse_methods(str(cfg["methods"]))
    grid = np.linspace(1.0, float(cfg["nq_max"]), int(cfg["nq_points"]))
    rows = []
    for size in sizes:
        tag = "inf" if size.is_infinite else str(size.n)
        series = []
        for method in methods:
            for theta in thetas:
                series.append(curve("classical", noise, size, grid, method=method, theta=theta))
            series.append(curve("classical-envelope", noise, size, grid, method=method))
        series.append(curve("quantum", noise, size, grid))
        series.append(curve("noiseless", noise, size, grid))
        series.append(curve("no-amplification", noise, size, grid))
        for c in series:
            label = f"{c.label}@n={tag}"
            rows.extend(
                {"n_q": float(nq), "value": float(v), "series_label": label}
                for nq, v in zip(c.n_q, c.values)
            )
    meta = _metadata(
        "fisher-curves",
        {
            "r": noise.r,
            "n_qubits": cfg["n_qubits"],
            "thetas": cfg["thetas"],
            "methods": cfg["methods"],
            "nq_max": cfg["nq_max"],
            "nq_points": cfg["nq_points"],
        },
    )
    _write_rows(str(cfg["out"]), str(cfg["format"]), meta, ["n_q", "value", "series_label"], rows)
    print(f"wrote {len(rows)} curve points to {cfg['out']}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        {
            "r": 0.99,
            "n_qubits": "100",
            "targets": "2/3,1/3,1/6,1/12,1/24,1/48",
            "base": 6 / 5,
            "rounds": 37,
            "shots": 100,
            "reps": 200,
            "seed": 42,
            "methods": "both",
            "out": "rmse_table.csv",
            "format": "csv",
        },
    )
    config = ExperimentConfig(
        targets=_parse_float_list(str(cfg["targets"])),
        noise=NoiseModel(float(cfg["r"])),
        size=_parse_size(str(cfg["n_qubits"])),
        base=float(cfg["base"]),
        rounds=int(cfg["rounds"]),
        shots=int(cfg["shots"]),
        repetitions=int(cfg["reps"]),
        master_seed=int(cfg["seed"]),
        methods=_parse_methods(str(cfg["methods"])),
    )
    t0 = time.perf_counter()
    table = run_experiment(config)
    elapsed = time.perf_counter() - t0
    meta = _metadata(
        "simulate",
        {
            "r": config.noise.r,
            "n_qubits": "inf" if config.size.is_infinite else config.size.n,
            "targets": cfg["targets"],
            "base": config.base,
            "rounds": config.rounds,
            "shots": config.shots,
            "reps": config.repetitions,
            "seed": config.master_seed,
            "methods": cfg["methods"],
        },
    )
    fields = [f.name for f in dataclasses.fields(RmseRow)]
    _write_rows(str(cfg["out"]), str(cfg["format"]), meta, fields, table.as_dicts())
    print(f"wrote {len(table.rows)} rows to {cfg['out']}", file=sys.stdout)
    print(f"simulate finished in {elapsed:.1f}s", file=sys.stderr)
    return 0


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        {
            "n_qubits": "1,2,3,4",
            "m_values": "0,1,2,3,4,5",
            "r_values": "1,0.9,0.5",
            "seeds": 20,
            "seed": 7,
            "out": "oracle_verify.csv",
            "format": "csv",
            "selftest_perturb_r": 0.0,
        },
    )
    n_values = _parse_int_list(str(cfg["n_qubits"]))
    m_values = _parse_int_list(str(cfg["m_values"]))
    r_values = _parse_float_list(str(cfg["r_values"]))
    seeds = int(cfg["seeds"])
    if not (n_values and m_values and r_values) or seeds < 1:
        # a run of zero cases would verify nothing and still exit 0
        raise _UsageError(
            f"the oracle grid is empty (n-qubits {cfg['n_qubits']!r}, m-values {cfg['m_values']!r}, "
            f"r-values {cfg['r_values']!r}, seeds {seeds}); nothing would be verified"
        )
    t0 = time.perf_counter()
    report = run_equivalence_suite(
        n_values=n_values,
        m_values=m_values,
        r_values=r_values,
        seeds=seeds,
        master_seed=int(cfg["seed"]),
        perturb_r=float(cfg["selftest_perturb_r"]),
    )
    elapsed = time.perf_counter() - t0
    rows = []
    for case in report.cases:
        rows.append(
            {
                "method": case.method.value,
                "n": case.n,
                "m": case.m,
                "r": case.r,
                "theta": case.theta,
                "prob_dev": case.prob_dev,
                "qfi_rel_dev": case.qfi_rel_dev,
                "bound_excess": case.bound_excess,
                "rotation_dev": "" if case.rotation_dev is None else case.rotation_dev,
                "cfi_rel_dev": "" if case.cfi_rel_dev is None else case.cfi_rel_dev,
                "status": "pass" if case.passed else "FAIL: " + "; ".join(case.failures),
            }
        )
    meta = _metadata(
        "oracle-verify",
        {
            "n_qubits": cfg["n_qubits"],
            "m_values": cfg["m_values"],
            "r_values": cfg["r_values"],
            "seeds": cfg["seeds"],
            "seed": cfg["seed"],
        },
    )
    fields = list(rows[0].keys()) if rows else []
    _write_rows(str(cfg["out"]), str(cfg["format"]), meta, fields, rows)
    print(
        f"{report.n_cases} cases, {report.n_failed} failures; "
        f"max probability dev {report.worst('prob_dev'):.3e}, "
        f"max qfi rel dev {report.worst('qfi_rel_dev'):.3e}"
    )
    print(f"oracle-verify finished in {elapsed:.1f}s", file=sys.stderr)
    if not report.all_passed:
        for case in report.cases:
            if not case.passed:
                print(
                    f"FAIL method={case.method.value} n={case.n} m={case.m} r={case.r}: "
                    + "; ".join(case.failures),
                    file=sys.stderr,
                )
        return 2
    return 0


def cmd_breakeven(args: argparse.Namespace) -> int:
    try:
        value = breakeven_qubits(args.eps)
    except ValueError as exc:
        raise _UsageError(str(exc))
    print(f"{value!r}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="aelab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"aelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--config", help="JSON file with defaults for any flag")

    p = sub.add_parser("fisher-curves", help="information-vs-queries curve data")
    p.add_argument("--r", type=float, help="depolarizing survival probability (default 0.99)")
    p.add_argument("--n-qubits", help="comma list of register sizes, integers or 'inf' (default 1,10,100,inf)")
    p.add_argument("--thetas", help="comma list of angles in radians (default 1/6,1/20,1/50)")
    p.add_argument("--methods", help="g, q or both (default both)")
    p.add_argument("--nq-max", type=float, help="largest query count on the grid (default 1000)")
    p.add_argument("--nq-points", type=int, help="number of grid points (default 1000)")
    common(p)
    p.set_defaults(func=cmd_fisher_curves)

    p = sub.add_parser("simulate", help="Monte-Carlo RMSE experiment")
    p.add_argument("--r", type=float, help="depolarizing survival probability (default 0.99)")
    p.add_argument("--n-qubits", help="register size, integer or 'inf' (default 100)")
    p.add_argument("--targets", help="comma list of target amplitudes, fractions allowed (default 2/3,...,1/48)")
    p.add_argument("--base", type=float, help="schedule growth base (default 6/5)")
    p.add_argument("--rounds", type=int, help="number of schedule rounds (default 37)")
    p.add_argument("--shots", type=int, help="shots per round (default 100)")
    p.add_argument("--reps", type=int, help="Monte-Carlo repetitions (default 200)")
    p.add_argument("--seed", type=int, help="master seed (default 42)")
    p.add_argument("--methods", help="g, q or both (default both)")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle-verify", help="density-matrix simulator vs closed forms")
    p.add_argument("--n-qubits", help="comma list of work-register sizes in [1,8] (default 1,2,3,4)")
    p.add_argument("--m-values", help="comma list of amplification counts (default 0..5)")
    p.add_argument("--r-values", help="comma list of survival probabilities (default 1,0.9,0.5)")
    p.add_argument("--seeds", type=int, help="random (theta, W) draws per size (default 20)")
    p.add_argument("--seed", type=int, help="master seed for the draws (default 7)")
    p.add_argument(
        "--selftest-perturb-r",
        type=float,
        help="shrink r inside the simulator only; nonzero values must make the suite fail",
    )
    common(p)
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("breakeven", help="readout-error break-even register size")
    p.add_argument("eps", type=float, help="per-qubit readout error probability, in (0, 1)")
    p.set_defaults(func=cmd_breakeven)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
