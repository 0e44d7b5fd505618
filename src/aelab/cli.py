"""Command-line front end: deterministic experiment runs with CSV/JSON output.

Subcommands
-----------
fisher-curves   information-vs-queries series (classical curves, both
                envelopes, the quantum bound) for each requested register size
simulate        the Monte-Carlo RMSE experiment with all bound columns
oracle-verify   density-matrix reference simulator vs every closed form
breakeven       readout-error break-even register size

Each flag's default sits in its ``add_argument`` call (``aelab <command>
--help`` prints them all).  ``--config FILE`` holds a JSON object keyed by
flag name with underscores (``n_qubits``, ``nq_max``); it stands for the flags
it names, each value a string or a number that is parsed as that flag's text
would be.  The command line beats the file, and the file beats the default.

An output's metadata is the tool, the command, then every flag of that
command except ``--out``, ``--format`` and ``--config``, in declaration
order and as parsed (list flags keep their text).  Those are the keys a
``--config`` file accepts, taken from the same action list, so the metadata
without ``tool`` and ``command`` is a config file that reruns the command.

Exit status: 0 on success, 1 on a usage error, 2 on verification failure.
Output files are byte-identical across reruns of the same configuration and
seed; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .estimator import ExperimentConfig, run_experiment
from .fisher import classical_fisher, classical_fisher_envelope, quantum_fisher
from .model import INFINITE, Method, NoiseModel, SystemSize, breakeven_qubits
from .refsim import run_equivalence_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _parse_fraction(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        if float(den) == 0.0:
            raise _UsageError(f"zero denominator in {text!r}")
        return float(num) / float(den)
    return float(text)


def _parse_size(tok: str) -> SystemSize:
    tok = tok.strip().lower()
    if tok in ("inf", "infinite", "infinity"):
        return INFINITE
    return SystemSize(int(tok))


def _parse_list(text: str, item) -> tuple:
    return tuple(item(tok) for tok in text.split(",") if tok)


def _parse_methods(text: str) -> tuple[Method, ...]:
    key = text.strip().lower()
    if key == "both":
        return (Method.G, Method.Q)
    try:
        return (Method(key),)
    except ValueError:
        raise _UsageError(f"methods must be one of g, q, both; got {text!r}")


def _query_grid(nq_max: float, nq_points: int) -> np.ndarray:
    """``linspace(1, nq_max, nq_points)``, refused unless finite, non-empty and strictly increasing."""
    # every series is at most the noiseless 4*n_q**2, up to rounding; twice that bound must stay finite
    if not math.isfinite(8.0 * nq_max * nq_max):
        raise _UsageError(f"query grid and twice its noiseless bound, 8*nq-max**2, must be finite, got nq-max {nq_max}")
    grid = np.linspace(1.0, nq_max, nq_points)
    if grid.size == 0:
        raise _UsageError("query grid must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) <= 0):
        raise _UsageError("query grid must be strictly increasing")
    return grid


def _flags(parser: _Parser) -> dict[str, str]:
    """Option string of each flag of a subcommand by its dest, in declaration order, except --help and --config."""
    return {a.dest: a.option_strings[-1] for a in parser._actions if a.dest not in ("help", "config")}


def _write_rows(args: argparse.Namespace, rows: list[dict]) -> None:
    """``rows`` to ``--out`` in ``--format``, headed by the tool, the command and every other flag as parsed;
    the CSV columns are the first row's keys."""
    metadata = {"tool": f"aelab {__version__}", "command": args.command}
    metadata.update((k, getattr(args, k)) for k in _flags(args.parser) if k not in ("out", "format"))
    if args.format == "json":
        with open(args.out, "w") as fh:
            json.dump({"metadata": metadata, "rows": rows}, fh, indent=2)
            fh.write("\n")
        return
    with open(args.out, "w", newline="") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_fisher_curves(args: argparse.Namespace) -> int:
    cfg = vars(args)
    noise = NoiseModel(cfg["r"])
    sizes = _parse_list(cfg["n_qubits"], _parse_size)
    if not sizes:
        raise _UsageError(f"at least one register size is required, got n-qubits {cfg['n_qubits']!r}")
    thetas = _parse_list(cfg["thetas"], _parse_fraction)
    methods = _parse_methods(cfg["methods"])
    grid = _query_grid(cfg["nq_max"], cfg["nq_points"])
    rows = []
    for size in sizes:
        tag = "inf" if size.is_infinite else str(size.n)
        series = []
        for method in methods:
            for theta in thetas:
                values = classical_fisher(method, theta, grid, noise, size)
                series.append((f"classical[{method.value},theta={theta:g}]", values))
            series.append((f"envelope[{method.value}]", classical_fisher_envelope(method, grid, noise, size)))
        series.append(("quantum", quantum_fisher(grid, noise, size)))
        series.append(("noiseless", 4.0 * grid * grid))
        # plain sampling: the single-query envelope value at every grid point
        single_query = classical_fisher_envelope(Method.G, 1.0, noise, size)
        series.append(("no-amplification", np.full(grid.size, single_query)))
        for label, values in series:
            rows.extend(
                {"n_q": float(nq), "value": float(v), "series_label": f"{label}@n={tag}"}
                for nq, v in zip(grid, values)
            )
    _write_rows(args, rows)
    print(f"wrote {len(rows)} curve points to {cfg['out']}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = vars(args)
    config = ExperimentConfig(
        targets=_parse_list(cfg["targets"], _parse_fraction),
        noise=NoiseModel(cfg["r"]),
        size=_parse_size(cfg["n_qubits"]),
        base=cfg["base"],
        rounds=cfg["rounds"],
        shots=cfg["shots"],
        repetitions=cfg["reps"],
        master_seed=cfg["seed"],
        methods=_parse_methods(cfg["methods"]),
    )
    t0 = time.perf_counter()
    table = run_experiment(config)
    elapsed = time.perf_counter() - t0
    _write_rows(args, table.as_dicts())
    print(f"wrote {len(table.rows)} rows to {cfg['out']}", file=sys.stdout)
    print(f"simulate finished in {elapsed:.1f}s", file=sys.stderr)
    return 0


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    cfg = vars(args)
    n_values = _parse_list(cfg["n_qubits"], int)
    m_values = _parse_list(cfg["m_values"], int)
    r_values = _parse_list(cfg["r_values"], _parse_fraction)
    t0 = time.perf_counter()
    report = run_equivalence_suite(
        n_values=n_values,
        m_values=m_values,
        r_values=r_values,
        seeds=cfg["seeds"],
        master_seed=cfg["seed"],
        perturb_r=cfg["selftest_perturb_r"],
    )
    elapsed = time.perf_counter() - t0
    rows = report.as_dicts()
    _write_rows(args, rows)
    failed = [row for row in rows if row["status"] != "pass"]
    print(
        f"{report.n_cases} cases, {len(failed)} failures; "
        f"max probability dev {report.worst('prob_dev'):.3e}, "
        f"max qfi rel dev {report.worst('qfi_rel_dev'):.3e}"
    )
    print(f"oracle-verify finished in {elapsed:.1f}s", file=sys.stderr)
    for row in failed:
        # the row's status with its cell after the FAIL tag
        cell = "method={method} n={n} m={m} r={r}".format_map(row)
        print(row["status"].replace("FAIL:", f"FAIL {cell}:", 1), file=sys.stderr)
    return 2 if failed else 0


def cmd_breakeven(args: argparse.Namespace) -> int:
    print(f"{breakeven_qubits(args.eps)!r}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="aelab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"aelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, out: str, func) -> None:
        p.add_argument("--out", default=out, help="output file path (default %(default)s)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default %(default)s)")
        p.add_argument("--config", help="JSON object of flag values, keyed by flag name with underscores")
        # the subcommand's own parser: its flags are what a --config file may name and what an output records
        p.set_defaults(func=func, parser=p)

    p = sub.add_parser("fisher-curves", help="information-vs-queries curve data")
    p.add_argument("--r", type=float, default=0.99, help="depolarizing survival probability (default %(default)s)")
    p.add_argument(
        "--n-qubits",
        default="1,10,100,inf",
        help="comma list of register sizes, integers or 'inf' (default %(default)s)",
    )
    # the repr'd floats 1/6, 1/20, 1/50: this text is what the metadata records
    p.add_argument(
        "--thetas",
        default="0.16666666666666666,0.05,0.02",
        help="comma list of angles in radians (default %(default)s)",
    )
    p.add_argument("--methods", default="both", help="g, q or both (default %(default)s)")
    p.add_argument("--nq-max", type=float, default=1000.0, help="grid's largest query count (default %(default)s)")
    p.add_argument("--nq-points", type=int, default=1000, help="number of grid points (default %(default)s)")
    common(p, "fisher_curves.csv", cmd_fisher_curves)

    ref = ExperimentConfig()
    p = sub.add_parser("simulate", help="Monte-Carlo RMSE experiment")
    p.add_argument(
        "--r", type=float, default=ref.noise.r, help="depolarizing survival probability (default %(default)s)"
    )
    p.add_argument("--n-qubits", default=str(ref.size.n), help="register size, integer or 'inf' (default %(default)s)")
    p.add_argument(
        "--targets",
        default="2/3,1/3,1/6,1/12,1/24,1/48",
        help="comma list of target amplitudes, fractions allowed (default %(default)s)",
    )
    p.add_argument("--base", type=float, default=ref.base, help="schedule growth base (default %(default)s)")
    p.add_argument("--rounds", type=int, default=ref.rounds, help="number of schedule rounds (default %(default)s)")
    p.add_argument("--shots", type=int, default=ref.shots, help="shots per round (default %(default)s)")
    p.add_argument("--reps", type=int, default=ref.repetitions, help="Monte-Carlo repetitions (default %(default)s)")
    p.add_argument("--seed", type=int, default=ref.master_seed, help="master seed (default %(default)s)")
    p.add_argument("--methods", default="both", help="g, q or both (default %(default)s)")
    common(p, "rmse_table.csv", cmd_simulate)

    p = sub.add_parser("oracle-verify", help="density-matrix simulator vs closed forms")
    p.add_argument(
        "--n-qubits", default="1,2,3,4", help="comma list of work-register sizes in [1,8] (default %(default)s)"
    )
    p.add_argument(
        "--m-values", default="0,1,2,3,4,5", help="comma list of amplification counts (default %(default)s)"
    )
    p.add_argument(
        "--r-values", default="1,0.9,0.5", help="comma list of survival probabilities (default %(default)s)"
    )
    p.add_argument("--seeds", type=int, default=20, help="random (theta, W) draws per size (default %(default)s)")
    p.add_argument("--seed", type=int, default=7, help="master seed for the draws (default %(default)s)")
    p.add_argument(
        "--selftest-perturb-r",
        type=float,
        default=0.0,
        help="shrink r inside the simulator only; nonzero values must make the suite fail (default %(default)s)",
    )
    common(p, "oracle_verify.csv", cmd_oracle_verify)

    p = sub.add_parser("breakeven", help="readout-error break-even register size")
    p.add_argument("eps", type=float, help="per-qubit readout error probability, in (0, 1)")
    p.set_defaults(func=cmd_breakeven)

    return parser


def _config_flags(parser: _Parser, path: str) -> list[str]:
    """The JSON object in ``path`` as ``--flag=value`` tokens; its keys must be flag dests of ``parser``."""
    with open(path) as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise _UsageError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")
    flags = _flags(parser)
    unknown = set(file_cfg) - flags.keys()
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    # a flag's text is a string or a number; JSON true/false are bools, which are ints to Python
    bad = [k for k, v in file_cfg.items() if isinstance(v, bool) or not isinstance(v, (str, int, float))]
    if bad:
        raise _UsageError(f"config values must be strings or numbers: {sorted(bad)}")
    return [f"{flags[k]}={v}" for k, v in file_cfg.items()]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # argparse keeps a flag's last value: command line > file > default
            at = argv.index(args.command) + 1
            file_flags = _config_flags(args.parser, args.config)
            args = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
