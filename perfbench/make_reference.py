"""Regenerate ``reference/simulate_rmse.json``, the RMSE reference of the
``simulate`` workload's check.

    python3 perfbench/make_reference.py     # about 8 minutes on one core

Runs ``aelab simulate`` at the reference physics with 200 repetitions for each
of three seeds that no workload seed maps to, and pools the RMSE of every
(method, target, prefix) row over the 600 repetitions.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import WORK, load_package

import checks
from workloads import REFERENCE, SIMULATE_ARGV, TARGETS

SEEDS = (424242, 424243, 424244)
REPS = 200


def main() -> int:
    pkg = load_package()
    sums: dict[tuple, float] = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp) / "rmse.csv"
        for seed in SEEDS:
            argv = [*SIMULATE_ARGV, "--reps", str(REPS), "--seed", str(seed), "--out", str(out)]
            if pkg.cli.main(argv) != 0:
                return 1
            _, rows = checks.read_csv(out)
            for row in rows:
                ti = [repr(a) for a in TARGETS].index(row["a"])
                key = (row["method"], ti, int(row["prefix"]))
                sums[key] = sums.get(key, 0.0) + float(row["rmse"]) ** 2
    rows = [
        {"method": m, "target_index": ti, "a": TARGETS[ti], "prefix": k, "rmse": (s / len(SEEDS)) ** 0.5}
        for (m, ti, k), s in sorted(sums.items())
    ]
    REFERENCE.parent.mkdir(exist_ok=True)
    payload = {"aelab": pkg.aelab.__version__, "seeds": SEEDS, "reps_per_seed": REPS, "rows": rows}
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
