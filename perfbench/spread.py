"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload clt --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed (``--trace 0``) and prints, per metric, the
median of the runs and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, then one
JSON line with the values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failures = []
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            failures.append(seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        took = time.monotonic() - started
        print(
            f"seed {seed} ({took:.1f} s): " + ", ".join(f"{k} {v[-1]:.4g}" for k, v in values.items()),
            flush=True,
        )
    summary = {
        name: {"median": statistics.median(v), "spread": spread(v), "values": v}
        for name, v in values.items()
    }
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.4g}, quartile spread {s['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "seeds_with_failures": failures, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
