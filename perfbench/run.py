"""Benchmark of the ``freewalk`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload clt --seed 1 --seconds 25 --trace 0

Each repetition of the workload runs in a fresh worker process (see
``worker.py``) with ``FREEWALK_WORKERS=1``; repetitions are started while
the next one is expected to end within ``--seconds``, with a floor of two
(untraced) or three pairs (traced).  After each repetition, outside every
timed region, the artifacts are checked (see ``checks.py``) and their
sha256 digests compared with the first repetition's.

``--trace 0`` reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``; ``setup_s`` is the median of ``SETUP_SAMPLES`` spawns,
most of them set-up-only workers spread through the run.  ``--trace 1``
runs (untraced, traced) pairs of repetitions and reports per-layer self
times and counts from the traced ones (see ``spans.py``), plus
``trace.overhead_ratio``, the median over pairs of traced over untraced
wall time, minus 1.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed``
counts invocations that exited non-zero or failed a check.  Spans of each
traced repetition are kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 31  # set-up times per untraced run, most from set-up-only workers
MIN_REPETITIONS = 2  # untraced repetitions per untraced run
TRACE_PAIRS = 3  # least (untraced, traced) repetition pairs per traced run
REPETITION_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Run:
    """The repetitions of one workload for one seed."""

    def __init__(self, root: Path, workload, seed: int, run_dir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.words = spans.WordCounter()
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
            ),
            FREEWALK_WORKERS="1",
        )
        self.count = 0
        self.first_digests: dict[int, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def _spawn(self, plan: dict, rep_dir: Path) -> dict:
        plan_path = rep_dir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        with (rep_dir / "worker.log").open("w") as log:
            spawned = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(plan_path), repr(spawned)],
                cwd=rep_dir,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=REPETITION_TIMEOUT_S,
            )
        if proc.returncode != 0:
            tail = (rep_dir / "worker.log").read_text()[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
        return json.loads((rep_dir / "result.json").read_text())

    def _new_rep_dir(self) -> Path:
        rep_dir = self.run_dir / f"rep{self.count}"
        self.count += 1
        rep_dir.mkdir(parents=True)
        for rel, text in self.workload.files().items():
            (rep_dir / rel).parent.mkdir(parents=True, exist_ok=True)
            (rep_dir / rel).write_text(text)
        return rep_dir

    def setup_only(self) -> float:
        rep_dir = self._new_rep_dir()
        plan = {
            "trace": False,
            "setup_only": True,
            "setup_configs": self.workload.setup_configs(self.seed),
            "invocations": [],
        }
        result = self._spawn(plan, rep_dir)
        shutil.rmtree(rep_dir)
        return result["setup_s"]

    def repetition(self, *, traced: bool) -> dict:
        """Run, check and digest one repetition; returns its worker result."""
        from freewalk.cli import parse_config

        rep_dir = self._new_rep_dir()
        invocations = self.workload.invocations(self.seed)
        plan = {
            "trace": traced,
            "setup_only": False,
            "setup_configs": self.workload.setup_configs(self.seed),
            "invocations": self.workload.argvs(self.seed),
        }
        result = self._spawn(plan, rep_dir)
        label = f"rep {self.count - 1}{' traced' if traced else ''}"
        print(
            f"{label}: wall {result['wall_s']:.3f} s, setup {result['setup_s']:.3f} s, "
            f"peak rss {result['peak_rss_mb']:.1f} MB"
        )
        for i, (inv, ran) in enumerate(zip(invocations, result["invocations"])):
            out = rep_dir / "out" / str(i)
            config = rep_dir / inv.config
            cfg = parse_config(str(config) if config.exists() else inv.config)
            try:
                problems, notes = inv.check(out, ran["rc"], cfg)
            except (OSError, KeyError, ValueError) as e:  # missing or malformed artifact
                problems, notes = [f"exit code {ran['rc']}, unreadable artifacts ({e!r})"], []
            digests = _digests(out) if out.is_dir() else {}
            first = self.first_digests.setdefault(i, digests)
            if digests != first:
                changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
                problems.append(f"artifacts differ from the first repetition: {changed}")
            if self.count == 1:
                for name, digest in digests.items():
                    print(f"  [{i}] sha256 {digest}  {name}")
            self.attempted += 1
            self.failed += bool(problems)
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            tail = f" ({', '.join(notes)})" if notes else ""
            print(f"  [{i}] {' '.join(ran['argv'])}: {status}{tail}")
        if traced:
            result["trace"] = json.loads((rep_dir / "trace.json").read_text())
        shutil.rmtree(rep_dir)
        return result

    def oracle_words(self, trace_doc: dict) -> int:
        from freewalk.cli import config_from_json
        from freewalk.core import Word

        return sum(
            self.words.count(
                config_from_json(cfg_doc), Word(tuple(tuple(lt) for lt in letters)), order
            )
            for cfg_doc, letters, order in trace_doc["oracle_calls"]
        )


def _enough(start: float, seconds: float, done: int, least: int) -> bool:
    """True once ``least`` units are done and another would pass the deadline."""
    elapsed = time.monotonic() - start
    return done >= least and elapsed + elapsed / done > seconds


def measure_plain(run: Run, seconds: float) -> dict[str, float]:
    """Medians of untraced repetitions, with set-up-only samples spread
    through the run so that ``setup_s`` rests on ``SETUP_SAMPLES`` spawns."""
    start = time.monotonic()
    reps, setups = [], []
    while True:
        reps.append(run.repetition(traced=False))
        setups.append(reps[-1]["setup_s"])
        share = min(1.0, (time.monotonic() - start) / seconds)
        while len(setups) < SETUP_SAMPLES * share:
            setups.append(run.setup_only())
        if _enough(start, seconds, len(reps), MIN_REPETITIONS):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_only())
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measure_traced(run: Run, seconds: float) -> dict[str, float]:
    """Per-layer medians of traced repetitions, each paired with the untraced
    repetition just before it for ``trace.overhead_ratio``."""
    start = time.monotonic()
    per_rep, ratios = [], []
    trace_dir = run.root / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    while True:
        plain = run.repetition(traced=False)
        traced = run.repetition(traced=True)
        ratios.append(traced["wall_s"] / plain["wall_s"] - 1.0)
        name = f"{run.workload.name}_seed{run.seed}_{os.getpid()}_{len(per_rep)}.json"
        (trace_dir / name).write_text(json.dumps(traced["trace"]))
        per_rep.append(spans.layer_metrics(traced["trace"], run.oracle_words(traced["trace"])))
        if _enough(start, seconds, len(per_rep), TRACE_PAIRS):
            break
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "freewalk" / "cli.py").is_file():
        print(f"error: no freewalk sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench" / f"run-{os.getpid()}"
    try:
        run = Run(root, workload, args.seed, run_dir)
        metrics = (measure_traced if args.trace else measure_plain)(run, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = dict(END_TO_END_UNITS, **{name: unit for name, unit, _ in spans.PER_LAYER})
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_ratio = {run.failed / run.attempted:.6g} 1 ({run.failed} of {run.attempted} invocations)")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
