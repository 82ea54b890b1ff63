"""One workload repetition in a fresh process.

Usage: ``python3 worker.py PLAN.json SPAWNED`` from the repetition's own
directory, where ``SPAWNED`` is the parent's ``time.monotonic()`` just before
it started this process.  The plan names the configs to load during set-up,
the ``freewalk`` argument lists to run in order, and whether to trace.  The worker writes ``result.json`` (set-up time, wall time,
per-invocation exit codes and times, peak RSS) and, when tracing, the spans
and counters to ``trace.json``.
"""

import json
import resource
import sys
import time
import traceback


def main(plan_path: str, spawned: float) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    recorder = None
    if plan["trace"]:
        import spans  # found next to this script

        recorder = spans.Recorder()
        spans.install(recorder)

    from freewalk.cli import main as freewalk_main, parse_config
    from freewalk.core import compile_kernel

    for config in plan["setup_configs"]:
        compile_kernel(parse_config(config))
    setup_s = time.monotonic() - spawned

    invocations = []
    if not plan["setup_only"]:
        for argv in plan["invocations"]:
            start = time.perf_counter()
            try:
                rc = freewalk_main(argv)
            except Exception:  # a crash is a failed invocation, as for the CLI
                traceback.print_exc()
                rc = 1
            end = time.perf_counter()
            invocations.append({"argv": argv, "rc": rc, "start": start, "end": end})
    result = {
        "setup_s": setup_s,
        "invocations": invocations,
        "wall_s": invocations[-1]["end"] - invocations[0]["start"] if invocations else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        doc = recorder.to_json_dict()
        doc["oracle_calls"] = [
            [cfg.to_json_dict(), [list(lt) for lt in source.letters], order]
            for cfg, source, order in recorder.oracle_calls
        ]
        doc["window"] = [invocations[0]["start"], invocations[-1]["end"]]
        with open("trace.json", "w") as fh:
            json.dump(doc, fh)
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
