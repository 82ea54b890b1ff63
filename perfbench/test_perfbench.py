"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the root."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from freewalk.cli import main as freewalk_main  # noqa: E402
from freewalk.instances import instance_k3_k3, instance_path_k3  # noqa: E402


# -- self time --------------------------------------------------------------------


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent]


def test_self_time_of_a_nest():
    nest = [
        _span("a", "outer", 0.0, 10.0, spans.NO_PARENT),
        _span("b", "inner", 1.0, 4.0, 0),
        _span("c", "leaf", 2.0, 3.0, 1),
        _span("d", "inner", 5.0, 9.0, 0),
        _span("e", "outer", 10.0, 12.0, spans.NO_PARENT),
    ]
    assert spans.self_times(nest) == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])
    assert spans.self_time_by_layer(nest) == pytest.approx(
        {"outer": 5.0, "inner": 6.0, "leaf": 1.0}
    )
    # top-level spans clipped to the window [0.5, 11]
    assert spans.top_level_time(nest, 0.5, 11.0) == pytest.approx(9.5 + 1.0)


# -- wrappers ---------------------------------------------------------------------


def test_wrapper_returns_the_identical_object_and_records_a_span():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    marker = object()

    def fn(x, exact=False):
        return marker

    wrapped = rec.wrap("oracle.fn", fn, spans._oracle_mode)
    assert wrapped(1, exact=True) is marker
    assert rec.spans == [["oracle.fn", "oracle.exact", 0.0, 1.0, spans.NO_PARENT]]


def test_wrapper_closes_its_span_when_the_call_raises():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("m.boom", boom, spans._fixed("m"))()
    assert rec.spans[0][3] >= rec.spans[0][2] and rec._stack == []


def test_install_wraps_every_binding_and_keeps_results_identical():
    script = """
import freewalk.cli as cli, freewalk.estimators as est, freewalk.core as core
import freewalk.simulator as sim
from freewalk.instances import instance_k3_k3
original = core.compile_kernel
cfg = instance_k3_k3()
import spans
rec = spans.Recorder()
spans.install(rec)
assert cli.compile_kernel is core.compile_kernel is est.compile_kernel is not original
assert cli.simulate_pool is est.simulate_pool is sim.simulate_pool
assert sim.stream_uniforms.__wrapped__ is not None
assert cli.compile_kernel(cfg) is original(cfg)
# the kernel validates its config through the wrapped core name: a nested span
assert [(s[0], s[4]) for s in rec.spans] == [
    ("core.compile_kernel", spans.NO_PARENT), ("core.validate_config", 0)
]
"""
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_word_counter_levels_and_reuse_across_alpha():
    from freewalk.core import Word

    counter = spans.WordCounter()
    # from the root of K3xK3 one step reaches the four one-letter words
    assert counter.count(instance_k3_k3(), Word(), 1) == 1 + 4
    deep = counter.count(instance_k3_k3(), Word(), 6)
    assert counter.count(instance_k3_k3(alpha=0.3), Word(), 6) == deep
    assert counter.count(instance_path_k3(), Word(), 1) == 1 + 3


# -- output checks ----------------------------------------------------------------


def _freewalk(tmp_path, *argv) -> Path:
    out = tmp_path / "out"
    assert freewalk_main([*argv, "--out", str(out)]) == 0
    return out


def test_summary_with_infinity_is_rejected(tmp_path):
    cfg = instance_k3_k3()
    out = _freewalk(tmp_path, "genfun", "--config", "K3xK3")
    assert checks.check_genfun(out, 0, cfg)[0] == []
    summary = out / "genfun_summary.json"
    doc = json.loads(summary.read_text())
    doc["renewal_increment"]["variance"] = math.inf
    summary.write_text(json.dumps(doc))
    problems, _ = checks.check_genfun(out, 0, cfg)
    assert any("not strict JSON" in p for p in problems)


def test_block_csv_one_row_short_is_rejected(tmp_path):
    cfg = instance_path_k3()
    out = _freewalk(
        tmp_path, "simulate", "--config", "PathxK3", "--n", "1500", "--M", "40", "--seed", "1"
    )
    assert checks.check_simulate(out, 0, cfg)[0] == []
    csv_path = out / "simulate_blocks.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]))
    problems, _ = checks.check_simulate(out, 0, cfg)
    assert any("rows" in p for p in problems)


def test_nonzero_exit_is_rejected(tmp_path):
    cfg = instance_k3_k3()
    out = _freewalk(tmp_path, "oracle-check", "--config", "K3xK3", "--order", "6", "--float")
    assert checks.check_oracle(out, 0, cfg)[0] == []
    problems, _ = checks.check_oracle(out, 5, cfg)
    assert problems[0] == "exit code 5"


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        spans.PER_LAYER
    )
