"""Span and counter recorder wrapped around freewalk's module boundaries.

The recorder replaces public functions of the ``freewalk`` modules with thin
wrappers that record a span (name, layer, start, end, parent) per call and
update counters from the call's arguments and result.  A function imported
with ``from .x import y`` is bound again in every importing module, so each
wrapper is installed under every module attribute that refers to the
original.  Nothing here touches per-step or per-word methods.

Spans and counters stay in memory; :meth:`Recorder.to_json_dict` is written
out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

NO_PARENT = -1


class Recorder:
    """In-memory spans and counters of one traced process (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counters: dict[str, float] = {}
        self.oracle_calls: list[tuple] = []  # (cfg, source word, order)
        self._stack: list[int] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        layer: Callable[[inspect.BoundArguments], str],
        observe: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``layer`` maps the bound call arguments to the layer the span's self
        time is charged to; ``observe(recorder, bound, result)`` updates
        counters after the span has closed, so its cost is not charged to
        any layer.
        """
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            idx = len(spans)
            spans.append([name, layer(bound), 0.0, 0.0, stack[-1] if stack else NO_PARENT])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end
            if observe is not None:
                observe(self, bound, result)
            return result

        return wrapper

    def to_json_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p}
                for n, l, s, e, p in self.spans
            ],
            "counters": self.counters,
        }


# -- self time ------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread's call stack, so a span's children run one
    after another inside it and never overlap.
    """
    out = [end - start for _name, _layer, start, end, _parent in spans]
    for _name, _layer, start, end, parent in spans:
        if parent != NO_PARENT:
            out[parent] -= end - start
    return out


def self_time_by_layer(spans: list) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span[1]] = out.get(span[1], 0.0) + own
    return out


def top_level_time(spans: list, lo: float, hi: float) -> float:
    """Time inside ``[lo, hi]`` spent in spans that have no parent.

    Top-level spans are sequential too; clipping matters only for those
    that run during set-up, before the window opens.
    """
    return sum(
        max(0.0, min(end, hi) - max(start, lo))
        for _name, _layer, start, end, parent in spans
        if parent == NO_PARENT
    )


# -- the wrapped boundaries -------------------------------------------------------


def _fixed(layer: str) -> Callable:
    return lambda _bound: layer


def _oracle_mode(bound) -> str:
    exact = bound.arguments.get("exact", False)
    return "oracle.exact" if exact else "oracle.float"


def _series_mode(bound) -> str:
    coeffs = bound.arguments["a"].coeffs
    return "oracle.exact" if coeffs and isinstance(coeffs[0], Fraction) else "oracle.float"


def _on_simulate_batch(rec, bound, result):
    rec.add("simulator.steps", result.n * result.n_walks)


def _on_stream_uniforms(rec, bound, result):
    rec.add("simulator.uniforms", len(result))


def _on_batch_decompose(rec, bound, result):
    batch = bound.arguments["batch"]
    rec.add("simulator.decomposed_steps", batch.n * batch.n_walks)
    rec.add("simulator.kept_block_steps", int(result.delta_t.sum()))
    rec.add("simulator.blocks", result.size)
    rec.add("simulator.censored_exits", int(result.censored.sum()))


def _on_truncate_pool(rec, bound, result):
    rec.add("estimators.calibration_blocks_in", bound.arguments["pool"].size)
    rec.add("estimators.calibration_blocks_kept", result.size)


def _on_solve_xi(rec, bound, result):
    rec.add("genfun.solve_xi.calls")
    rec.add("genfun.solve_xi.iterations", result.iterations)
    rec.add("genfun.solve_xi.not_converged", 0 if result.converged else 1)


def _on_fft_law(rec, bound, result):
    rec.maximum("genfun.fft_law.unassigned_max", result.unassigned)


def _oracle_observer(source_of: Callable) -> Callable:
    def observe(rec, bound, result):
        args = bound.arguments
        rec.add("oracle.calls")
        rec.oracle_calls.append(source_of(args))

    return observe


def _on_emit(rec, bound, result):
    rec.add("cli.bytes_written", os.path.getsize(bound.arguments["path"]))


def boundaries() -> list[tuple]:
    """``(module, function, layer, observe)`` for every wrapped boundary."""
    from freewalk.core import Word

    root = Word()
    green = _oracle_observer(lambda a: (a["cfg"], a["x"], a["N"]))
    from_root = _oracle_observer(lambda a: (a["cfg"], root, a["N"]))
    from_root_nmax = _oracle_observer(lambda a: (a["cfg"], root, a["n_max"]))
    core, sim, est, gen, orc, cli = (
        "freewalk.core",
        "freewalk.simulator",
        "freewalk.estimators",
        "freewalk.genfun",
        "freewalk.oracle",
        "freewalk.cli",
    )
    return [
        (core, "validate_config", _fixed("core"), None),
        (core, "compile_kernel", _fixed("core"), None),
        (sim, "stream_uniforms", _fixed("simulator.uniforms"), _on_stream_uniforms),
        (sim, "simulate_batch", _fixed("simulator.step_kernel"), _on_simulate_batch),
        (sim, "batch_decompose", _fixed("simulator.decompose"), _on_batch_decompose),
        (sim, "batch_walk_stats", _fixed("simulator.endpoint_stats"), None),
        (sim, "simulate_pool", _fixed("simulator.pool"), None),
        (sim, "pool_to_csv_rows", _fixed("simulator.csv_rows"), None),
        (est, "run_clt_suite", _fixed("estimators"), None),
        (est, "truncate_pool", _fixed("estimators"), _on_truncate_pool),
        (est, "estimate_rates", _fixed("estimators"), None),
        (est, "estimate_sigmas", _fixed("estimators"), None),
        (gen, "solve_xi", _fixed("genfun.solve_xi"), _on_solve_xi),
        (gen, "build_context", _fixed("genfun.context"), None),
        (gen, "radius_diagnostic", _fixed("genfun.radius"), None),
        (gen, "renewal_increment_law", _fixed("genfun.fft_law"), _on_fft_law),
        (orc, "enum_green_series", _oracle_mode, green),
        (orc, "enum_L_series", _oracle_mode, green),
        (orc, "enum_xi_series", _oracle_mode, from_root),
        (orc, "exact_renewal_increment_dist", _oracle_mode, from_root_nmax),
        (orc, "return_probability_proxy", _fixed("oracle.float"), None),
        (orc, "series_combine", _series_mode, None),
        (orc, "series_to_rows", _fixed("oracle.float"), None),
        (cli, "emit_json", _fixed("cli.emit"), _on_emit),
        (cli, "emit_csv", _fixed("cli.emit"), _on_emit),
    ]


def install(rec: Recorder) -> None:
    """Wrap every boundary in every freewalk module that binds it."""
    for module_name, attr, layer, observe in boundaries():
        original = getattr(importlib.import_module(module_name), attr)
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        wrapper = rec.wrap(name, original, layer, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "freewalk" or mod_name.startswith("freewalk.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


# -- enumeration work ---------------------------------------------------------------


class WordCounter:
    """Words an order-N enumeration from a source visits, by BFS over
    :func:`freewalk.core.step_distribution`.

    The count is ``sum_{t=0..N} |supp X_t|`` for the walk started at the
    source.  It depends only on which kernel entries are positive, not on
    their values or on alpha in (0, 1), so results are memoized by the
    configuration's support pattern and reused across alphas.  The count
    does not read the oracle's internals, so it stays comparable when the
    enumeration engine changes.
    """

    def __init__(self):
        self._memo: dict[tuple, tuple[list[int], set]] = {}

    @staticmethod
    def _support_key(cfg) -> tuple:
        def pattern(f):
            return (f.vertices, f.root, tuple(tuple(p > 0 for p in row) for row in f.transition))

        return (pattern(cfg.factor1), pattern(cfg.factor2))

    def count(self, cfg, source, order: int) -> int:
        from freewalk.core import step_distribution

        key = (self._support_key(cfg), source)
        sizes, level = self._memo.get(key, ([1], {source}))
        while len(sizes) <= order:
            level = {w for x in level for w, p in step_distribution(x, cfg) if p > 0}
            sizes.append(len(level))
        self._memo[key] = (sizes, level)
        return sum(sizes[: order + 1])


# -- per-layer metrics ------------------------------------------------------------

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("simulator.steps", "count", "lower"),
    ("simulator.step_kernel.self_s", "s", "lower"),
    ("simulator.steps_per_s", "1/s", "higher"),
    ("simulator.uniforms.self_s", "s", "lower"),
    ("simulator.uniforms_per_s", "1/s", "higher"),
    ("simulator.decompose.self_s", "s", "lower"),
    ("simulator.blocks", "count", "higher"),
    ("simulator.blocks_per_s", "1/s", "higher"),
    ("simulator.censored_exits", "count", "lower"),
    ("simulator.block_yield", "1", "higher"),
    ("simulator.endpoint_stats.self_s", "s", "lower"),
    ("simulator.csv_rows.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("cli.emit_mb_per_s", "MB/s", "higher"),
    ("cli.unattributed_s", "s", "lower"),
    ("oracle.float.self_s", "s", "lower"),
    ("oracle.exact.self_s", "s", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.words", "count", "lower"),
    ("oracle.words_per_s", "1/s", "higher"),
    ("genfun.solve_xi.calls", "count", "lower"),
    ("genfun.solve_xi.iterations", "count", "lower"),
    ("genfun.solve_xi.not_converged", "count", "lower"),
    ("genfun.solve_xi.self_s", "s", "lower"),
    ("genfun.fft_law.self_s", "s", "lower"),
    ("genfun.fft_law.unassigned_max", "1", "lower"),
    ("genfun.radius.self_s", "s", "lower"),
    ("estimators.self_s", "s", "lower"),
    ("estimators.calibration_kept_ratio", "1", "higher"),
    ("core.self_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


def _per(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(doc: dict, words: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition's ``trace.json``.

    ``words`` is the enumeration work of the repetition's oracle calls (see
    :class:`WordCounter`).  ``trace.overhead_ratio`` needs the untraced runs
    and is left to the caller.
    """
    spans = [[s["name"], s["layer"], s["start"], s["end"], s["parent"]] for s in doc["spans"]]
    own = self_time_by_layer(spans)
    c = doc["counters"]
    lo, hi = doc["window"]
    oracle_s = own.get("oracle.float", 0.0) + own.get("oracle.exact", 0.0)
    return {
        "simulator.steps": c.get("simulator.steps", 0),
        "simulator.step_kernel.self_s": own.get("simulator.step_kernel", 0.0),
        "simulator.steps_per_s": _per(c.get("simulator.steps", 0), own.get("simulator.step_kernel", 0.0)),
        "simulator.uniforms.self_s": own.get("simulator.uniforms", 0.0),
        "simulator.uniforms_per_s": _per(c.get("simulator.uniforms", 0), own.get("simulator.uniforms", 0.0)),
        "simulator.decompose.self_s": own.get("simulator.decompose", 0.0),
        "simulator.blocks": c.get("simulator.blocks", 0),
        "simulator.blocks_per_s": _per(c.get("simulator.blocks", 0), own.get("simulator.decompose", 0.0)),
        "simulator.censored_exits": c.get("simulator.censored_exits", 0),
        "simulator.block_yield": _per(
            c.get("simulator.kept_block_steps", 0), c.get("simulator.decomposed_steps", 0)
        ),
        "simulator.endpoint_stats.self_s": own.get("simulator.endpoint_stats", 0.0),
        "simulator.csv_rows.self_s": own.get("simulator.csv_rows", 0.0),
        "cli.emit.self_s": own.get("cli.emit", 0.0),
        "cli.bytes_written": c.get("cli.bytes_written", 0),
        "cli.emit_mb_per_s": _per(c.get("cli.bytes_written", 0) / 1e6, own.get("cli.emit", 0.0)),
        "cli.unattributed_s": (hi - lo) - top_level_time(spans, lo, hi),
        "oracle.float.self_s": own.get("oracle.float", 0.0),
        "oracle.exact.self_s": own.get("oracle.exact", 0.0),
        "oracle.calls": c.get("oracle.calls", 0),
        "oracle.words": words,
        "oracle.words_per_s": _per(words, oracle_s),
        "genfun.solve_xi.calls": c.get("genfun.solve_xi.calls", 0),
        "genfun.solve_xi.iterations": c.get("genfun.solve_xi.iterations", 0),
        "genfun.solve_xi.not_converged": c.get("genfun.solve_xi.not_converged", 0),
        "genfun.solve_xi.self_s": own.get("genfun.solve_xi", 0.0),
        "genfun.fft_law.self_s": own.get("genfun.fft_law", 0.0),
        "genfun.fft_law.unassigned_max": c.get("genfun.fft_law.unassigned_max", 0.0),
        "genfun.radius.self_s": own.get("genfun.radius", 0.0),
        "estimators.self_s": own.get("estimators", 0.0),
        "estimators.calibration_kept_ratio": _per(
            c.get("estimators.calibration_blocks_kept", 0), c.get("estimators.calibration_blocks_in", 0)
        ),
        "core.self_s": own.get("core", 0.0),
    }
