"""The benchmark's workloads: ``freewalk`` argument lists plus their checks.

Every workload repetition runs in a fresh process, because the program's
caches (``compile_kernel``'s LRU, the oracle's DP tables) would make a
second in-process call cheaper than any user's first.  For the same reason
no two invocations of one workload share a (config, order, mode).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import checks

GENFUN_ALPHAS = (0.1, 0.5, 0.9)
SKEWED_ALPHAS = (0.02, 0.98)  # the FFT law leaves mass unassigned here
GRID_ALPHAS = tuple(sorted(GENFUN_ALPHAS + SKEWED_ALPHAS))
GENFUN_SHAPES = ("K3xK3", "PathxK3")


@dataclass(frozen=True)
class Invocation:
    config: str  # the --config value, a named instance or a path in the repetition
    args: tuple[str, ...]  # the rest of the argument list, without --config/--out
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: Callable[[int], list[Invocation]]  # seed -> invocations
    files: Callable[[], dict[str, str]] = lambda: {}  # inputs written per repetition

    def argvs(self, seed: int) -> list[list[str]]:
        return [
            [inv.args[0], "--config", inv.config, *inv.args[1:], "--out", f"out/{i}"]
            for i, inv in enumerate(self.invocations(seed))
        ]

    def setup_configs(self, seed: int) -> list[str]:
        return list(dict.fromkeys(inv.config for inv in self.invocations(seed)))


def _clt(seed: int) -> list[Invocation]:
    args = ("clt", "--stat", "all", "--n", "5000", "--M", "2000", "--seed", str(seed))
    return [Invocation("K3xK3", args, checks.check_clt)]


def _simulate_bulk(seed: int) -> list[Invocation]:
    args = ("simulate", "--n", "4000", "--M", "1000", "--seed", str(seed))
    return [Invocation("PathxK3", args, checks.check_simulate)]


def _oracle(seed: int) -> list[Invocation]:
    return [
        Invocation("K3xK3", ("oracle-check", "--order", "14", "--float"), checks.check_oracle),
        Invocation("PathxK3", ("oracle-check", "--order", "14"), checks.check_oracle),
    ]


def _genfun_config_path(shape: str, alpha: float) -> str:
    return f"cfg/{shape}_a{alpha}.json"


def _genfun_files(alphas: tuple[float, ...]) -> Callable[[], dict[str, str]]:
    def files() -> dict[str, str]:
        from freewalk.instances import instance_k3_k3, instance_path_k3

        make = {"K3xK3": instance_k3_k3, "PathxK3": instance_path_k3}
        return {
            _genfun_config_path(shape, a): json.dumps(make[shape](a).to_json_dict(), sort_keys=True)
            for shape in GENFUN_SHAPES
            for a in alphas
        }

    return files


def _genfun(alphas: tuple[float, ...]) -> Callable[[int], list[Invocation]]:
    def invocations(seed: int) -> list[Invocation]:
        return [
            Invocation(_genfun_config_path(shape, a), ("genfun",), checks.check_genfun)
            for shape in GENFUN_SHAPES
            for a in alphas
        ]

    return invocations


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clt",
            "the headline CLT run on K3xK3; bound by the step kernel and the "
            "decomposition of the 1200x8000 calibration pool",
            _clt,
        ),
        Workload(
            "simulate_bulk",
            "every PathxK3 walk is decomposed and written as a 492k-row block "
            "CSV, so CSV row building and emission dominate",
            _simulate_bulk,
        ),
        Workload(
            "oracle",
            "order-14 path enumeration, float on K3xK3 and exact on PathxK3; "
            "never runs the simulator",
            _oracle,
        ),
        Workload(
            "genfun",
            "fixed point, radius probe and FFT law on both shapes at alpha "
            "0.1, 0.5 and 0.9",
            _genfun(GENFUN_ALPHAS),
            _genfun_files(GENFUN_ALPHAS),
        ),
        Workload(
            "genfun_grid",
            "the genfun workload plus alpha 0.02 and 0.98, where the FFT law "
            "leaves mass unassigned; a known failure, not in BENCHMARK.json",
            _genfun(GRID_ALPHAS),
            _genfun_files(GRID_ALPHAS),
        ),
    )
}
