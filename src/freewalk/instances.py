"""Bundled example configurations used by the CLI shortcuts and the test suite."""

from __future__ import annotations

from .core import FactorSpec, LoopWitness, ParameterBinding, WalkConfig


def _k3(factor_id: int, names: tuple[str, str, str]) -> FactorSpec:
    return FactorSpec(
        factor_id=factor_id,
        vertices=names,
        root=names[0],
        transition=(
            (0.0, 0.5, 0.5),
            (0.5, 0.0, 0.5),
            (0.5, 0.5, 0.0),
        ),
    )


def _path3(factor_id: int, names: tuple[str, str, str]) -> FactorSpec:
    # reflecting walk on the path names[0] - names[1] - names[2]
    return FactorSpec(
        factor_id=factor_id,
        vertices=names,
        root=names[0],
        transition=(
            (0.0, 1.0, 0.0),
            (0.5, 0.0, 0.5),
            (0.0, 1.0, 0.0),
        ),
    )


def instance_k3_k3(alpha: float = 0.5) -> WalkConfig:
    """Two complete 3-vertex factors with uniform off-diagonal rows.

    At ``alpha = 1/2`` every positive kernel entry equals 1/4, so the walk
    depends on a single parameter and admits several closed-form checks
    (exit probability 2/3, block speed 1/4, mean renewal increment 8).
    """
    factor1, factor2 = _k3(1, ("o1", "a", "b")), _k3(2, ("o2", "c", "d"))
    if alpha == 0.5:
        params: tuple[float, ...] = (0.25,)
        index = (0, 0)  # both factors bound to the one parameter
    else:
        params = (alpha * 0.5, (1.0 - alpha) * 0.5)
        index = (0, 1)
    bindings = tuple(
        ParameterBinding(f.factor_id, src, tgt, index[f.factor_id - 1])
        for f in (factor1, factor2)
        for src in f.vertices
        for tgt in f.vertices
        if src != tgt
    )
    return WalkConfig(
        factor1=factor1,
        factor2=factor2,
        alpha=alpha,
        epsilon0=min(alpha, 1.0 - alpha) * 0.5,
        parameters=params,
        bindings=bindings,
        loop_witness=LoopWitness(1, "a", 2),
        name="K3xK3" if alpha == 0.5 else f"K3xK3(alpha={alpha})",
    )


def instance_path_k3(alpha: float = 0.5) -> WalkConfig:
    """A reflecting 3-path against a complete 3-vertex factor.

    Letter distances differ across factor-1 vertices (the far end of the
    path sits at distance 2), so the graph-distance and block-length
    statistics genuinely decouple on this instance.
    """
    return WalkConfig(
        factor1=_path3(1, ("o1", "m", "e")),
        factor2=_k3(2, ("o2", "c", "d")),
        alpha=alpha,
        epsilon0=min(alpha * 0.5, (1.0 - alpha) * 0.5),
        loop_witness=LoopWitness(1, "m", 2),
        name="PathxK3" if alpha == 0.5 else f"PathxK3(alpha={alpha})",
    )


NAMED_INSTANCES = {
    "K3xK3": instance_k3_k3,
    "PathxK3": instance_path_k3,
}
