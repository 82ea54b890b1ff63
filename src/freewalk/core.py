"""Words, configurations and the walk kernel on the free product of two
finite rooted graphs.

The state space is the set of finite words over the non-root vertices of two
rooted factor graphs, with no two consecutive letters from the same factor.
The empty word ``o`` is the root.  A step of the walk picks factor ``i`` with
probability ``alpha_i`` and then moves the active coordinate of factor ``i``
(the last letter if the word ends in factor ``i``, otherwise the root of a
fresh copy) according to the factor transition matrix.  Words are kept
normalized: root letters are never stored, so a move onto a factor root pops
the last letter.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

ROW_SUM_TOL = 1e-12

# move actions of the normalized word under one kernel step
PUSH, REPLACE, POP = 0, 1, 2


class FreewalkError(Exception):
    """Base class for all package errors."""


class InvalidConfig(FreewalkError):
    """A configuration document that is missing, malformed or ill-typed, or
    a configuration that fails validation where an operation requires one
    that passes."""


class IncompatibleLetters(FreewalkError):
    """Concatenation would place two letters of the same factor side by side."""


@dataclass(frozen=True)
class Word:
    """A normalized element of the free product: alternating non-root letters.

    Letters are ``(factor_id, vertex_name)`` pairs.  The empty tuple is the
    root word ``o``.  Alternation is checked on construction; exclusion of
    root vertices is enforced when a word is bound to a concrete
    configuration (see :meth:`CompiledKernel.encode`).
    """

    letters: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for fac, _ in self.letters:
            if fac not in (1, 2):
                raise ValueError(f"factor id must be 1 or 2, got {fac}")
            if fac == prev:
                raise IncompatibleLetters(
                    "two consecutive letters lie in the same factor"
                )
            prev = fac

    def __repr__(self) -> str:
        if not self.letters:
            return "Word(o)"
        return "Word(" + ".".join(f"{v}@{f}" for f, v in self.letters) + ")"


@dataclass(frozen=True)
class FactorSpec:
    """One finite rooted factor graph with a row-stochastic transition matrix.

    ``vertices`` is an ordered tuple of distinct string names, ``root`` one
    of them, and ``transition[i][j]`` the probability of stepping from
    ``vertices[i]`` to ``vertices[j]``.
    """

    factor_id: int
    vertices: tuple[str, ...]
    root: str
    transition: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.factor_id not in (1, 2):
            raise ValueError("factor_id must be 1 or 2")
        if not all(isinstance(v, str) for v in (*self.vertices, self.root)):
            raise ValueError(f"vertex names must be strings: {self.vertices}, root {self.root!r}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex names must be distinct")
        if self.root not in self.vertices:
            raise ValueError(f"root {self.root!r} not among vertices")
        n = len(self.vertices)
        if len(self.transition) != n or any(len(r) != n for r in self.transition):
            raise ValueError("transition matrix shape does not match vertices")

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def root_index(self) -> int:
        return self.vertices.index(self.root)

    @property
    def nonroot(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v != self.root)

    def index(self, vertex: str) -> int:
        return self.vertices.index(vertex)

    def matrix(self) -> np.ndarray:
        return np.array(self.transition, dtype=float)

    def distances_from_root(self) -> dict[str, int]:
        """BFS distances from the root on the positive-entry digraph."""
        dist = {self.root: 0}
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            i = self.index(v)
            for j, p in enumerate(self.transition[i]):
                w = self.vertices[j]
                if p > 0 and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist


@dataclass(frozen=True)
class ParameterBinding:
    """Binds one factor transition entry to a named parameter index."""

    factor: int
    source: str
    target: str
    index: int

    def __post_init__(self) -> None:
        if not (isinstance(self.source, str) and isinstance(self.target, str)):
            raise ValueError(
                f"binding endpoints must be strings: {self.source!r} -> {self.target!r}"
            )


@dataclass(frozen=True)
class LoopWitness:
    """Certificate that some non-root vertex returns to itself: P_j^n(y, y) > 0."""

    factor: int
    vertex: str
    power: int

    def __post_init__(self) -> None:
        if not isinstance(self.vertex, str):
            raise ValueError(f"loop witness vertex {self.vertex!r} is not a string")


@dataclass(frozen=True)
class WalkConfig:
    """Full configuration of the free-product walk.

    ``alpha`` is the weight of factor 1 (factor 2 gets ``1 - alpha``);
    ``epsilon0`` an optional uniformity floor for the positive kernel
    entries; ``parameters`` an optional exact parameterization of the kernel
    entries; ``loop_witness`` an optional explicit return-loop certificate
    (discovered automatically during validation when omitted).
    """

    factor1: FactorSpec
    factor2: FactorSpec
    alpha: float
    epsilon0: Optional[float] = None
    parameters: tuple[float, ...] = ()
    bindings: tuple[ParameterBinding, ...] = ()
    loop_witness: Optional[LoopWitness] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"config name {self.name!r} is not a string")

    @property
    def alphas(self) -> tuple[float, float]:
        return (self.alpha, 1.0 - self.alpha)

    def factor(self, i: int) -> FactorSpec:
        if i == 1:
            return self.factor1
        if i == 2:
            return self.factor2
        raise ValueError(f"no factor {i}")

    def to_json_dict(self) -> dict:
        doc = {
            "alpha": self.alpha,
            "factor1": _factor_to_json(self.factor1),
            "factor2": _factor_to_json(self.factor2),
        }
        if self.name:
            doc["name"] = self.name
        if self.epsilon0 is not None:
            doc["epsilon0"] = self.epsilon0
        if self.parameters:
            doc["parameters"] = {
                "values": list(self.parameters),
                "bindings": [
                    {
                        "factor": b.factor,
                        "from": b.source,
                        "to": b.target,
                        "index": b.index,
                    }
                    for b in self.bindings
                ],
            }
        if self.loop_witness is not None:
            doc["loop_witness"] = {
                "factor": self.loop_witness.factor,
                "vertex": self.loop_witness.vertex,
                "power": self.loop_witness.power,
            }
        return doc

    def digest(self) -> str:
        """Stable hash of the configuration, embedded in every artifact."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _factor_to_json(f: FactorSpec) -> dict:
    return {
        "vertices": list(f.vertices),
        "root": f.root,
        "transition": [list(row) for row in f.transition],
    }


def _factor_from_json(doc: dict, factor_id: int) -> FactorSpec:
    try:
        vertices = tuple(doc["vertices"])
        root = doc.get("root", vertices[0])
        transition = tuple(tuple(float(p) for p in row) for row in doc["transition"])
    except (KeyError, TypeError, IndexError) as e:
        raise InvalidConfig(f"factor{factor_id}: malformed ({e})") from e
    return FactorSpec(
        factor_id=factor_id, vertices=vertices, root=root, transition=transition
    )


def config_from_json(doc: dict) -> WalkConfig:
    """Build a configuration from its JSON document (schema in the README),
    the one :meth:`WalkConfig.to_json_dict` writes, unvalidated."""
    try:
        alpha = float(doc["alpha"])
        f1 = _factor_from_json(doc["factor1"], 1)
        f2 = _factor_from_json(doc["factor2"], 2)
    except KeyError as e:
        raise InvalidConfig(f"missing required field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise InvalidConfig(str(e)) from e
    params: tuple[float, ...] = ()
    bindings: tuple[ParameterBinding, ...] = ()
    witness = None
    try:
        epsilon0 = float(doc["epsilon0"]) if "epsilon0" in doc else None
        if "parameters" in doc:
            p = doc["parameters"]
            params = tuple(float(v) for v in p.get("values", []))
            bindings = tuple(
                ParameterBinding(int(b["factor"]), b["from"], b["to"], int(b["index"]))
                for b in p.get("bindings", [])
            )
        if "loop_witness" in doc:
            w = doc["loop_witness"]
            witness = LoopWitness(int(w["factor"]), w["vertex"], int(w["power"]))
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidConfig(f"malformed optional section: {e}") from e
    try:
        return WalkConfig(
            factor1=f1,
            factor2=f2,
            alpha=alpha,
            epsilon0=epsilon0,
            parameters=params,
            bindings=bindings,
            loop_witness=witness,
            name=doc.get("name", ""),
        )
    except ValueError as e:
        raise InvalidConfig(str(e)) from e


@dataclass
class ValidationReport:
    """Per-invariant pass/fail results for a :class:`WalkConfig`."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }


def _find_loop_witness(factor: FactorSpec) -> Optional[LoopWitness]:
    mat = factor.matrix() > 0
    power = mat.copy()
    for n in range(1, 2 * factor.size + 1):
        if n > 1:
            power = power @ mat
        for v in factor.nonroot:
            i = factor.index(v)
            if power[i, i]:
                return LoopWitness(factor.factor_id, v, n)
    return None


def validate_config(cfg: WalkConfig) -> ValidationReport:
    """Check every structural assumption the rest of the package relies on.

    A failed report blocks kernel compilation and therefore every other
    module.  The checks mirror the standing assumptions on the factors
    (stochastic rows, zero diagonals, root-accessibility, at least two
    vertices), the exclusion of the recurrent two-times-two case, the range
    of ``alpha``, the optional uniformity floor, the optional exact
    parameterization, and the return-loop certificate.
    """
    report = ValidationReport()
    for f in (cfg.factor1, cfg.factor2):
        tag = f"factor{f.factor_id}"
        report.add(f"{tag}.size", f.size >= 2, f"|V{f.factor_id}| = {f.size} >= 2")
        mat = f.matrix()
        bad_rows = [
            f.vertices[i]
            for i in range(f.size)
            # NaN fails no comparison, so finiteness is checked first
            if not np.isfinite(mat[i]).all()
            or abs(mat[i].sum() - 1.0) > ROW_SUM_TOL
            or (mat[i] < 0).any()
        ]
        report.add(
            f"{tag}.row_stochastic",
            not bad_rows,
            "rows sum to 1" if not bad_rows else f"bad rows: {bad_rows}",
        )
        diag_bad = [f.vertices[i] for i in range(f.size) if mat[i, i] != 0.0]
        report.add(
            f"{tag}.zero_diagonal",
            not diag_bad,
            "diagonal must be zero" if diag_bad else "no self-loops",
        )
        dist = f.distances_from_root()
        missing = [v for v in f.vertices if v not in dist]
        report.add(
            f"{tag}.reachable",
            not missing,
            "all vertices reachable from root"
            if not missing
            else f"unreachable from root: {missing}",
        )
    report.add(
        "recurrent-case exclusion",
        not (cfg.factor1.size == 2 and cfg.factor2.size == 2),
        "two 2-vertex factors give a recurrent walk"
        if cfg.factor1.size == 2 and cfg.factor2.size == 2
        else "at least one factor has more than 2 vertices",
    )
    report.add(
        "alpha_range",
        0.0 < cfg.alpha < 1.0,
        f"alpha must lie in (0,1), got {cfg.alpha}",
    )

    if cfg.epsilon0 is not None:
        ok = 0.0 < cfg.epsilon0 <= 1.0
        below = [
            a * p
            for a, f in zip(cfg.alphas, (cfg.factor1, cfg.factor2))
            for row in f.transition
            for p in row
            if p > 0 and a * p < cfg.epsilon0 - 1e-15
        ]
        if not ok:
            detail = f"epsilon0 must lie in (0, 1], got {cfg.epsilon0}"
        elif below:
            detail = f"kernel entry {min(below)} below epsilon0 = {cfg.epsilon0}"
        else:
            detail = "every positive kernel entry >= epsilon0"
        report.add("epsilon0_floor", ok and not below, detail)

    witness = cfg.loop_witness
    if witness is None:
        witness = _find_loop_witness(cfg.factor1) or _find_loop_witness(cfg.factor2)
        report.add(
            "loop_witness",
            witness is not None,
            f"discovered {witness}" if witness else "no vertex returns to itself",
        )
    else:
        ok = witness.factor in (1, 2) and witness.power >= 1
        if ok:
            f = cfg.factor(witness.factor)
            ok = witness.vertex in f.nonroot
        if ok:
            power = np.linalg.matrix_power(f.matrix(), witness.power)
            ok = power[f.index(witness.vertex), f.index(witness.vertex)] > 0
        report.add(
            "loop_witness",
            ok,
            f"P_{witness.factor}^{witness.power}({witness.vertex},{witness.vertex}) > 0"
            if ok
            else f"witness {witness} does not verify",
        )

    if cfg.parameters:
        bound = {}
        for b in cfg.bindings:
            if not (0 <= b.index < len(cfg.parameters)):
                report.add("parameters", False, f"binding index {b.index} out of range")
                return report
            bound[(b.factor, b.source, b.target)] = cfg.parameters[b.index]
        ok = True
        detail = "all positive kernel entries bound exactly"
        for i, f in ((1, cfg.factor1), (2, cfg.factor2)):
            a = cfg.alphas[i - 1]
            for src in f.vertices:
                for tgt in f.vertices:
                    p = f.transition[f.index(src)][f.index(tgt)]
                    if p <= 0:
                        continue
                    want = bound.get((i, src, tgt))
                    if want is None:
                        ok = False
                        detail = f"unbound positive entry ({i},{src},{tgt})"
                    elif a * p != want:
                        ok = False
                        detail = (
                            f"entry ({i},{src},{tgt}) = {a * p} != parameter {want}"
                        )
        report.add("parameters", ok, detail)

    return report


@dataclass(frozen=True)
class Move:
    """One kernel move out of a sampling state, in canonical order."""

    prob: float
    exact_prob: Fraction
    action: int  # PUSH / REPLACE / POP
    letter: int  # new letter code; 0 for POP


class CompiledKernel:
    """Tables for fast stepping and enumeration.

    Letters are encoded as integers ``1..C`` (factor-1 non-root vertices
    first, then factor-2), and a *sampling state* is the code of the last
    letter, or ``0`` for the root word.  For each state the outgoing kernel
    moves are stored in a canonical order (factor 1 then factor 2, targets in
    vertex order) together with cumulative probabilities, so that one
    uniform variate drives one step via inversion.  The same tables back the
    batch sampler and the word-level reference walk of the tests
    (``tests/reference_walk.py``), and the word index of the exact
    enumeration oracle (:class:`freewalk.oracle.WordIndex`, built
    on first use, not here) takes its successor table and weights from
    ``moves``, which keeps all of them consistent by construction.
    """

    def __init__(self, cfg: WalkConfig):
        report = validate_config(cfg)
        if not report.ok:
            raise InvalidConfig("; ".join(f"{n}: {d}" for n, d in report.failures()))
        self.cfg = cfg
        codes: list[tuple[int, str]] = [(0, "")]  # index 0 reserved for the root state
        for i in (1, 2):
            for v in cfg.factor(i).nonroot:
                codes.append((i, v))
        self.letter_of_code = codes
        self.code_of_letter = {lt: c for c, lt in enumerate(codes) if c > 0}
        self.n_letters = len(codes) - 1
        self.factor_of_code = np.array([f for f, _ in codes], dtype=np.int8)

        dists = [0.0]
        for i in (1, 2):
            table = cfg.factor(i).distances_from_root()  # every vertex, as validated
            dists += [float(table[v]) for v in cfg.factor(i).nonroot]
        self.letter_distance = np.array(dists)

        self.moves: list[list[Move]] = [self._moves_for_state(s) for s in range(len(codes))]
        width = max(len(m) for m in self.moves)
        n_states = len(codes)
        self.cum = np.ones((n_states, width))
        self.act = np.full((n_states, width), POP, dtype=np.int8)
        self.let = np.zeros((n_states, width), dtype=np.int16)
        for s, moves in enumerate(self.moves):
            acc = 0.0
            for j, mv in enumerate(moves):
                acc += mv.prob
                self.cum[s, j] = acc
                self.act[s, j] = mv.action
                self.let[s, j] = mv.letter
            # rows are validated stochastic; pin the top to exactly 1
            self.cum[s, len(moves) - 1 :] = 1.0

    def _moves_for_state(self, state: int) -> list[Move]:
        cfg = self.cfg
        out: list[Move] = []
        state_factor = self.factor_of_code[state] if state else 0
        for i in (1, 2):
            f = cfg.factor(i)
            a = cfg.alphas[i - 1]
            a_exact = Fraction(cfg.alpha) if i == 1 else 1 - Fraction(cfg.alpha)
            if state and state_factor == i:
                active = self.letter_of_code[state][1]
            else:
                active = f.root
            row = f.transition[f.index(active)]
            for j, target in enumerate(f.vertices):
                p = row[j]
                if p <= 0:
                    continue
                if target == f.root:
                    action, letter = POP, 0
                elif state and state_factor == i:
                    action, letter = REPLACE, self.code_of_letter[(i, target)]
                else:
                    action, letter = PUSH, self.code_of_letter[(i, target)]
                out.append(Move(a * p, a_exact * Fraction(p), action, letter))
        return out

    # -- word/code conversions ------------------------------------------------

    def encode(self, w: Word) -> tuple[int, ...]:
        try:
            return tuple(self.code_of_letter[lt] for lt in w.letters)
        except KeyError as e:
            raise ValueError(f"letter {e.args[0]} is a root or unknown vertex") from e

    def decode(self, codes: Iterable[int]) -> Word:
        return Word(tuple(self.letter_of_code[c] for c in codes))

    # -- successor enumeration ------------------------------------------------

    def successors(self, codes: tuple[int, ...]) -> list[tuple[tuple[int, ...], float]]:
        """All one-step successors of a word (as code tuple) with probabilities."""
        state = codes[-1] if codes else 0
        out = []
        for mv in self.moves[state]:
            if mv.action == POP:
                nxt = codes[:-1]
            elif mv.action == REPLACE:
                nxt = codes[:-1] + (mv.letter,)
            else:
                nxt = codes + (mv.letter,)
            out.append((nxt, mv.prob))
        return out


@lru_cache(maxsize=32)
def compile_kernel(cfg: WalkConfig) -> CompiledKernel:
    return CompiledKernel(cfg)


def step_distribution(x: Word, cfg: WalkConfig) -> list[tuple[Word, float]]:
    """The full one-step law of the walk at word ``x``.

    Probabilities sum to one and results are normalized words (a move onto a
    factor root removes the trailing letter).
    """
    kernel = compile_kernel(cfg)
    codes = kernel.encode(x)
    return [(kernel.decode(c), p) for c, p in kernel.successors(codes)]
