"""Output checks of the benchmark's ``freewalk`` invocations.

Each check reads the artifacts one invocation wrote and returns
``(problems, notes)``: a problem fails the invocation, a note is printed and
gates nothing.  Reference values come from the public ``freewalk`` API and
are computed once per configuration (``functools.cache``; configurations
are frozen dataclasses), outside every timed region.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

CLT_RATE_REL_TOL = 0.01  # about 8 calibration standard errors at n=5000, M=2000
DIRECT_RATE_SE = 3.0
INCREMENT_TABLE_TOL = 1e-10
UNASSIGNED_MASS_TOL = 1e-9
MEAN_REL_TOL = 1e-6
COMPLEX_STEP = 1e-6
IDENTITIES = 25  # (1 + 2 + 2)^2 source/target words on both bundled shapes


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def load_strict_json(path: Path):
    """Parse ``path`` as strict JSON: ``Infinity`` and ``NaN`` are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@functools.cache
def law(cfg):
    from freewalk.genfun import renewal_increment_law

    return renewal_increment_law(cfg)


@functools.cache
def rates(cfg) -> dict[str, float]:
    """Exact block speed and pair-reward rates, keyed by statistic."""
    from freewalk.genfun import build_context

    exact = law(cfg)
    ctx = build_context(cfg)
    d1 = cfg.factor1.distances_from_root()
    d2 = cfg.factor2.distances_from_root()
    return {
        "block": exact.block_speed(),
        "dist": exact.rate(lambda pair: d2[pair[0]] + d1[pair[1]]),
        "entropy": exact.rate(
            lambda pair: ctx.letter_dl(2, pair[0]) + ctx.letter_dl(1, pair[1])
        ),
    }


@functools.cache
def mean_increment(cfg) -> float:
    """``F'(1)`` of the increment generating function, by complex step."""
    from freewalk.genfun import renewal_increment_gf

    return renewal_increment_gf(1.0 + 1j * COMPLEX_STEP, cfg).imag / COMPLEX_STEP


def _summaries(out: Path) -> tuple[dict, list[str]]:
    docs, problems = {}, []
    for path in sorted(out.glob("*_summary.json")):
        try:
            docs[path.name] = load_strict_json(path)
        except ValueError as e:
            problems.append(f"{path.name}: not strict JSON ({e})")
    if not docs and not problems:
        problems.append("no *_summary.json written")
    return docs, problems


def _common(out: Path, rc: int) -> tuple[dict, list[str]]:
    docs, problems = _summaries(out)
    if rc != 0:
        problems.insert(0, f"exit code {rc}")
    return docs, problems


def check_clt(out: Path, rc: int, cfg):
    docs, problems = _common(out, rc)
    doc = docs.get("clt_summary.json")
    if doc is None:
        return problems, []
    exact = rates(cfg)
    for stat, want in exact.items():
        got = doc[stat]["rate_estimate"]
        if not abs(got - want) <= CLT_RATE_REL_TOL * want:
            problems.append(f"{stat} rate {got} is not within 1% of {want}")
    return problems, []


def check_simulate(out: Path, rc: int, cfg):
    from freewalk.estimators import Z95

    docs, problems = _common(out, rc)
    doc = docs.get("simulate_summary.json")
    if doc is None:
        return problems, []
    csv_path = out / "simulate_blocks.csv"
    with csv_path.open("rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != doc["blocks"]:
        problems.append(f"simulate_blocks.csv has {rows} rows, summary says {doc['blocks']}")
    exact = rates(cfg)
    notes = []
    for name, stat in (("lambda", "dist"), ("ell", "block"), ("h", "entropy")):
        for kind in ("direct", "renewal"):
            value, half_width = doc["rates"][f"{name}_{kind}"]
            gap = (value - exact[stat]) / (half_width / Z95)
            notes.append(f"{name}_{kind} gap {gap:+.2f} SE")
            if kind == "direct" and not abs(gap) <= DIRECT_RATE_SE:
                problems.append(f"{name}_direct {value} is {gap:+.2f} SE from {exact[stat]}")
    return problems, notes


def check_oracle(out: Path, rc: int, cfg):
    docs, problems = _common(out, rc)
    doc = docs.get("oracle_check_summary.json")
    if doc is None:
        return problems, []
    if doc["failures"] != []:
        problems.append(f"{len(doc['failures'])} identity failures")
    if doc["identities_checked"] != IDENTITIES:
        problems.append(f"identities_checked = {doc['identities_checked']}, not {IDENTITIES}")
    by_label = {"".join(pair): probs for pair, probs in law(cfg).pair_probs.items()}
    worst = 0.0
    with (out / "oracle_check_increment_table.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["provenance"] != "exact":
                continue
            worst = max(worst, abs(float(row["probability"]) - by_label[row["pair"]][int(row["n"])]))
    if not worst <= INCREMENT_TABLE_TOL:
        problems.append(f"increment table differs from the FFT law by {worst:.3g}")
    return problems, [f"increment table vs FFT law {worst:.2g}"]


def check_genfun(out: Path, rc: int, cfg):
    docs, problems = _common(out, rc)
    doc = docs.get("genfun_summary.json")
    if doc is None:
        return problems, []
    inc = doc["renewal_increment"]
    if not inc["unassigned_mass"] <= UNASSIGNED_MASS_TOL:
        problems.append(f"unassigned mass {inc['unassigned_mass']:.3g} > {UNASSIGNED_MASS_TOL}")
    want = mean_increment(cfg)
    if not math.isclose(inc["mean"], want, rel_tol=MEAN_REL_TOL):
        problems.append(f"mean increment {inc['mean']} differs from F'(1) = {want}")
    return problems, []
