"""Config loading, command dispatch, and bit-stable report emission.

Commands
--------
validate      check a configuration against every structural invariant
genfun        exit probabilities, letter L-table, C_L, radius diagnostic
oracle-check  coefficientwise identity suite (enumeration vs linear solves)
simulate      sample walks, decompose, write block CSV + summary
clt           CLT experiment for one or all statistics
diagnostics   i.i.d. and exponential-tail diagnostics on a fresh pool
sweep         rate/variance smoothness probe over an alpha grid

Exit codes: 0 ok, 2 usage, 3 validation, 4 numeric, 5 statistical assertion
failed.  Every artifact embeds the config digest and master seed; identical
inputs give byte-identical outputs (sorted keys, 12 significant digits).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    FactorSpec,
    FreewalkError,
    InvalidConfig,
    LoopWitness,
    ParameterBinding,
    UnreachableVertex,
    WalkConfig,
    Word,
    compile_kernel,
    validate_config,
)
from .estimators import (
    DegenerateSample,
    EmptyPool,
    InsufficientBlocks,
    InvalidGridPoint,
    MissingEpsilon0,
    DiagnosticsReport,
    estimate_rates,
    estimate_sigmas,
    iid_diagnostics,
    run_clt_suite,
    smoothness_probe,
    tail_diagnostic,
)
from .genfun import (
    NoConvergence,
    NonpositiveL,
    SingularSolve,
    build_context,
    clt_constants,
    radius_diagnostic,
    renewal_increment_law,
)
from .instances import NAMED_INSTANCES
from .oracle import (
    DEFAULT_ORDER_CAP,
    ComposeNeedsZeroConstant,
    OrderTooLarge,
    enum_green_series,
    enum_L_series,
    enum_xi_series,
    exact_renewal_increment_dist,
    max_coeff_gap,
    series_combine,
    series_to_rows,
)
from .simulator import pool_to_csv_rows, simulate_pool

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_STATISTICAL = 5


class ParseError(FreewalkError):
    """The configuration document is missing, malformed, or ill-typed."""


VALIDATION_ERRORS = (InvalidConfig, ParseError)
NUMERIC_ERRORS = (
    SingularSolve,
    NoConvergence,
    NonpositiveL,
    OrderTooLarge,
    ComposeNeedsZeroConstant,
    UnreachableVertex,
)
STATISTICAL_ERRORS = (
    EmptyPool,
    MissingEpsilon0,
    DegenerateSample,
    InsufficientBlocks,
    InvalidGridPoint,
)


@dataclass
class RunManifest:
    """What a run was asked to do; embedded in every artifact it emits."""

    command: str
    config_path: str
    output_dir: str
    master_seed: int
    overrides: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config_path,
            "output_dir": self.output_dir,
            "master_seed": self.master_seed,
            "overrides": self.overrides,
        }


def _factor_from_json(doc: dict, factor_id: int) -> FactorSpec:
    try:
        vertices = tuple(doc["vertices"])
        root = doc.get("root", vertices[0])
        transition = tuple(tuple(float(p) for p in row) for row in doc["transition"])
    except (KeyError, TypeError, IndexError) as e:
        raise ParseError(f"factor{factor_id}: malformed ({e})") from e
    return FactorSpec(
        factor_id=factor_id, vertices=vertices, root=root, transition=transition
    )


def config_from_json(doc: dict) -> WalkConfig:
    """Build a configuration from its JSON document (schema in the README)."""
    try:
        alpha = float(doc["alpha"])
        f1 = _factor_from_json(doc["factor1"], 1)
        f2 = _factor_from_json(doc["factor2"], 2)
    except KeyError as e:
        raise ParseError(f"missing required field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise ParseError(str(e)) from e
    params: tuple[float, ...] = ()
    bindings: tuple[ParameterBinding, ...] = ()
    witness = None
    try:
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
        raise ParseError(f"malformed optional section: {e}") from e
    return WalkConfig(
        factor1=f1,
        factor2=f2,
        alpha=alpha,
        epsilon0=float(doc["epsilon0"]) if "epsilon0" in doc else None,
        parameters=params,
        bindings=bindings,
        loop_witness=witness,
        name=doc.get("name", ""),
    )


def load_config(path: str) -> WalkConfig:
    """Load a configuration from a file or a named shortcut, unvalidated."""
    if path in NAMED_INSTANCES:
        return NAMED_INSTANCES[path]()
    p = Path(path)
    if not p.exists():
        raise ParseError(f"config {path!r}: no such file or named instance")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path!r}: invalid JSON ({e})") from e
    return config_from_json(doc)


def parse_config(path: str) -> WalkConfig:
    """Load and validate a configuration from a file or a named shortcut."""
    cfg = load_config(path)
    report = validate_config(cfg)
    if not report.ok:
        raise InvalidConfig(
            "; ".join(f"{name}: {detail}" for name, detail in report.failures())
        )
    return cfg


# -- bit-stable emission --------------------------------------------------------


def _round_floats(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.floating):
        return _round_floats(float(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    return obj


def emit_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(_round_floats(doc), sort_keys=True, indent=2, allow_nan=False)
    blob += "\n"
    path.write_text(blob)


def _csv_cells(column) -> list:
    """One column's cells as ``csv.writer`` takes them: floats as ``.12g``."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            # one format per distinct bit pattern; unique floats would merge -0.0 into 0.0
            bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
            text = np.array([f"{v:.12g}" for v in bits.view(np.float64)], dtype=object)
            return text[inverse].tolist()
        if column.dtype.kind in "iubU":
            return column.tolist()
    return [f"{v:.12g}" if isinstance(v, float) else v for v in column]


def emit_csv(table: Mapping[str, Sequence], path: Path) -> None:
    """Write a table given as column name -> column (numpy array or list).

    A float cell, numpy float64 included, is written as ``f"{v:.12g}"``;
    every other cell goes to ``csv.writer`` as it is, so ``None`` becomes an
    empty field and a ``Fraction`` or ``bool`` its ``str``.  Lists are never
    converted to arrays, so an int in a list of floats stays an int.  A table
    with no rows is its header line; columns of unequal length raise
    ``ValueError``.
    """
    cells = [_csv_cells(column) for column in table.values()]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.keys())
        writer.writerows(zip(*cells, strict=True))


def emit_report(
    doc: dict,
    manifest: RunManifest,
    cfg: WalkConfig,
    name: str,
    csv_rows: Optional[dict[str, Mapping[str, Sequence]]] = None,
) -> list[Path]:
    """Write the JSON summary plus one CSV per table of ``csv_rows``."""
    out_dir = Path(manifest.output_dir)
    doc = dict(doc)
    doc["manifest"] = manifest.to_json_dict()
    doc["config_digest"] = cfg.digest()
    doc["master_seed"] = manifest.master_seed
    paths = [out_dir / f"{name}_summary.json"]
    emit_json(doc, paths[0])
    for label, table in (csv_rows or {}).items():
        p = out_dir / f"{name}_{label}.csv"
        emit_csv(table, p)
        paths.append(p)
    return paths


# -- commands --------------------------------------------------------------------


def _cmd_validate(args, manifest: RunManifest) -> int:
    cfg = load_config(args.config)
    report = validate_config(cfg)
    emit_report(report.to_json_dict(), manifest, cfg, "validate")
    for name, ok, detail in report.checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_genfun(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    ctx = build_context(cfg)
    radius = radius_diagnostic(cfg)
    law = renewal_increment_law(cfg)
    constants = clt_constants(law, cfg, ctx)
    doc = {
        "context": ctx.to_json_dict(),
        "radius": radius.to_json_dict(),
        "renewal_increment": {
            "mean": law.mean(),
            "variance": law.variance(),
            "block_speed": law.block_speed(),
            "unassigned_mass": law.unassigned,
        },
        "clt_constants": {s: c._asdict() for s, c in constants.items()},
    }
    emit_report(doc, manifest, cfg, "genfun")
    print(
        f"xi = ({ctx.xi1:.6f}, {ctx.xi2:.6f}), C_L = {ctx.cl_constant:.6f}, "
        f"radius plausible: {radius.plausible}"
    )
    return EXIT_OK


def _cmd_oracle_check(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    order = args.order
    failures = []
    o = Word()
    words = [o]
    words += [Word(((1, v),)) for v in cfg.factor1.nonroot]
    words += [Word(((2, v),)) for v in cfg.factor2.nonroot]
    tol = 0.0 if args.exact else 1e-10

    def check(label: str, a, b) -> None:
        gap = max_coeff_gap(a, b)
        if gap > tol:
            failures.append((label, float(gap)))

    for i, x in enumerate(words):
        green = enum_green_series(x, words, order, cfg, exact=args.exact)
        last_exit = enum_L_series(x, words, order, cfg, exact=args.exact)
        for y, gxy, lxy in zip(words, green, last_exit):
            check(f"G-L {x} {y}", gxy, series_combine(green[i], lxy, "multiply"))
    doc = {
        "order": order,
        "exact": args.exact,
        "identities_checked": len(words) ** 2,
        "failures": [{"label": l, "error": e} for l, e in failures],
    }
    xi1, xi2 = (
        series_to_rows(enum_xi_series(i, order, cfg).as_float(), f"xi_{i}")
        for i in (1, 2)
    )
    xi_rows = {k: xi1[k] + xi2[k] for k in xi1}
    law = exact_renewal_increment_dist(min(order, DEFAULT_ORDER_CAP), cfg)
    emit_report(
        doc,
        manifest,
        cfg,
        "oracle_check",
        csv_rows={"xi_series": xi_rows, "increment_table": law.to_rows()},
    )
    print(f"{len(words)**2} identities at order {order}: {len(failures)} failures")
    return EXIT_OK if not failures else EXIT_STATISTICAL


def _cmd_simulate(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    ctx = build_context(cfg)
    kernel = compile_kernel(cfg)
    pool, stats = simulate_pool(
        cfg, ctx, args.n, args.M, manifest.master_seed, args.buffer
    )
    rates = estimate_rates(pool, stats)
    sigmas = estimate_sigmas(pool)
    doc = {
        "n": args.n,
        "M": args.M,
        "buffer": args.buffer,
        "blocks": int(pool.size),
        "censored_exits": int(pool.censored.sum()),
        "rates": rates.to_json_dict(),
        "sigmas": sigmas.to_json_dict(),
    }
    emit_report(
        doc,
        manifest,
        cfg,
        "simulate",
        csv_rows={"blocks": pool_to_csv_rows(pool, kernel)},
    )
    print(
        f"{pool.size} blocks from {args.M} walks; "
        f"lambda = {rates.lambda_renewal.value:.5f}, "
        f"ell = {rates.ell_renewal.value:.5f}, h = {rates.h_renewal.value:.5f}"
    )
    return EXIT_OK


def _cmd_clt(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    stats = ("dist", "block", "entropy") if args.stat == "all" else (args.stat,)
    reports = run_clt_suite(
        cfg,
        args.n,
        args.M,
        manifest.master_seed,
        statistics=stats,
    )
    doc = {s: r.to_json_dict() for s, r in reports.items()}
    csv_rows = {
        f"samples_{s}": r.samples_to_rows() for s, r in reports.items()
    }
    emit_report(doc, manifest, cfg, "clt", csv_rows=csv_rows)
    worst = 0.0
    for s, r in reports.items():
        ks = "n/a" if r.ks_stat is None else f"{r.ks_stat:.4f}"
        print(f"{s}: ks = {ks}, p = {r.ks_pvalue}, warnings = {r.warnings}")
        if r.ks_stat is not None:
            worst = max(worst, r.ks_stat)
    return EXIT_OK if worst <= args.ks_threshold else EXIT_STATISTICAL


def _cmd_diagnostics(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    ctx = build_context(cfg)
    pool, _ = simulate_pool(cfg, ctx, args.n, args.M, manifest.master_seed, args.buffer)
    report = DiagnosticsReport(
        iid=iid_diagnostics(pool),
        tail=tail_diagnostic(pool, mgf_base=args.mgf_base),
    )
    emit_report(report.to_json_dict(), manifest, cfg, "diagnostics")
    ok = (
        report.iid.ks_pvalue > 0.01
        and report.tail.dt_slope < 0
        and report.tail.mgf_stable
    )
    print(
        f"iid p = {report.iid.ks_pvalue:.4f}, tail slope = {report.tail.dt_slope:.4f}, "
        f"mgf stable = {report.tail.mgf_stable}"
    )
    return EXIT_OK if ok else EXIT_STATISTICAL


def _cmd_sweep(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    family = [
        (
            a,
            replace(
                cfg,
                alpha=a,
                epsilon0=None,
                parameters=(),
                bindings=(),
                name=f"{cfg.name}(alpha={a})",
            ),
        )
        for a in args.grid
    ]
    report = smoothness_probe(family, args.n, args.M, manifest.master_seed, args.buffer)
    emit_report(
        report.to_json_dict(), manifest, cfg, "sweep", csv_rows={"table": report.to_rows()}
    )
    print(f"grid {args.grid}: {len(report.flags)} discontinuity flags")
    return EXIT_OK if not report.flagged else EXIT_STATISTICAL


def _parse_grid(text: str) -> list[float]:
    """Argument type of ``--grid``: comma-separated alphas, at least one."""
    grid = [float(tok) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise argparse.ArgumentTypeError(f"needs at least one alpha, got {text!r}")
    return grid


def non_negative_int(text: str) -> int:
    """Argument type of counts (``--n``, ``--M``, ``--buffer``, ``--order``)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    """Argument type of ``clt --n``: a walk of no steps has no CLT scaling."""
    value = non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive, got 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="Random walks on free products: exact series, renewal decomposition, CLT checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default="K3xK3", help="config path or named instance")
        p.add_argument("--out", default="freewalk-out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed")

    p = sub.add_parser("validate", help="validate a configuration")
    common(p)

    p = sub.add_parser("genfun", help="exit probabilities and radius diagnostic")
    common(p)

    p = sub.add_parser("oracle-check", help="coefficientwise identity suite")
    common(p)
    p.add_argument("--order", type=non_negative_int, default=10)
    p.add_argument("--float", dest="exact", action="store_false", default=True)

    p = sub.add_parser("simulate", help="sample walks and decompose")
    common(p)
    p.add_argument("--n", type=non_negative_int, default=4000)
    p.add_argument("--M", type=non_negative_int, default=100)
    p.add_argument("--buffer", type=non_negative_int, default=500)

    p = sub.add_parser("clt", help="CLT experiment")
    common(p)
    p.add_argument("--stat", choices=["dist", "block", "entropy", "all"], default="all")
    p.add_argument("--n", type=positive_int, default=5000)
    p.add_argument("--M", type=non_negative_int, default=2000)
    p.add_argument("--ks-threshold", type=float, default=0.05)

    p = sub.add_parser("diagnostics", help="i.i.d. and tail diagnostics")
    common(p)
    p.add_argument("--n", type=non_negative_int, default=2400)
    p.add_argument("--M", type=non_negative_int, default=320)
    p.add_argument("--buffer", type=non_negative_int, default=500)
    p.add_argument(
        "--mgf-base",
        type=float,
        default=1.05,
        help="base for the moment stability check; pick it inside the "
        "increment gf radius (see the genfun command) or the check is "
        "comparing heavy-tailed half-samples",
    )

    p = sub.add_parser("sweep", help="smoothness probe over an alpha grid")
    common(p)
    p.add_argument(
        "--grid",
        type=_parse_grid,
        default=[0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7],
        help="comma-separated alpha values",
    )
    p.add_argument("--n", type=non_negative_int, default=1600)
    p.add_argument("--M", type=non_negative_int, default=160)
    p.add_argument("--buffer", type=non_negative_int, default=400)
    return parser


COMMANDS = {
    "validate": _cmd_validate,
    "genfun": _cmd_genfun,
    "oracle-check": _cmd_oracle_check,
    "simulate": _cmd_simulate,
    "clt": _cmd_clt,
    "diagnostics": _cmd_diagnostics,
    "sweep": _cmd_sweep,
}


def run(manifest: RunManifest, args) -> int:
    """Dispatch a parsed manifest to its command pipeline."""
    try:
        return COMMANDS[manifest.command](args, manifest)
    except VALIDATION_ERRORS as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERIC_ERRORS as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except STATISTICAL_ERRORS as e:
        print(f"statistical error: {e}", file=sys.stderr)
        return EXIT_STATISTICAL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    manifest = RunManifest(
        command=args.command,
        config_path=args.config,
        output_dir=args.out,
        master_seed=args.seed,
        overrides={
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "config", "out", "seed")
        },
    )
    return run(manifest, args)


if __name__ == "__main__":
    sys.exit(main())
