"""Config loading, command dispatch, and bit-stable report emission.

Commands
--------
validate      check a configuration against every structural invariant
genfun        exit probabilities, letter L-table, C_L, radius bracket, CLT constants
oracle-check  coefficientwise identity suite (enumeration vs linear solves)
simulate      sample walks, decompose, write block CSV + summary
clt           CLT experiment for one or all statistics
diagnostics   i.i.d. and exponential-tail diagnostics on a fresh pool
sweep         rate/variance smoothness probe over an alpha grid

Exit codes: 0 ok, 2 usage, 3 validation, 4 numeric, 5 statistical assertion
failed.  Every artifact embeds the config digest and master seed; identical
inputs give byte-identical outputs (sorted keys, 12 significant digits).

A summary is its result dataclass written field by field, nested ones alike
and tuples as lists; a field marked ``field(metadata={"csv": True})`` goes to
a CSV instead.  Four types keep a ``to_json_dict``, as their JSON keys are not
their fields: ``WalkConfig`` (the schema behind ``digest``), ``ValidationReport``
(its derived ``ok``), ``GenFunContext`` (``xi`` as a pair, ``"i:v"`` letter
keys) and ``SigmaEstimates`` (``sigma_lambda_sq`` for ``lambda_sq`` and so on).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    InvalidConfig,
    WalkConfig,
    compile_kernel,
    config_from_json,
    validate_config,
)
from .estimators import (
    DegenerateSample,
    EmptyPool,
    InsufficientBlocks,
    MissingEpsilon0,
    RATE_NAMES,
    DEFAULT_MGF_BASE,
    DiagnosticsReport,
    estimate_rates,
    estimate_sigmas,
    iid_diagnostics,
    run_clt_suite,
    smoothness_probe,
    tail_diagnostic,
)
from .genfun import (
    STATISTICS,
    NoConvergence,
    NonpositiveL,
    SingularSolve,
    build_context,
    clt_constants,
    radius_diagnostic,
    renewal_increment_law,
)
from .instances import NAMED_INSTANCES
from .oracle import OrderTooLarge, identity_suite
from .simulator import DEFAULT_BUFFER, _step_library, pool_to_csv_rows, simulate_pool

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_STATISTICAL = 5

VALIDATION_ERRORS = (InvalidConfig,)
NUMERIC_ERRORS = (SingularSolve, NoConvergence, NonpositiveL, OrderTooLarge)
STATISTICAL_ERRORS = (
    EmptyPool,
    MissingEpsilon0,
    DegenerateSample,
    InsufficientBlocks,
)


@dataclass
class RunManifest:
    """What a run was asked to do; embedded in every artifact it emits."""

    command: str
    config: str
    output_dir: str
    master_seed: int
    overrides: dict = field(default_factory=dict)


def load_config(path: str) -> WalkConfig:
    """Load a configuration from a file or a named shortcut, unvalidated."""
    if path in NAMED_INSTANCES:
        return NAMED_INSTANCES[path]()
    p = Path(path)
    if not p.exists():
        raise InvalidConfig(f"config {path!r}: no such file or named instance")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"config {path!r}: invalid JSON ({e})") from e
    return config_from_json(doc)


def parse_config(path: str) -> WalkConfig:
    """Load a configuration from a file or a named shortcut and compile its
    kernel, which refuses it with ``InvalidConfig`` if it fails validation."""
    cfg = load_config(path)
    compile_kernel(cfg)
    return cfg


# -- bit-stable emission --------------------------------------------------------


def _round_floats(obj):
    """``obj`` as JSON values: a dataclass as a dict of its fields, bar those
    marked for CSV, floats at 12 significant digits, non-finite ones ``None``."""
    if is_dataclass(obj):
        return {
            f.name: _round_floats(getattr(obj, f.name))
            for f in fields(obj)
            if not f.metadata.get("csv")
        }
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


def emit_json(doc, path: Path) -> None:
    """Write ``doc``, a dict or a result dataclass, as bit-stable JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(_round_floats(doc), sort_keys=True, indent=2, allow_nan=False)
    blob += "\n"
    path.write_text(blob)


EMIT_BLOCK_ROWS = 16384
_JOIN_SLACK = 16  # JOIN_SLACK of step_kernel.c
_NEEDS_CSV = re.compile('[,"\r\n]')  # delimiter, quote, line terminator of csv.excel


def _column_fields(column: np.ndarray, lone: bool) -> tuple[list[str], np.ndarray]:
    """One column as the texts of its fields and each row's index into them,
    in the narrowest unsigned type that holds it.

    An integer column whose range is below its row count is coded by its
    range: field ``i`` is the value ``min + i``, and a row's index is its
    value less the minimum, computed straight into the index type.  Any
    other column is coded by its distinct cells, ``np.unique`` of their
    bytes, so that a ``-0.0`` stays apart from ``0.0``.  Each distinct text
    is quoted once.  A text holding a special character of ``csv.excel`` is
    quoted by the ``csv`` module itself, and so is the empty cell of a
    one-column table (``lone``), which it writes as ``""``; every other text
    is its own field.
    """
    if column.dtype.kind in "iu":
        lo, hi = int(column.min()), int(column.max())  # Python ints: no overflow
        if hi - lo < len(column):
            index = np.empty(len(column), np.min_scalar_type(hi - lo))
            # the difference wraps in the column's type, and its low bits are exact
            np.subtract(column, column.dtype.type(lo), out=index, casting="unsafe")
            return [str(v) for v in range(lo, hi + 1)], index
    distinct, inverse = np.unique(column.view(f"V{column.dtype.itemsize}"), return_inverse=True)
    values = distinct.view(column.dtype)
    if column.dtype == np.float64:
        texts = [f"{v:.12g}" for v in values]
    else:
        texts = [str(v) for v in values]  # numpy scalars: a float32 keeps its str
    for i, text in enumerate(texts):
        if _NEEDS_CSV.search(text) or (lone and not text):
            buf = io.StringIO()
            csv.writer(buf).writerow([text])
            texts[i] = buf.getvalue().removesuffix("\r\n")
    return texts, inverse.astype(np.min_scalar_type(len(texts)))


def _column_rows(name: str, column) -> int:
    """The row count of a column: a one-dimensional numpy array of numpy
    values, or an indexed column, a pair of them ``(values, codes)`` with
    integer codes."""
    parts = column if isinstance(column, tuple) and len(column) == 2 else (column,)
    if not all(isinstance(part, np.ndarray) for part in parts):
        raise TypeError(
            f"column {name!r} is a {type(column).__name__}, not a numpy array "
            "or a (values, codes) pair of them"
        )
    integer_codes = len(parts) == 1 or parts[1].dtype.kind in "iu"
    if any(part.ndim != 1 for part in parts) or not integer_codes:
        raise TypeError(f"column {name!r} is not one-dimensional, or its codes are not integers")
    if parts[0].dtype.kind == "O":
        raise TypeError(f"column {name!r} holds Python objects, not numpy values")
    return len(parts[-1])


def emit_csv(table: Mapping[str, np.ndarray | tuple[np.ndarray, np.ndarray]], path: Path) -> None:
    """Write a table given as column name -> column.

    A column is a numpy array or an indexed column, a pair ``(values,
    codes)`` of numpy arrays whose cells are ``values[codes]``.  The bytes
    are those ``csv.DictWriter`` writes row by row: a float64 cell is written
    as ``f"{v:.12g}"``, any other cell, an int, ``bool``, str or float32, as
    the ``str`` of its numpy scalar, and each field is encoded as the file
    encodes its text.  A table with no rows is its header line; a column of
    any other type, or of Python objects, raises ``TypeError``, and columns
    of unequal length raise ``ValueError``.

    No row is built as a Python object.  Each column becomes the texts of
    its fields (:func:`_column_fields`) and a narrow index per row; an
    indexed column codes its ``values`` so and gathers that index once
    through ``codes``.  Every field, followed by its separator, is encoded
    into one blob, and each block of ``EMIT_BLOCK_ROWS`` rows is joined by
    the compiled ``join_rows`` into a byte buffer and written at once.
    """
    lengths = [_column_rows(name, column) for name, column in table.items()]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length {lengths} do not zip into rows")
    n_rows = lengths[0] if lengths else 0
    texts, index = [], []
    for column in table.values() if n_rows else ():
        values, codes = column if isinstance(column, tuple) else (column, None)
        column_texts, at = _column_fields(values, len(table) == 1)
        texts.append(column_texts)
        index.append(at if codes is None else at[codes])  # narrow, then gathered
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(table.keys())
        if not n_rows:
            return
        ends = [","] * (len(texts) - 1) + ["\r\n"]
        fields = [
            [(text + end).encode(fh.encoding, fh.errors) for text in column_texts]
            for column_texts, end in zip(texts, ends)
        ]
        flat = [f for column in fields for f in column]
        start = np.cumsum([0, *map(len, flat)], dtype=np.int64)
        first = np.cumsum([0, *map(len, fields[:-1])], dtype=np.int64)
        # join_rows copies a short field as _JOIN_SLACK bytes, so both end in as many spare
        blob = np.frombuffer(b"".join(flat) + bytes(_JOIN_SLACK), np.uint8)
        row_bytes = sum(max(map(len, column)) for column in fields)
        out = np.empty(min(n_rows, EMIT_BLOCK_ROWS) * row_bytes + _JOIN_SLACK, np.uint8)
        pointers = np.array([at.ctypes.data for at in index], np.uintp)
        widths = np.array([at.itemsize for at in index], np.int64)
        join = _step_library().join_rows
        fh.flush()  # the header, written through the text layer, goes first
        for lo in range(0, n_rows, EMIT_BLOCK_ROWS):
            hi = min(lo + EMIT_BLOCK_ROWS, n_rows)
            size = join(lo, hi, len(index), pointers, widths, first, start, blob, out)
            fh.buffer.write(out[:size])


def emit_report(
    doc,
    manifest: RunManifest,
    cfg: WalkConfig,
    name: str,
    csv_rows: Optional[dict[str, Mapping[str, np.ndarray]]] = None,
) -> list[Path]:
    """Write the JSON summary of ``doc``, a dict or a result dataclass, plus
    one CSV per table of ``csv_rows``."""
    out_dir = Path(manifest.output_dir)
    summary = _round_floats(doc)  # a dict; emit_json's second pass keeps it as is
    summary.update(
        manifest=manifest, config_digest=cfg.digest(), master_seed=manifest.master_seed
    )
    paths = [out_dir / f"{name}_summary.json"]
    emit_json(summary, paths[0])
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
        "radius": radius,
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
        f"radius in [{radius.lower:.6f}, {radius.upper:.6f}], "
        f"plausible: {radius.plausible}"
    )
    return EXIT_OK


def _cmd_oracle_check(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    suite = identity_suite(args.order, cfg, args.exact)
    doc = {
        "order": args.order,
        "exact": args.exact,
        "identities_checked": suite.identities,
        "failures": [{"label": l, "error": e} for l, e in suite.failures],
    }
    emit_report(
        doc,
        manifest,
        cfg,
        "oracle_check",
        csv_rows={"xi_series": suite.xi_rows, "increment_table": suite.law.to_rows()},
    )
    print(f"{suite.identities} identities at order {args.order}: {len(suite.failures)} failures")
    return EXIT_OK if not suite.failures else EXIT_STATISTICAL


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
        "rates": rates,
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
        + ", ".join(f"{s} = {getattr(rates, s + '_renewal').value:.5f}" for s in RATE_NAMES)
    )
    return EXIT_OK


def _cmd_clt(args, manifest: RunManifest) -> int:
    cfg = parse_config(args.config)
    stats = STATISTICS if args.stat == "all" else (args.stat,)
    reports = run_clt_suite(
        cfg,
        args.n,
        args.M,
        manifest.master_seed,
        statistics=stats,
    )
    csv_rows = {
        f"samples_{s}": r.samples_to_rows() for s, r in reports.items()
    }
    emit_report(reports, manifest, cfg, "clt", csv_rows=csv_rows)
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
    emit_report(report, manifest, cfg, "diagnostics")
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
    emit_report(report, manifest, cfg, "sweep", csv_rows={"table": report.to_rows()})
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


def mgf_base_float(text: str) -> float:
    """Argument type of ``diagnostics --mgf-base``: finite and above 1.  At
    or below 1, E[base^Δt] <= 1 for every law, so the check tests no tail."""
    value = float(text)
    if not 1 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 1, got {value}")
    return value


def ks_threshold_float(text: str) -> float:
    """Argument type of ``clt --ks-threshold``: in [0, 1], the range of a
    Kolmogorov-Smirnov distance; any other value fixes the verdict."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {value}")
    return value


def seed_int(text: str) -> int:
    """Argument type of ``--seed``: a Philox key word, ``0 .. 2**64 - 1``.
    The kernel keys each stream by the seed's 64 bits, so a seed outside
    them would write another seed's walks under its own ``master_seed``."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in 0 .. 2**64 - 1, got {value}")
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
        p.add_argument("--seed", type=seed_int, default="0", help="master seed, 0 .. 2**64 - 1")

    p = sub.add_parser("validate", help="validate a configuration")
    common(p)

    p = sub.add_parser("genfun", help="exit probabilities, radius bracket, CLT constants")
    common(p)

    p = sub.add_parser("oracle-check", help="coefficientwise identity suite")
    common(p)
    p.add_argument("--order", type=non_negative_int, default=10)
    p.add_argument("--float", dest="exact", action="store_false", default=True)

    p = sub.add_parser("simulate", help="sample walks and decompose")
    common(p)
    p.add_argument("--n", type=non_negative_int, default=4000)
    p.add_argument("--M", type=non_negative_int, default=100)
    p.add_argument("--buffer", type=non_negative_int, default=DEFAULT_BUFFER)

    p = sub.add_parser("clt", help="CLT experiment")
    common(p)
    p.add_argument("--stat", choices=[*STATISTICS, "all"], default="all")
    p.add_argument("--n", type=positive_int, default=5000)
    p.add_argument("--M", type=non_negative_int, default=2000)
    p.add_argument("--ks-threshold", type=ks_threshold_float, default="0.05")

    p = sub.add_parser("diagnostics", help="i.i.d. and tail diagnostics")
    common(p)
    p.add_argument("--n", type=non_negative_int, default=2400)
    p.add_argument("--M", type=non_negative_int, default=320)
    p.add_argument("--buffer", type=non_negative_int, default=DEFAULT_BUFFER)
    p.add_argument(
        "--mgf-base",
        type=mgf_base_float,
        default=str(DEFAULT_MGF_BASE),
        help="base for the moment stability check; pick it below the "
        "radius, radius.lower in the genfun command's genfun_summary.json, "
        "or the check is comparing heavy-tailed half-samples",
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
        config=args.config,
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
