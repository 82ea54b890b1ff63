"""Config parsing, report emission stability, and command dispatch tests."""

import csv
import hashlib
import inspect
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import cli, oracle, simulator
from freewalk.cli import (
    COMMANDS,
    EMIT_BLOCK_ROWS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_STATISTICAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunManifest,
    build_parser,
    config_from_json,
    emit_csv,
    emit_json,
    emit_report,
    main,
    parse_config,
)
from freewalk.core import InvalidConfig, compile_kernel
from freewalk.estimators import DEFAULT_MGF_BASE, run_clt_suite
from freewalk.genfun import STATISTICS, build_context, clt_constants, renewal_increment_law
from freewalk.instances import instance_k3_k3, instance_path_k3
from freewalk.simulator import (
    PURPOSE_MAIN,
    batch_walk_stats,
    pool_to_csv_rows,
    simulate_batch,
    stream_id,
)


class TestParseConfig:
    def test_named_shortcut(self):
        cfg = parse_config("K3xK3")
        assert cfg == instance_k3_k3()
        assert parse_config("PathxK3") == instance_path_k3()

    def test_missing_file(self):
        with pytest.raises(InvalidConfig, match="no such file"):
            parse_config("does-not-exist.json")

    def test_round_trip(self, tmp_path):
        cfg = instance_k3_k3()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        assert parse_config(str(path)) == cfg

    def test_bad_row_sum_names_row(self, tmp_path):
        doc = instance_k3_k3().to_json_dict()
        doc["factor1"]["transition"][1] = [0.5, 0.0, 0.6]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match="bad rows: \\['a'\\]"):
            parse_config(str(path))

    def test_alpha_out_of_range(self, tmp_path):
        doc = instance_k3_k3().to_json_dict()
        doc["alpha"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match="alpha must lie in \\(0,1\\)"):
            parse_config(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfig, match="invalid JSON"):
            parse_config(str(path))

    def test_missing_field(self):
        with pytest.raises(InvalidConfig, match="missing required field"):
            config_from_json({"alpha": 0.5})


class TestEmission:
    def test_json_byte_stability(self, tmp_path):
        doc = {"b": 0.1234567890123456789, "a": [1.0 / 3.0, float("nan")], "c": True}
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        emit_json(doc, p1)
        emit_json(doc, p2)
        assert p1.read_bytes() == p2.read_bytes()
        parsed = json.loads(p1.read_text())
        assert parsed["a"][1] is None  # nan emitted as null, not omitted
        assert list(parsed.keys()) == sorted(parsed.keys())

    def test_infinities_emitted_as_null(self, tmp_path):
        path = tmp_path / "inf.json"
        emit_json({"x": float("inf"), "y": [-np.inf, np.float64("inf")]}, path)
        assert json.loads(path.read_text()) == {"x": None, "y": [None, None]}
        assert "Infinity" not in path.read_text()

    def test_dataclasses_written_field_by_field(self, tmp_path):
        class Pair(NamedTuple):
            value: float
            half_width: float

        @dataclass
        class Inner:
            pair: Pair
            span: tuple[int, int]

        @dataclass
        class Outer:
            inner: Inner
            samples: np.ndarray = field(metadata={"csv": True})
            by_lag: dict[int, float] = field(default_factory=dict)
            worst: float = 0.0

        # an array no JSON encoder takes: the CSV field is skipped unconverted
        samples = np.array([object()], dtype=object)
        inner = Inner(Pair(1 / 3, np.float64(0.25)), (1, 5))
        doc = Outer(inner, samples, by_lag={1: 0.5, 2: math.nan}, worst=-math.inf)
        path = tmp_path / "doc.json"
        emit_json(doc, path)
        assert json.loads(path.read_text()) == {
            "inner": {"pair": [0.333333333333, 0.25], "span": [1, 5]},
            "by_lag": {"1": 0.5, "2": None},
            "worst": None,
        }

    def test_csv_header_and_stability(self, tmp_path):
        rows = {
            "trajectory_id": np.array([0, 0]),
            "k": np.array([1, 2]),
            "delta_t": np.array([3, 5]),
            "d_dist": np.array([2.0, 2.0]),
            "d_ent": np.array([1.5, 1.5]),
        }
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "trajectory_id,k,delta_t,d_dist,d_ent"

    def test_empty_table_is_its_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = {"a": np.array([], dtype=str), "b": np.array([]), "c": np.array([], dtype=int)}
        emit_csv(empty, path)
        assert path.read_bytes() == b"a,b,c\r\n"

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="zip"):
            emit_csv({"a": np.array([1, 2]), "b": np.zeros(3)}, tmp_path / "bad.csv")

    def test_list_columns_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="'a' is a list"):
            emit_csv({"a": [1.0, 2.0], "b": np.zeros(2)}, tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize(
        "column",
        [
            np.zeros((2, 1)),
            (np.array([1.0, 2.0]), np.array([True, False])),  # a mask, not codes
            (np.array([1.0, 2.0]), np.array([0.0, 1.0])),
            (np.array([[1.0], [2.0]]), np.array([0, 1])),
            (np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 1])),
            np.array([1.0, "b"], dtype=object),
            (np.array(["b", 1.0], dtype=object), np.array([0, 1])),
        ],
        ids=["2-d", "bool-codes", "float-codes", "2-d-values", "triple", "object", "object-values"],
    )
    def test_columns_the_join_cannot_read_rejected(self, column, tmp_path):
        with pytest.raises(TypeError, match="column 'a'"):
            emit_csv({"a": column, "b": np.zeros(2)}, tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()

    def test_report_embeds_digest_and_seed(self, tmp_path):
        cfg = instance_k3_k3()
        manifest = RunManifest(
            command="validate",
            config="K3xK3",
            output_dir=str(tmp_path),
            master_seed=77,
        )
        paths = emit_report({"x": 1.0}, manifest, cfg, "unit")
        doc = json.loads(paths[0].read_text())
        assert doc["config_digest"] == cfg.digest()
        assert doc["master_seed"] == 77
        assert doc["manifest"]["command"] == "validate"

    def test_empty_sections_are_explicit(self, tmp_path):
        cfg = instance_k3_k3()
        manifest = RunManifest("validate", "K3xK3", str(tmp_path), 0)
        paths = emit_report({"items": []}, manifest, cfg, "unit")
        assert json.loads(paths[0].read_text())["items"] == []


def dictwriter_reference(table: dict, path: Path) -> None:
    """The row-dict writer that ``emit_csv`` replaced, applied row by row; an
    indexed column ``(values, codes)`` is written as ``values[codes]``."""
    table = {k: (c[0][c[1]] if isinstance(c, tuple) else c) for k, c in table.items()}
    names = list(table)
    n_rows = len(table[names[0]]) if names else 0
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        for i in range(n_rows):
            row = {k: table[k][i] for k in names}
            writer.writerow(
                {k: (f"{v:.12g}" if isinstance(v, float) else v) for k, v in row.items()}
            )


SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300, 5e-324,
    1e12, 1e12 + 1.0, 123456789012345.0, -2.0**60, 1e15, 1.0 / 3.0,
]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
texts = st.text(alphabet=st.sampled_from(list('ab ,"\r\n;é')), max_size=6)


RANGED_DTYPES = ["int8", "uint16", "int64", "uint64"]


def plain_columns(kind: str, n_rows: int):
    """A strategy for one numpy column of ``n_rows`` cells of ``kind``; a
    ``ranged`` column is an integer column whose range is below its row
    count, at either end of its type or inside it."""
    if kind == "float64":
        return st.lists(floats, min_size=n_rows, max_size=n_rows).map(np.array)
    if kind == "int64":
        ints = st.integers(min_value=-(2**62), max_value=2**62)
        return st.lists(ints, min_size=n_rows, max_size=n_rows).map(np.array)
    if kind == "bool":
        return st.lists(st.booleans(), min_size=n_rows, max_size=n_rows).map(np.array)
    if kind == "str":
        texts_of = st.lists(texts, min_size=n_rows, max_size=n_rows)
        return texts_of.map(lambda cells: np.array(cells, dtype=str))
    if kind == "ranged":

        @st.composite
        def ranged(draw):
            info = np.iinfo(draw(st.sampled_from(RANGED_DTYPES)))
            span = draw(st.integers(min_value=0, max_value=max(n_rows - 1, 0)))
            lo = draw(
                st.sampled_from([info.min, info.max - span])
                | st.integers(min_value=info.min, max_value=info.max - span)
            )
            cells = st.integers(min_value=lo, max_value=lo + span)
            return np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)), info.dtype)

        return ranged()
    raise ValueError(kind)


@st.composite
def indexed_columns(draw, n_rows: int):
    """An indexed column ``(values, codes)``: a table of any plain kind,
    which may hold ``-0.0`` and ``0.0`` both, and codes of any integer type
    that may skip its entries."""
    n_values = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["float64", "int64", "str", "ranged"]))
    values = draw(plain_columns(kind, n_values))
    if kind == "float64" and draw(st.booleans()):
        values[: min(2, n_values)] = [-0.0, 0.0][: min(2, n_values)]
    dtype = draw(st.sampled_from(["uint8", "int16", "int64"]))
    codes = st.integers(min_value=0, max_value=n_values - 1)
    return values, np.array(draw(st.lists(codes, min_size=n_rows, max_size=n_rows)), dtype)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=8))
    names = draw(st.lists(texts.filter(bool), min_size=1, max_size=5, unique=True))
    table = {}
    for name in names:
        kind = draw(st.sampled_from(["float64", "int64", "bool", "str", "ranged", "indexed"]))
        if kind == "indexed":
            table[name] = draw(indexed_columns(n_rows))
        else:
            table[name] = draw(plain_columns(kind, n_rows))
    return table


class TestEmitCsvContract:
    """``emit_csv`` writes the bytes the row-dict ``csv.DictWriter`` wrote."""

    @staticmethod
    def _both(table: dict) -> tuple[bytes, bytes]:
        with tempfile.TemporaryDirectory() as d:
            new, ref = Path(d) / "new.csv", Path(d) / "ref.csv"
            emit_csv(table, new)
            dictwriter_reference(table, ref)
            return new.read_bytes(), ref.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_matches_dictwriter(self, table):
        new, ref = self._both(table)
        assert new == ref

    def test_edge_cells(self):
        big = 10**12
        table = {
            "arr": np.array([-0.0, math.nan, math.inf, -math.inf, 1e-300, 1e13, 2.0, 0.0]),
            "big": np.array([big, -1, big + 1, 0, 3, -big, 2 * big, 7]),
            "text": np.array(["", 'q"uote', "line\r\nbreak", "a,b", "-0", " ", "é", "z"]),
            "flags": np.array([True, False] * 4),
            "ints": np.arange(8) * big,
            "single": np.array([0.1, -0.0, np.nan, 1e13, 3, 0.5, 2.0**-30, 1 / 3], np.float32),
            # integer columns whose range is below their row count
            "int8": np.array([-128, -121, -125, -128, -127, -122, -124, -126], np.int8),
            "uint16": np.array([65535, 65528, 65530, 65535, 65529, 65531, 65533, 65534], np.uint16),
            "int64_low": np.arange(8)[::-1] + np.iinfo(np.int64).min,
            "int64_high": np.iinfo(np.int64).max - np.arange(8) % 3,
            "uint64": np.array([2**64 - 1, 2**64 - 8, 2**64 - 2] * 2 + [2**64 - 5] * 2, np.uint64),
            # max - min overflows here in int64, and is 2**64 - 1 in uint64
            "int64_ends": np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1] * 2),
            "uint64_ends": np.array([0, 2**64 - 1] * 4, np.uint64),
            # indexed columns: codes skip entries, and -0.0 and 0.0 stay apart
            "zeros": (np.array([0.0, -0.0, 1.5, 7.0]), np.array([1, 0, 0, 1, 3, 1, 0, 3], np.int16)),
            "names": (np.array(["a,b", "", 'q"', "z"]), np.array([3, 0, 2, 0, 3, 3, 0, 2], np.uint8)),
            "steps": (np.array([-3, 9, 4], np.int64), np.array([2, 2, 0, 2, 0, 0, 2, 0])),
        }
        new, ref = self._both(table)
        assert new == ref
        assert new.split(b"\r\n")[1].startswith(b"-0,1000000000000,,True,0")


class TestEmitCsvBlocks:
    """The row-dict contract across the boundaries of ``emit_csv``'s row blocks."""

    @staticmethod
    def _assert_dictwriter_bytes(table: dict, tmp_path: Path) -> None:
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        emit_csv(table, new)
        dictwriter_reference(table, ref)
        assert new.read_bytes() == ref.read_bytes()

    def test_every_kind_of_column_across_blocks(self, tmp_path):
        n = 2 * EMIT_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        floats = np.resize([-0.0, math.nan, math.inf, -math.inf, 0.0, 1.0 / 3.0], n)
        floats[::7] = rng.normal(size=len(floats[::7]))
        table = {
            "float64": floats,
            "int64": rng.integers(-(2**62), 2**62, size=n),
            "str": np.resize(np.array(["a,b", 'q"q', "r\rs", "n\nm", "", "plain"]), n),
            "bool": np.resize([True, False, False], n),
        }
        self._assert_dictwriter_bytes(table, tmp_path)

    def test_lone_column_with_empty_cells_at_a_boundary(self, tmp_path):
        n = 2 * EMIT_BLOCK_ROWS + 3
        column = np.full(n, "x")
        column[[0, EMIT_BLOCK_ROWS - 1, EMIT_BLOCK_ROWS, 2 * EMIT_BLOCK_ROWS, n - 1]] = ""
        self._assert_dictwriter_bytes({"only": column}, tmp_path)

    def test_peak_memory_stays_below_twice_the_columns(self, tmp_path):
        walks, blocks = 400, 600  # 240,000 rows shaped like pool_to_csv_rows
        n = walks * blocks
        rng = np.random.default_rng(11)
        table = {
            "trajectory_id": np.repeat(np.arange(walks), blocks),
            "k": np.tile(np.arange(1, blocks + 1), walks),
            "delta_t": 2 + rng.geometric(0.2, size=n),
            "d_dist": rng.choice([1.0, 2.0], size=n),
            "d_ent": rng.choice([0.6931471805599453, 1.0986122886681098], size=n),
            "pair": rng.choice(np.array(["ab", "ba", "ac", "ca"]), size=n),
        }
        columns_bytes = sum(column.nbytes for column in table.values())
        tracemalloc.start()
        try:
            emit_csv(table, tmp_path / "blocks.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * columns_bytes, peak / columns_bytes


class TestEmitCsvJoins:
    """Rows of many kinds of column joined by the compiled ``join_rows`` keep
    the row-dict bytes."""

    @staticmethod
    def _assert_dictwriter_bytes(table: dict, tmp_path: Path) -> None:
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        emit_csv(table, new)
        dictwriter_reference(table, ref)
        assert new.read_bytes() == ref.read_bytes()

    def test_special_cells_inside_one_joint_field(self, tmp_path):
        """Signed zeros and NaN of both float widths, quoted texts, and a
        ``<U3`` and a complex column, which take ``np.unique``, in one row."""
        n = 1000
        table = {
            "f64": np.resize([-0.0, 0.0, math.nan, 1.5], n),
            "f32": np.resize(np.array([0.0, -0.0, math.nan], dtype=np.float32), n),
            "text": np.resize(np.array(["a,b", 'q"q', "plain"]), n),
            "u3": np.resize(np.array(["abc", "", "x"], dtype="<U3"), n),
            "c128": np.resize([0j, complex(-0.0, 0.0), 1j], n),
        }
        self._assert_dictwriter_bytes(table, tmp_path)

    def test_wide_joints_stay_apart_across_blocks(self, tmp_path):
        """Two 300-value columns, one coded by its range and one by its
        distinct cells, next to narrow columns, across both block boundaries."""
        n = 2 * EMIT_BLOCK_ROWS + 3
        rng = np.random.default_rng(7)
        table = {
            "a": rng.permutation(np.resize(np.arange(300), n)),
            "b": rng.permutation(np.resize(np.arange(-150, 150), n)).astype(float),
            "delta_t": rng.integers(2, 40, size=n),
            "d_dist": rng.choice([1.0, 2.0], size=n),
            "pair": rng.choice(np.array(["ab", "ba", "a,", 'c"']), size=n),
        }
        self._assert_dictwriter_bytes(table, tmp_path)

    def test_ranges_that_wrap_in_their_type(self, tmp_path):
        """Integer columns spanning most of their type, coded by their range:
        ``column - min`` wraps in the column's type, and its low bits are the
        code; an indexed column's table is coded the same way."""
        n = 300
        rng = np.random.default_rng(3)
        table = {
            "int8": rng.permutation(np.resize(np.arange(-128, 128), n)).astype(np.int8),
            "uint8": rng.permutation(np.resize(np.arange(256), n)).astype(np.uint8),
            "int16": rng.permutation(np.arange(32767 - n + 1, 32768)).astype(np.int16),
            "int64": np.iinfo(np.int64).min + rng.permutation(n),
            "indexed": (np.arange(-128, 128).astype(np.int8), rng.integers(0, 256, size=n)),
        }
        self._assert_dictwriter_bytes(table, tmp_path)


class TestBlockCsvMemory:
    def test_peak_stays_below_the_pools_block_bytes(self, tmp_path):
        """The block CSV holds a narrow index per column and one block of
        joined rows, not a per-row copy of any column: on 98,615 blocks its
        traced peak is 0.41x the pool's block arrays (2.6x when the reward
        and pair columns were gathered per block and sorted back down)."""
        cfg = instance_path_k3()
        pool, _ = simulator.simulate_pool(cfg, build_context(cfg), 4000, 200, 7)
        kernel = compile_kernel(cfg)
        emit_csv(pool_to_csv_rows(pool, kernel), tmp_path / "warm.csv")  # loads the library
        pool, _ = simulator.simulate_pool(cfg, build_context(cfg), 4000, 200, 7)  # no pair code yet
        blocks = ("walk", "index", "delta_t", "w_first", "w_second")
        block_bytes = sum(getattr(pool, name).nbytes for name in blocks)
        tracemalloc.start()
        try:
            emit_csv(pool_to_csv_rows(pool, kernel), tmp_path / "blocks.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes, peak / block_bytes


class TestCsvProducers:
    def test_every_producer_returns_numpy_columns(self, tmp_path, capsys, monkeypatch):
        """The tables of ``series_to_rows`` (joined into ``oracle-check``'s
        ``xi_series``), ``RenewalLaw.to_rows``, ``pool_to_csv_rows``,
        ``CltReport.samples_to_rows`` and ``SmoothnessReport.to_rows``.  The
        block CSV alone also has indexed columns, ``(values, codes)`` pairs
        of numpy arrays."""
        column_types = {}

        def kind(column):
            if isinstance(column, tuple):
                return tuple(type(part) for part in column)
            return type(column)

        def record(table, path):
            column_types[path.name] = {kind(column) for column in table.values()}
            emit_csv(table, path)

        monkeypatch.setattr(cli, "emit_csv", record)
        codes = {
            main([*argv, "--config", "PathxK3", "--out", str(tmp_path)])
            for argv in (
                ["oracle-check", "--order", "4"],
                ["simulate", "--n", "400", "--M", "10", "--buffer", "50"],
                ["clt", "--stat", "dist", "--n", "200", "--M", "20"],
                ["sweep", "--grid", "0.4,0.5", "--n", "400", "--M", "10", "--buffer", "50"],
            )
        }
        assert codes <= {EXIT_OK, EXIT_STATISTICAL}
        assert column_types == {
            "simulate_blocks.csv": {np.ndarray, (np.ndarray, np.ndarray)},
            **{
                name: {np.ndarray}
                for name in (
                    "oracle_check_xi_series.csv",
                    "oracle_check_increment_table.csv",
                    "clt_samples_dist.csv",
                    "sweep_table.csv",
                )
            },
        }


class TestArtifactPins:
    """sha256 of command artifacts, captured before CSV emission became columnar.

    Re-captured when the fixed point became exact to rounding (Newton from 0):
    only the entropy values derived from it moved, by at most 1.5e-11
    relative.  The four ``clt`` pins were re-captured when ``clt`` began to
    standardize with the exact constants of the increment law instead of a
    calibration pool's estimates; ``CLT_MAIN_BATCH`` shows that its walks
    did not move.  The ``oracle-check`` and ``genfun`` pins were captured
    before the enumeration table and the FFT law became one type; the
    ``genfun`` pins were re-captured when the radius became a bisection
    bracket, and ``GENFUN_PINS_WITHOUT_RADIUS`` shows that nothing else in
    those summaries moved.  The ``diagnostics`` and ``validate`` pins were
    captured before summaries were written field by field from their result
    dataclasses.  Summaries are pinned without their manifest, which holds
    the output directory, and ``MANIFEST_PIN`` pins one manifest with that
    directory replaced; any other difference is a regression.  The PathxK3
    ``sweep`` summary was re-captured when the plug-in variances became one
    formula of each walk's sums: σ_h² moved by a few ulps, and its second
    difference ``second_differences.sigma_h_sq[0]``, which cancels two
    digits, went from -0.00950932615819 to -0.00950932615818; no other field
    and no ``sweep_table.csv`` moved.
    """

    PINS = {
        ("simulate", "--config", "K3xK3", "--n", "600", "--M", "12", "--buffer", "100"): {
            "simulate_blocks.csv": "88879a310347a11db47df1b34449164b306be7227b60dc549bab471310c2e2f0",
            "simulate_summary.json": "8365040754ebc76362828d9ae52771b949fce6ce5090c99f9754a7ca526d986c",
        },
        ("simulate", "--config", "PathxK3", "--n", "600", "--M", "12", "--buffer", "100"): {
            "simulate_blocks.csv": "b88ab508463a41ef26d0a5db1145ba1658583304e277b5ba85f22f14faaf6bcf",
            "simulate_summary.json": "ffff6fd874d897b7b8ba99c52ad6171a4e256f35f9fc4a71b2ec7a2a4b6b1eb5",
        },
        ("clt", "--stat", "all", "--n", "300", "--M", "200"): {
            "clt_samples_dist.csv": "80b9ab5a7e1047211331981b0b46bc948c8c72dfa4cd6ac9f078d67bf9bcf216",
            "clt_samples_block.csv": "2308ce46aa338d85c0d4768736277d3ca48e3555ea8620fdbabfb8a16b73c92d",
            "clt_samples_entropy.csv": "80c9e6b44a06e2fac7454ae332963688a7166311ec47f8ce6a245bc010841507",
            "clt_summary.json": "758e62f47e39fb8af2b1a990d990ee46d84159053fe8844761e7a5e6c5abbbae",
        },
        ("sweep", "--grid", "0.4,0.5,0.6", "--n", "400", "--M", "40", "--buffer", "100"): {
            "sweep_table.csv": "87af3a93a7f5debaec16c3e2ecd3b952dc23b73aad3075e240635e1ed771a9f9",
            "sweep_summary.json": "e25788071602f43c5c63b3767d9955705daeba93809e77de2d99903e06f89272",
        },
        # on K3xK3 every letter lies one step from its root, so dist equals
        # the word length walk by walk; PathxK3's path letters tell the
        # statistics apart, so these two pins see a swap of statistic rows
        ("clt", "--config", "PathxK3", "--stat", "all", "--n", "300", "--M", "200"): {
            "clt_samples_dist.csv": "7b35467a584a029a5fe0cf33e755d78d45d75fd8b9ea9b0f19ee85d4c9cc3846",
            "clt_samples_block.csv": "56d59511c26ca9f11e34f6323e611d96caf849ae0763bd3ef923650dd04532a5",
            "clt_samples_entropy.csv": "ac76d9437e91bf36e5fdc2065cb02a1fdaa4b9277dd550f36f5e690e33f01862",
            "clt_summary.json": "d7eb922d1fe70da432c38350ee348b1bf657ecfc576613ca3e2d1f0c5055d0a3",
        },
        ("sweep", "--config", "PathxK3", "--grid", "0.4,0.5,0.6", "--n", "400", "--M", "40",
         "--buffer", "100"): {
            "sweep_table.csv": "d92347359e5fa0b2246c054003bcb6b2c6377734ce2bf2ff0f468bf4cad66a46",
            "sweep_summary.json": "4957032bbf164e50ece1bf32a71266e31997ab559d267d13acfe1c6d984f12dc",
        },
        ("oracle-check", "--config", "K3xK3"): {
            "oracle_check_increment_table.csv": "dcb58e96ac0b33378652945d98382424297126a574df587698616692505264d7",
            "oracle_check_summary.json": "55aeefb8f114848319a46a151ddd05f8dba16694c64e6f02bec01eeb90e8f719",
            "oracle_check_xi_series.csv": "1dead416a1c5f8e70a6386198ed15a6108349ac3af57bfc5a67dfef16a4f6e36",
        },
        ("oracle-check", "--config", "PathxK3", "--float", "--order", "14"): {
            "oracle_check_increment_table.csv": "3c1b1030e75973e1a63d1f79883f2aafe06a7c88b1d9513da54fa140e300fc1b",
            "oracle_check_summary.json": "5d206c3f4eda1f16f4c3e7ff672414912a3fabe2b8d29273d9da54bb837ea2c8",
            "oracle_check_xi_series.csv": "97225250489b9784e88433adde048dc3e97e4bc0a9942a925748a4e0f4097480",
        },
        ("genfun", "--config", "K3xK3"): {
            "genfun_summary.json": "a6b3908d05b4ad6f6e3e18963b1c5257b3c1eae164869b1b2eb69c26a8671805",
        },
        ("genfun", "--config", "PathxK3"): {
            "genfun_summary.json": "d54e49726c6f532125848692ebd0e5e65df4f143fecaa27fc887bc1fb388e020",
        },
        ("diagnostics", "--config", "K3xK3", "--n", "1200", "--M", "200"): {
            "diagnostics_summary.json": "bbbd7d3fe8aeeeb094fc3bf366d148c0a22182dae0c694050c99e51df32764e9",
        },
        ("diagnostics", "--config", "PathxK3", "--n", "1200", "--M", "200"): {
            "diagnostics_summary.json": "cdf4e6ea9504f3d8d3f12729dec39fa8438244da75b11ecafe1670c01ca47548",
        },
        ("validate", "--config", "K3xK3"): {
            "validate_summary.json": "d7670a9b919498d9f81fe639fa138748060c9bbbe9b5fe1ab5609cf16f384308",
        },
        ("validate", "--config", "PathxK3"): {
            "validate_summary.json": "1c5820731aab4ff2b38a635ccb5b94c2921c403f0c68c5c27f42101f8141d05c",
        },
    }

    @pytest.mark.parametrize("argv", sorted(PINS), ids=lambda a: "-".join(a[:3]))
    def test_artifacts(self, argv, tmp_path, capsys):
        main([*argv, "--seed", "3", "--out", str(tmp_path)])
        self._assert_digests(self.PINS[argv], tmp_path)

    # genfun summaries without their radius as well, captured while the
    # radius was still probed on a fixed grid
    GENFUN_PINS_WITHOUT_RADIUS = {
        ("genfun", "--config", "K3xK3"): "c9eb534e1e1604dbe027d4beed55bcd30bf4c636e8adbdb1b10d547960722b5d",
        ("genfun", "--config", "PathxK3"): "5d6a63b77c40e471d462c0081ce4df67f53a1cd168b1a543fcf1a9a0872c2393",
    }

    @pytest.mark.parametrize(
        "argv", sorted(GENFUN_PINS_WITHOUT_RADIUS), ids=lambda a: "-".join(a[:3])
    )
    def test_genfun_moves_only_in_radius(self, argv, tmp_path, capsys):
        main([*argv, "--seed", "3", "--out", str(tmp_path)])
        pins = {"genfun_summary.json": self.GENFUN_PINS_WITHOUT_RADIUS[argv]}
        self._assert_digests(pins, tmp_path, drop=("manifest", "radius"))

    # the manifest of the diagnostics pin, its output directory replaced
    MANIFEST_PIN = (
        '{"command": "diagnostics", "config": "K3xK3", "master_seed": 3, '
        '"output_dir": "OUT", "overrides": {"M": 200, "buffer": 500, '
        '"mgf_base": 1.05, "n": 1200}}'
    )

    def test_manifest(self, tmp_path, capsys):
        argv = ["diagnostics", "--config", "K3xK3", "--n", "1200", "--M", "200"]
        main([*argv, "--seed", "3", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "diagnostics_summary.json").read_text())["manifest"]
        assert manifest["output_dir"] == str(tmp_path)
        manifest["output_dir"] = "OUT"
        assert json.dumps(manifest, sort_keys=True) == self.MANIFEST_PIN

    @staticmethod
    def _assert_digests(pins: dict, out: Path, drop=("manifest",)) -> None:
        for name, digest in pins.items():
            blob = (out / name).read_bytes()
            if name.endswith(".json"):
                doc = json.loads(blob)
                for key in drop:
                    del doc[key]
                blob = json.dumps(doc, sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest() == digest, name

    # a block CSV of more than two of emit_csv's row blocks (147,620 rows),
    # captured while emit_csv still wrote row by row
    MULTI_BLOCK_PIN = {
        "simulate_blocks.csv": "3678fb6f339414de6c7be665b013945e3c1cde4b0ce74ed0c4b2dd6dc1eaf12a",
        "simulate_summary.json": "886536cdc4b1ef4d5b9d5e47c2775166265513c773e5382b852be318dcec1010",
    }

    def test_multi_block_simulate_artifacts(self, tmp_path, capsys):
        argv = ["simulate", "--config", "PathxK3", "--n", "4000", "--M", "300"]
        main([*argv, "--seed", "3", "--out", str(tmp_path)])
        lines = (tmp_path / "simulate_blocks.csv").read_bytes().count(b"\r\n")
        assert lines > 1 + 2 * EMIT_BLOCK_ROWS
        self._assert_digests(self.MULTI_BLOCK_PIN, tmp_path)

    # sha256 of the raw statistics of the main batch behind the clt pin
    # (K3xK3, n=300, M=200, seed 3), captured while clt still drew a
    # calibration pool: dist and block (the word length) agree because every
    # letter of K3 is one step from its root.  entropy was re-captured when
    # the statistics became sums over letter counts: count times reward per
    # letter code, in place of numpy's pairwise sum over the word, moves it
    # by at most 4e-16 relative
    CLT_MAIN_BATCH = {
        "dist": "d3fbaa286e30593ae7fbf588bb79b5235a16258b00ace648882f0c5169ef16f9",
        "block": "d3fbaa286e30593ae7fbf588bb79b5235a16258b00ace648882f0c5169ef16f9",
        "entropy": "d06883a8f8e18c728c333d3e3bb9817142a394234efcbe24596c048b0d955f59",
    }

    def test_clt_standardizes_the_pinned_main_batch(self):
        cfg, n, M, seed = instance_k3_k3(), 300, 200, 3
        streams = [stream_id(PURPOSE_MAIN, i) for i in range(M)]
        batch = simulate_batch(cfg, n, seed, streams)
        stats = batch_walk_stats(batch, compile_kernel(cfg), build_context(cfg))
        raws = dict(zip(STATISTICS, stats.values))
        for name, digest in self.CLT_MAIN_BATCH.items():
            a = raws[name]
            blob = a.dtype.str.encode() + a.tobytes()
            assert hashlib.sha256(blob).hexdigest() == digest, name
        suite = run_clt_suite(cfg, n, M, seed)
        for stat, raw in raws.items():
            r = suite[stat]
            want = (raw - n * r.rate_estimate) / (r.sigma_estimate * math.sqrt(n))
            assert np.array_equal(r.standardized_samples, want), stat

    def test_clt_without_walks_writes_headers(self, tmp_path, capsys):
        assert main(["clt", "--n", "100", "--M", "0", "--out", str(tmp_path)]) == EXIT_OK
        for s in ("dist", "block", "entropy"):
            text = (tmp_path / f"clt_samples_{s}.csv").read_bytes()
            assert text == b"statistic,walk,standardized\r\n"

    def test_clt_without_walks_says_so(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["clt", "--n", "100", "--M", "0", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "clt_summary.json").read_text())
        for s in ("dist", "block", "entropy"):
            assert "no walks" in doc[s]["warnings"]
            assert doc[s]["sample_mean"] is None and doc[s]["sample_var"] is None

    def test_clt_with_too_few_walks_says_so(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["clt", "--n", "100", "--M", "1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "clt_summary.json").read_text())
        for s in ("dist", "block", "entropy"):
            assert doc[s]["warnings"] == ["too few walks"]
            assert doc[s]["ks_stat"] is None and doc[s]["sample_var"] is None


class TestMain:
    def test_unknown_command_usage_exit(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "-5"],
            ["simulate", "--M", "-1"],
            ["simulate", "--buffer", "-1"],
            ["clt", "--n", "-1"],
            ["clt", "--M", "-2"],
            ["diagnostics", "--buffer", "-3"],
            ["sweep", "--n", "-1"],
            ["oracle-check", "--order", "-1"],
        ],
    )
    def test_negative_counts_usage_exit(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        assert "must be a non-negative integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "400", "--buffer", "50"],
            ["sweep", "--n", "200", "--grid", "0.4,0.5,0.6", "--buffer", "20"],
        ],
        ids=lambda a: a[0],
    )
    def test_one_walk_gives_no_confidence_interval(self, argv, tmp_path, capsys):
        one, two = tmp_path / "one", tmp_path / "two"
        assert main([*argv, "--M", "1", "--out", str(one)]) == EXIT_STATISTICAL
        assert "at least 2 walks, got 1" in capsys.readouterr().err
        assert not one.exists()
        assert main([*argv, "--M", "2", "--out", str(two)]) == EXIT_OK
        assert len(list(two.iterdir())) == 2

    # the kernel keys streams by a seed's low 64 bits: 2**64 + 5 would write
    # seed 5's walks, and -1 and 2**65 - 1 those of 2**64 - 1
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 2**65 - 1])
    def test_seed_outside_64_bits_usage_exit(self, seed, tmp_path, capsys):
        argv = ["simulate", "--n", "200", "--M", "2", "--seed", str(seed)]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "must be an integer in 0 .. 2**64 - 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_seed_at_the_ends_of_64_bits(self, tmp_path, capsys):
        for seed in (0, 2**64 - 1):
            out = tmp_path / str(seed)
            argv = ["simulate", "--n", "200", "--M", "2", "--buffer", "20", "--seed", str(seed)]
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            doc = json.loads((out / "simulate_summary.json").read_text())
            assert doc["master_seed"] == seed

    def test_clt_has_no_buffer(self, tmp_path, capsys):
        assert main(["clt", "--buffer", "100", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "unrecognized arguments: --buffer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_clt_refuses_a_truncated_law(self, tmp_path, capsys):
        """At alpha 0.02 the increment law leaves 7.2e-4 of its mass out."""
        cfg_path = tmp_path / "skewed.json"
        cfg_path.write_text(json.dumps(instance_k3_k3(0.02).to_json_dict()))
        out = tmp_path / "out"
        argv = ["clt", "--config", str(cfg_path), "--n", "100", "--M", "20"]
        rc = main([*argv, "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert "unassigned" in capsys.readouterr().err
        assert not out.exists()

    def test_genfun_reports_clt_constants(self, tmp_path, capsys):
        assert main(["genfun", "--config", "PathxK3", "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "genfun_summary.json").read_text())
        cfg = instance_path_k3()
        want = clt_constants(renewal_increment_law(cfg), cfg, build_context(cfg))
        assert sorted(doc["clt_constants"]) == ["block", "dist", "entropy"]
        for stat, (rate, sigma_sq) in want.items():
            got = doc["clt_constants"][stat]
            assert math.isclose(got["rate"], rate, rel_tol=1e-11), stat
            assert math.isclose(got["sigma_sq"], sigma_sq, rel_tol=1e-11), stat

    @pytest.mark.parametrize("shape", ["K3xK3", "PathxK3"])
    def test_genfun_runs_no_path_enumeration(self, shape, tmp_path, capsys, monkeypatch):
        """Every function of the oracle raises, wherever a freewalk module binds it."""

        def refuse(*args, **kwargs):
            raise AssertionError("genfun reached the enumeration oracle")

        for module in [m for name, m in sys.modules.items() if name.startswith("freewalk")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == "freewalk.oracle":
                    monkeypatch.setattr(module, attr, refuse)
        assert oracle.enum_green_series is refuse
        assert main(["genfun", "--config", shape, "--out", str(tmp_path)]) == EXIT_OK

    def test_clt_without_steps_usage_exit(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["clt", "--n", "0", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "argument --n: must be positive, got 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("grid", [",", "", " , "])
    def test_empty_grid_usage_exit(self, grid, tmp_path, capsys):
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "needs at least one alpha" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    # a bad point after a good one is refused before any walk is simulated
    @pytest.mark.parametrize("grid, point", [("0", "0.0"), ("nan", "nan"), ("0.5,1.5", "1.5")])
    def test_invalid_grid_point_validation_exit(self, grid, point, tmp_path, capsys):
        argv = ["sweep", "--grid", grid, "--n", "200", "--M", "20", "--out", str(tmp_path)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"validation error: grid point {point}: alpha_range: alpha must lie in (0,1)" in err
        assert not any(tmp_path.iterdir())

    def test_steps_past_int32_write_times_validation_exit(self, tmp_path, capsys, monkeypatch):
        def no_library():
            raise AssertionError("the step kernel was loaded")

        monkeypatch.setattr(simulator, "_step_library", no_library)
        argv = ["clt", "--n", "2147483648", "--M", "1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_VALIDATION
        assert "outside 0 .. 2**31 - 1, the int32 write times" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, message",
        [("simulate", "no blocks in pool"), ("diagnostics", "need >= 20 walks with blocks")],
    )
    def test_no_walks_statistical_exit(self, command, message, tmp_path, capsys):
        argv = [command, "--n", "400", "--M", "0", "--out", str(tmp_path)]
        assert main(argv) == EXIT_STATISTICAL
        assert f"statistical error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("epsilon0", ["abc", None])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_numeric_epsilon0_validation_exit(self, command, epsilon0, tmp_path, capsys):
        doc = instance_k3_k3().to_json_dict()
        doc["epsilon0"] = epsilon0
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_VALIDATION
        assert "validation error: malformed optional section" in capsys.readouterr().err
        assert not out.exists()

    # numeric vertex names passed validation, and a run failed only once a CSV
    # row joined them as text; a list cannot be hashed into the kernel cache
    @pytest.mark.parametrize("names", ["numbers", "witness-list"])
    @pytest.mark.parametrize("command", ["validate", "simulate", "oracle-check"])
    def test_non_string_vertex_names_validation_exit(self, command, names, tmp_path, capsys):
        doc = instance_path_k3().to_json_dict()
        if names == "numbers":
            doc["factor1"].update(vertices=[0, 1, 2], root=0)
            doc["loop_witness"]["vertex"] = 1
        else:
            doc["loop_witness"]["vertex"] = ["m"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        sizes = {"simulate": ["--n", "2000", "--M", "20"], "oracle-check": ["--order", "4"]}
        argv = [command, "--config", str(cfg_path), "--out", str(out), *sizes.get(command, [])]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error: " in err and "string" in err
        assert not out.exists()

    # a list name or binding endpoint cannot be hashed into the kernel cache
    # or into validation's table of bound entries
    @pytest.mark.parametrize("field", ["name", "binding"])
    @pytest.mark.parametrize("command", ["validate", "genfun"])
    def test_non_string_name_or_binding_validation_exit(self, command, field, tmp_path, capsys):
        doc = instance_k3_k3().to_json_dict()
        if field == "name":
            doc["name"] = [1]
        else:
            doc["parameters"]["bindings"][0]["from"] = ["a"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error: " in err and "string" in err
        assert not out.exists()

    # a base at or below 1 tests no tail, and a base of 0 divides by zero; no KS
    # distance lies outside [0, 1], so such a threshold fixes the verdict
    @pytest.mark.parametrize(
        "option, value, reason",
        [
            *(("--mgf-base", v, "must be a finite number above 1") for v in ("0", "-1", "1", "nan", "inf")),
            *(("--ks-threshold", v, "must be a number in [0, 1]") for v in ("nan", "-1", "1.5", "inf")),
        ],
    )
    def test_gate_options_outside_their_range_usage_exit(self, option, value, reason, tmp_path, capsys):
        command = "diagnostics" if option == "--mgf-base" else "clt"
        assert main([command, option, value, "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"argument {option}: {reason}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_gate_options_at_the_ends_of_their_range(self):
        parse = build_parser().parse_args
        assert [parse(["clt", "--ks-threshold", v]).ks_threshold for v in ("0", "1")] == [0.0, 1.0]
        assert parse(["diagnostics", "--mgf-base", "1.000001"]).mgf_base == 1.000001
        # the string defaults pass through the types
        assert parse(["clt"]).ks_threshold == 0.05
        assert parse(["diagnostics"]).mgf_base == DEFAULT_MGF_BASE

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_witness_in_no_factor_validation_exit(self, command, tmp_path, capsys):
        doc = instance_k3_k3().to_json_dict()
        doc["loop_witness"]["factor"] = 3
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_VALIDATION
        if command == "validate":
            checks = json.loads((out / "validate_summary.json").read_text())["checks"]
            assert [c["name"] for c in checks if not c["ok"]] == ["loop_witness"]
        else:
            assert "validation error: loop_witness: witness" in capsys.readouterr().err
            assert not out.exists()

    # json reads these tokens as floats, and NaN fails every comparison, so
    # the sum and sign tests alone would pass a row holding it
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["validate", "genfun", "clt", "simulate"])
    def test_non_finite_transition_validation_exit(self, command, token, tmp_path, capsys):
        doc = instance_k3_k3().to_json_dict()
        del doc["parameters"], doc["loop_witness"]
        doc["factor1"]["transition"][1] = [0.5, 0.0, "entry"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc).replace('"entry"', token))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_VALIDATION
        if command == "validate":
            checks = json.loads((out / "validate_summary.json").read_text())["checks"]
            assert [c["name"] for c in checks if not c["ok"]] == ["factor1.row_stochastic"]
        else:
            err = capsys.readouterr().err
            assert "validation error: factor1.row_stochastic: bad rows: ['a']" in err
            assert not out.exists()

    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", "--config", "K3xK3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "validate_summary.json").exists()

    def test_validate_failure_exit_code(self, tmp_path):
        doc = instance_k3_k3().to_json_dict()
        doc["alpha"] = 1.0
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(["validate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["genfun", "--config", "nope.json", "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_validate_malformed_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_oracle_check_small(self, tmp_path, capsys):
        rc = main(
            [
                "oracle-check",
                "--config",
                "K3xK3",
                "--order",
                "6",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "oracle_check_summary.json").read_text())
        assert doc["failures"] == []

    def test_simulate_writes_blocks_csv(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--config",
                "K3xK3",
                "--n",
                "800",
                "--M",
                "10",
                "--buffer",
                "100",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        lines = (tmp_path / "simulate_blocks.csv").read_text().splitlines()
        assert lines[0] == "trajectory_id,k,delta_t,d_dist,d_ent,pair"
        assert len(lines) > 10

    def test_run_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = main(
                [
                    "simulate",
                    "--config",
                    "K3xK3",
                    "--n",
                    "600",
                    "--M",
                    "8",
                    "--buffer",
                    "100",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            assert rc == EXIT_OK
        for name in ("simulate_summary.json", "simulate_blocks.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            # the embedded manifest records the distinct output dirs
            assert a.replace(str(out1).encode(), b"X") == b.replace(
                str(out2).encode(), b"X"
            )
