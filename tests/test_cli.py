"""Config parsing, report emission stability, and command dispatch tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from freewalk.cli import (
    EXIT_OK,
    EXIT_STATISTICAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ParseError,
    RunManifest,
    config_from_json,
    emit_csv,
    emit_json,
    emit_report,
    main,
    parse_config,
)
from freewalk.core import InvalidConfig
from freewalk.instances import instance_k3_k3, instance_path_k3


class TestParseConfig:
    def test_named_shortcut(self):
        cfg = parse_config("K3xK3")
        assert cfg == instance_k3_k3()
        assert parse_config("PathxK3") == instance_path_k3()

    def test_missing_file(self):
        with pytest.raises(ParseError, match="no such file"):
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
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_config(str(path))

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing required field"):
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

    def test_csv_header_and_stability(self, tmp_path):
        rows = [
            {"trajectory_id": 0, "k": 1, "delta_t": 3, "d_dist": 2.0, "d_ent": 1.5},
            {"trajectory_id": 0, "k": 2, "delta_t": 5, "d_dist": 2.0, "d_ent": 1.5},
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "trajectory_id,k,delta_t,d_dist,d_ent"

    def test_report_embeds_digest_and_seed(self, tmp_path):
        cfg = instance_k3_k3()
        manifest = RunManifest(
            command="validate",
            config_path="K3xK3",
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
