"""End-to-end tests for the command-line front end and its exit codes."""

import filecmp
import json
import os
from fractions import Fraction as F

import pytest

from towerkit.cli import (EXIT_CONFIG, EXIT_CORRUPT, EXIT_INVARIANT,
                          EXIT_OK, EXIT_SIZE_CAP, ConfigError, PRESETS,
                          build_tower_from_config, load_config, main)
from towerkit.tower import _stage_eps_at, certify_theorem1

FAST_CONFIG = {
    "kind": "rational",
    "target": {"family": "points",
               "atoms": [["1", "1/2"], ["2", "1/2"]]},
    "deltas": ["1/10"],
    "epss": ["1/20"],
    "rounds": 2,
    "skyscraper": {"alphas": ["1"], "bound_alphas": [], "t_grid": ["2"]},
}


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


class TestConfigParsing:
    def test_rational_strings(self, fast_config):
        cfg = load_config(fast_config, None, None, None, None)
        assert cfg.deltas == [F(1, 10)]
        assert cfg.epss == [F(1, 20)]
        assert cfg.mode == "exact"
        assert len(cfg.config_hash) == 16

    def test_decimals_force_float_mode(self, tmp_path):
        obj = dict(FAST_CONFIG, deltas=[0.1], epss=[0.05])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        cfg = load_config(str(path), None, None, None, None)
        assert cfg.mode == "float"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json", None, None, None, None)

    def test_preset_known(self):
        for name in PRESETS:
            cfg = load_config(None, name, None, None, None)
            assert cfg.kind in ("rational", "example", "general")

    def test_invalid_kind(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(FAST_CONFIG, kind="bogus")))
        with pytest.raises(ConfigError):
            load_config(str(path), None, None, None, None)

    def test_increasing_schedule_rejected(self, tmp_path):
        obj = dict(FAST_CONFIG, deltas=["1/20", "1/10"],
                   epss=["1/40", "1/20"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError):
            load_config(str(path), None, None, None, None)

    def test_cap_override(self, fast_config):
        cfg = load_config(fast_config, None, None, 777, None)
        assert cfg.size_cap == 777

    def test_hash_ignores_nothing(self, fast_config, tmp_path):
        cfg1 = load_config(fast_config, None, None, None, None)
        other = tmp_path / "c2.json"
        other.write_text(json.dumps(dict(FAST_CONFIG, rounds=3)))
        cfg2 = load_config(str(other), None, None, None, None)
        assert cfg1.config_hash != cfg2.config_hash


class TestExitCodes:
    def test_full_pipeline_ok(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        for name in ("split.json", "tower.json", "verify_report.json",
                     "inversion_report.json", "are_report.json"):
            assert (out / name).exists()

    def test_invalid_config_is_2(self, tmp_path):
        assert main(["build", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_no_config_is_2(self, tmp_path):
        assert main(["build", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_size_cap_is_3_with_partial_trace(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--config", fast_config, "--out", str(out),
                     "--cap", "100"]) == EXIT_SIZE_CAP
        partial = json.loads((out / "tower.json").read_text())
        assert "size cap" in partial["error"]
        assert "config_hash" in partial

    def test_corrupt_trace_is_4(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        obj = json.loads((out / "tower.json").read_text())
        obj["gamma_checksum"] = "0" * 16
        (out / "tower.json").write_text(json.dumps(obj))
        assert main(["verify", "--config", fast_config,
                     "--out", str(out)]) == EXIT_CORRUPT

    def test_verify_without_build_is_4(self, fast_config, tmp_path):
        assert main(["verify", "--config", fast_config,
                     "--out", str(tmp_path / "empty")]) == EXIT_CORRUPT

    def test_empty_k_grid_is_2(self, fast_config, tmp_path):
        out = tmp_path / "out"
        obj = dict(FAST_CONFIG, k_grid=[])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        assert main(["build", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
        assert main(["verify", "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG

    def test_tail_fault_injection_is_5(self, tmp_path):
        obj = json.loads(json.dumps(FAST_CONFIG))
        obj["skyscraper"]["inject_tail_fault"] = True
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        assert main(["skyscraper", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_INVARIANT


class TestVerifyMargin:
    def test_margin_line_on_stderr(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        before = sorted(os.listdir(out))
        capsys.readouterr()
        assert main(["verify", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        lines = [json.loads(line) for line in
                 capsys.readouterr().err.splitlines() if line.startswith("{")]
        assert len(lines) == 1
        # recompute: least stage eps minus distance over the grid
        trace = build_tower_from_config(
            load_config(fast_config, None, None, None, None))
        rep = certify_theorem1(trace)
        slack = {k: _stage_eps_at(trace, k) - d
                 for k, d in rep.vasershtein.items()}
        k = min(slack, key=lambda j: (slack[j], j))
        assert lines[0] == {"verify_margin": slack[k], "k": k}
        assert slack[k] > 0
        # the margin goes to stderr only: --out gains just the verify outputs
        new = set(os.listdir(out)) - set(before)
        assert {n for n in new if not n.startswith("skdist_")} == \
            {"verify_report.json"}


class TestDeterminism:
    def test_byte_identical_runs(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["all", "--config", fast_config, "--out", str(out1),
                     "--workers", "1"]) == EXIT_OK
        assert main(["all", "--config", fast_config, "--out", str(out2),
                     "--workers", "4"]) == EXIT_OK
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []


class TestReports:
    def test_reports_embed_hash_and_mode(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["all", "--config", fast_config, "--out", str(out)])
        cfg = load_config(fast_config, None, None, None, None)
        for name in ("split.json", "verify_report.json",
                     "inversion_report.json", "are_report.json"):
            obj = json.loads((out / name).read_text())
            assert obj["config_hash"] == cfg.config_hash
            assert obj["mode"] == "exact"
        tower = json.loads((out / "tower.json").read_text())
        assert tower["config_hash"] == cfg.config_hash
        assert tower["mode"] == "exact"

    def test_occupation_csv_emitted(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["all", "--config", fast_config, "--out", str(out)])
        occs = [n for n in os.listdir(out)
                if n.startswith("occupation_") and n.endswith(".csv")]
        assert len(occs) == 2
        lines = (out / occs[0]).read_text().strip().splitlines()
        assert lines[0] == "count,mass"
