"""End-to-end tests for the command-line front end and its exit codes."""

import filecmp
import json
import os
from fractions import Fraction as F

import numpy as np
import pytest

from towerkit.cli import (EXIT_CONFIG, EXIT_CORRUPT, EXIT_INVARIANT,
                          EXIT_OK, EXIT_SIZE_CAP, ConfigError, PRESETS,
                          build_tower_from_config, load_config, main,
                          parse_number)
from towerkit import cli
from towerkit import skyscraper as sky
from towerkit import tower
from towerkit.blocks import Block
from towerkit.lemma_engine import GammaTable, SizeCapError
from towerkit.tower import CorruptTraceError, certify_theorem1

from oracles import gamma_oracle, oracle_histograms

FAST_CONFIG = {
    "kind": "rational",
    "target": {"family": "points",
               "atoms": [["1", "1/2"], ["2", "1/2"]]},
    "deltas": ["1/10"],
    "epss": ["1/20"],
    "rounds": 2,
    "skyscraper": {"alphas": ["1"], "bound_alphas": [], "t_grid": ["2"]},
}


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def fast_config(tmp_path):
    return write_config(tmp_path / "config.json", FAST_CONFIG)


class TestConfigParsing:
    def test_rational_strings(self, fast_config):
        cfg = load_config(fast_config, None, None, None, None)
        assert cfg.deltas == [F(1, 10)]
        assert cfg.epss == [F(1, 20)]
        assert len(cfg.config_hash) == 16

    def test_decimals_read_exactly(self, tmp_path):
        # a JSON float is read through its shortest repr, a decimal string
        # goes straight to Fraction
        obj = dict(FAST_CONFIG, deltas=[0.1], epss=["0.05"],
                   skyscraper={"x_values": ["2.50", 0.3]})
        cfg = load_config(write_config(tmp_path / "c.json", obj), None)
        assert cfg.deltas == [F(1, 10)] and cfg.epss == [F(1, 20)]
        assert cfg.skyscraper.x_values == (F(5, 2), F(3, 10))
        # e0 is read by example runs only
        example = load_config(write_config(tmp_path / "e.json",
                                           {"e0": "5.0e3"}), "example1")
        assert example.e0 == F(5000)
        numbers = cfg.deltas + cfg.epss + [example.e0,
                                           *cfg.skyscraper.x_values]
        assert all(type(x) is F for x in numbers)

    def test_decimal_config_builds_its_rational_twin(self, fast_config,
                                                     tmp_path):
        decimal = write_config(tmp_path / "decimal.json", dict(
            FAST_CONFIG, deltas=[0.1], epss=["0.05"],
            target={"family": "points",
                    "atoms": [[1, 0.5], ["2.0", "0.50"]]}))
        towers = []
        for i, config in enumerate((fast_config, decimal)):
            out = tmp_path / f"out{i}"
            assert main(["build", "--config", config,
                         "--out", str(out)]) == EXIT_OK
            towers.append(json.loads((out / "tower.json").read_text()))
        assert towers[0].pop("config_hash") != towers[1].pop("config_hash")
        assert towers[0] == towers[1]

    def test_non_numbers_rejected(self):
        for x in (True, False, None, [1], "nan", "inf", "-inf", "1/0", "",
                  float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                parse_number(x)

    def test_only_exact_mode(self, fast_config, tmp_path):
        # exact is the one mode, and no config key chooses it: "mode" is
        # an unknown key, whatever its value
        for mode in ("exact", "float"):
            path = write_config(tmp_path / f"{mode}.json",
                                dict(FAST_CONFIG, mode=mode))
            with pytest.raises(ConfigError, match="unknown config key"):
                load_config(path, None)
            out = tmp_path / mode
            assert main(["all", "--config", path,
                         "--out", str(out)]) == EXIT_CONFIG
            assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main(["build", "--config", fast_config, "--mode", "float",
                  "--out", str(tmp_path / "b")])
        assert exc.value.code == EXIT_CONFIG
        for retired in ({"mode": "exact"}, {"workers": 1}):
            with pytest.raises(ConfigError):
                load_config(fast_config, None, **retired)

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=f"{'.'.join(path)}={value!r}")
        for path in (("size_cap",), ("rounds",), ("max_depth",),
                     ("skyscraper", "n_points"),
                     ("skyscraper", "base", "rounds"))
        for value in ("1/2", "2.5", True, "x")] + [
        # the tolerances take any number, but not a bool or a word
        pytest.param(path, value, id=f"{'.'.join(path)}={value!r}")
        for path in (("doubling_tol",), ("skyscraper", "tol"))
        for value in (True, "x")])
    def test_bad_config_numbers_are_2(self, path, value, tmp_path):
        obj = json.loads(json.dumps(FAST_CONFIG))
        obj["skyscraper"]["base"] = {k: FAST_CONFIG[k] for k in (
            "kind", "target", "deltas", "epss", "rounds")}
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        command = "skyscraper" if path[0] == "skyscraper" else "build"
        assert main([command, "--config",
                     write_config(tmp_path / "c.json", obj),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key}={value!r}")
        for key, values in (("k_grid", ([0], [-3], ["a"], [1.5], 5)),
                            ("sk_dist_ks", (["x"], [0])))
        for value in values])
    def test_bad_k_lists_are_2(self, key, value, tmp_path):
        # read when the config loads, before verify would divide by k or
        # write skdist_0.csv
        path = write_config(tmp_path / "c.json", {key: value})
        with pytest.raises(ConfigError):
            load_config(path, "example1")
        assert main(["verify", "--preset", "example1", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "skdist_0.csv").exists()

    @pytest.mark.parametrize("preset, override", [
        pytest.param("pareto1", {"etas": value}, id=f"etas={value!r}")
        for value in ([0], ["-1/2"], ["1/2"])] + [
        pytest.param("example1", {"e0": "-5"}, id="e0='-5'")])
    def test_bad_stage_values_are_2(self, preset, override, tmp_path):
        # etas must be positive, one per stage like deltas, and e0 positive
        path = write_config(tmp_path / "c.json", override)
        with pytest.raises(ConfigError):
            load_config(path, preset)
        assert main(["build", "--preset", preset, "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("base", [
        pytest.param({"kind": "bogus"}, id="bogus-kind"),
        pytest.param({"kind": "rational", "deltas": ["1/20"],
                      "epss": ["1/40"]}, id="rational-without-target")])
    def test_bad_skyscraper_base_is_2(self, base, tmp_path):
        # the base run goes through the same checks as the run itself
        path = write_config(tmp_path / "c.json",
                            {"skyscraper": {"base": base}})
        assert main(["skyscraper", "--preset", "twopoint", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_bad_skyscraper_base_stops_all_before_writing(self, tmp_path):
        # the base is checked when the config loads, so "all" writes no
        # split, tower or verify file before it exits
        path = write_config(tmp_path / "c.json",
                            {"skyscraper": {"base": {"kind": "bogus"}}})
        with pytest.raises(ConfigError):
            load_config(path, "twopoint")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", "twopoint", "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("preset, override", [
        pytest.param(preset, override, id=f"{preset}-kappas={kappas}")
        for kappas in (["-1"], ["10000"])
        for preset, override in (
            ("example1", {"kappas": kappas, "epss": ["1/4"]}),
            ("twopoint", {"skyscraper": {"base": {
                "kind": "example", "kappas": kappas, "epss": ["1/4"]}}}))])
    def test_bad_example_kappas_stop_all_before_writing(self, preset,
                                                        override, tmp_path):
        # an example run, or base, needs 0 <= kappa_n <= eps_n * E with
        # E = e0 + kappa_1 + ... + kappa_{n-1}; the base has the default
        # e0 of 5000, so 10000 exceeds 5000/4
        path = write_config(tmp_path / "c.json", override)
        with pytest.raises(ConfigError, match="kappa=") as exc:
            load_config(path, preset)
        assert "stage 1" in str(exc.value)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", preset, "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("preset, override", [
        pytest.param("example1", {"kappas": kappas, "epss": epss},
                     id=f"example1-{len(kappas)}-kappas-{len(epss)}-epss")
        for kappas, epss in (([], []), (["1"], ["1/4", "1/5"]))] + [
        pytest.param("twopoint", {"skyscraper": {"base": {
            "kind": "example", "kappas": ["1", "1"], "epss": ["1/4"]}}},
            id="example-base-2-kappas-1-eps")])
    def test_unmatched_example_schedules_stop_all_before_writing(
            self, preset, override, tmp_path):
        # check_example_run decides matching schedules for an example run
        # and an example base alike
        path = write_config(tmp_path / "c.json", override)
        with pytest.raises(ConfigError, match="matching nonempty"):
            load_config(path, preset)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", preset, "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    def test_x_values_is_a_skyscraper_key_only(self, tmp_path):
        # verify takes its cdf thresholds from the target's atoms, so a
        # top-level x_values is an unknown key; the skyscraper's stays
        path = write_config(tmp_path / "c.json", {"x_values": ["1/2"]})
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path, "twopoint")
        out = tmp_path / "out"
        assert main(["all", "--preset", "twopoint", "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        section = dict(PRESETS["twopoint"]["skyscraper"], x_values=["3/2"])
        cfg = load_config(write_config(tmp_path / "s.json",
                                       {"skyscraper": section}), "twopoint")
        assert cfg.skyscraper.x_values == (F(3, 2),)
        assert not hasattr(cfg, "x_values")

    @pytest.mark.parametrize("sky_obj", [
        pytest.param("x", id="skyscraper-not-object"),
        pytest.param({"base": "x"}, id="base-not-object"),
        pytest.param({"base": {"kind": "rational", "deltas": ["1/20"],
                               "epss": ["1/40"], "target": "x"}},
                     id="target-not-object"),
        pytest.param({"base": {"kind": "rational", "deltas": ["1/20"],
                               "epss": ["1/40"],
                               "target": {"family": "nope"}}},
                     id="unknown-family"),
        pytest.param({"base": {"kind": "rational", "deltas": ["1/20"],
                               "epss": ["1/40"],
                               "target": {"family": "pareto",
                                          "alpha": "1"}}},
                     id="rational-base-without-points")])
    def test_bad_skyscraper_config_is_2_before_writing(self, sky_obj,
                                                       tmp_path):
        # the skyscraper section and its base target are checked when the
        # config loads, not when the skyscraper step builds the base
        path = write_config(tmp_path / "c.json", {"skyscraper": sky_obj})
        with pytest.raises(ConfigError):
            load_config(path, "twopoint")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", "twopoint", "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("preset, override", [
        pytest.param("twopoint", {"skyscraper": {key: value}},
                     id=f"skyscraper.{key}={value!r}")
        for key, value in (("alphas", ["x"]), ("n_points", "2.5"),
                           ("n_points", 0), ("tol", "abc"), ("tol", "-1"),
                           ("tol", 0), ("eta", "-1"),
                           ("tail_constant", "-1"), ("tail_constant", 0),
                           ("rho", "pareto2"))] + [
        pytest.param("twopoint", {"rounds": 0}, id="rounds=0"),
        pytest.param("twopoint", {"doubling_tol": "-1"},
                     id="doubling_tol='-1'"),
        pytest.param("twopoint", {"doubling_tol": 0}, id="doubling_tol=0"),
        pytest.param("twopoint", {"deltas": ["1/5"], "epss": ["1/20"]},
                     id="delta_1-not-below-min(Y)/9"),
        pytest.param("twopoint", {"deltas": ["1/10"], "epss": ["1/8"]},
                     id="eps_1-above-delta_1"),
        pytest.param("twopoint", {"skyscraper": {"base": {
            "kind": "rational", "deltas": ["1/20"], "epss": ["1/40"],
            "rounds": 0, "target": {"family": "points",
                                    "atoms": [["1/2", "1/2"],
                                              ["1", "1/2"]]}}}},
            id="base-rounds=0")] + [
        pytest.param("twopoint", {"k_grid": []}, id="k_grid=[]"),
        pytest.param("pareto1", {"target": {"family": "pareto"}},
                     id="pareto-without-alpha"),
        pytest.param("lognormal", {"target": {"family": "lognormal",
                                              "sigma": "abc"}},
                     id="lognormal-sigma='abc'"),
        pytest.param("twopoint", {"target": {
            "family": "points", "atoms": [["1", "1/4"], ["2", "1/4"]]}},
            id="points-masses-sum-to-1/2"),
        pytest.param("twopoint", {"target": {"family": "points"}},
                     id="points-without-atoms"),
        pytest.param("twopoint", {"skyscraper": {"base": {
            "kind": "rational", "deltas": ["1/20"], "epss": ["1/40"],
            "target": {"family": "points", "atoms": [["1/2", "1/2"]]}}}},
            id="base-points-masses-sum-to-1/2")])
    def test_malformed_config_is_2_before_writing(self, preset, override,
                                                  tmp_path):
        # every key is read when the config loads, so "all" exits 2
        # before any step writes
        path = write_config(tmp_path / "c.json", override)
        with pytest.raises(ConfigError):
            load_config(path, preset)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", preset, "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("override", [
        pytest.param({"size_caps": 10}, id="size_caps"),
        pytest.param({"skyscraper": {"alpha": ["1"]}}, id="skyscraper.alpha"),
        *(pytest.param({"skyscraper": {"base": dict(
            PRESETS["twopoint"]["skyscraper"]["base"], **{key: value})}},
            id=f"skyscraper.base.{key}")
          for key, value in (("e0", "1"), ("max_depth", 4),
                             ("etas", ["1/2"]), ("size_cap", 10)))])
    def test_unknown_keys_are_2_before_writing(self, override, tmp_path):
        # a key that load_config does not read would be silently ignored
        path = write_config(tmp_path / "c.json", override)
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path, "twopoint", None, None, None)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", "twopoint", "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("preset, override", [
        *(pytest.param("example1", {key: value}, id=f"example-{key}")
          for key, value in (("deltas", ["1/2"]),
                             ("target", FAST_CONFIG["target"]),
                             ("etas", []))),
        *(pytest.param("twopoint", {key: value}, id=f"rational-{key}")
          for key, value in (("kappas", ["1"]), ("e0", "5000"),
                             ("etas", ["1/2", "1/2"]))),
        *(pytest.param("pareto1", {key: value}, id=f"general-{key}")
          for key, value in (("kappas", ["1"]), ("e0", "5000"))),
        pytest.param("twopoint", {"skyscraper": {"base": dict(
            PRESETS["twopoint"]["skyscraper"]["base"], kappas=["1"])}},
            id="rational-base-kappas"),
        pytest.param("twopoint", {"skyscraper": {"base": {
            "kind": "example", "kappas": ["1"], "epss": ["1/4"],
            "deltas": ["1/2"]}}}, id="example-base-deltas")])
    def test_keys_a_kind_never_reads_are_2_before_writing(
            self, preset, override, tmp_path):
        # such a key would be accepted and ignored: an example run with
        # deltas wrote the tower it writes without them
        path = write_config(tmp_path / "c.json", override)
        with pytest.raises(ConfigError, match="do not read"):
            load_config(path, preset)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["all", "--preset", preset, "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    def test_skyscraper_base_shares_hash_rounds_and_cap(self):
        cfg = load_config(None, "twopoint", cap=123456)
        assert cfg.base.kind == "rational" and cfg.base.deltas == [F(1, 20)]
        assert cfg.base.config_hash == cfg.config_hash
        assert cfg.base.rounds == 2 and cfg.base.size_cap == 123456
        assert load_config(None, "lognormal").base is None

    @pytest.mark.parametrize("alpha", ["-1", "0"])
    def test_nonpositive_alpha_is_2(self, alpha, tmp_path):
        obj = json.loads(json.dumps(FAST_CONFIG))
        obj["skyscraper"]["alphas"] = [alpha]
        assert main(["skyscraper", "--config",
                     write_config(tmp_path / "c.json", obj),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_k_lists_read_exactly(self, tmp_path):
        obj = dict(FAST_CONFIG, k_grid=["1e2", 7, "14/2"], sk_dist_ks=[3.0])
        cfg = load_config(write_config(tmp_path / "c.json", obj), None)
        assert cfg.k_grid == [100, 7, 7] and cfg.sk_dist_ks == [3]
        assert all(type(k) is int for k in cfg.k_grid + cfg.sk_dist_ks)
        assert load_config(write_config(tmp_path / "d.json", FAST_CONFIG),
                           None).k_grid is None

    def test_config_counts_read_exactly(self, tmp_path):
        obj = dict(FAST_CONFIG, size_cap="1e6", rounds="3", max_depth=12.0,
                   doubling_tol="1/8")
        cfg = load_config(write_config(tmp_path / "c.json", obj), None)
        assert (cfg.size_cap, cfg.rounds, cfg.max_depth) == (10 ** 6, 3, 12)
        assert all(type(x) is int
                   for x in (cfg.size_cap, cfg.rounds, cfg.max_depth))
        assert cfg.doubling_tol == 0.125

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

    def test_sum_past_int64_is_3(self, tmp_path, capsys):
        # S_k at k = 10^17 leaves int64 while verify measures the grid
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", {"k_grid": ["1e17"]})
        assert main(["all", "--preset", "twopoint", "--config", path,
                     "--out", str(out)]) == EXIT_SIZE_CAP
        assert not (out / "verify_report.json").exists()
        err = capsys.readouterr().err
        assert "int64 range exceeded" in err and "Traceback" not in err

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

    def test_no_admissible_horizon_is_2(self, fast_config, tmp_path,
                                        monkeypatch, capsys):
        # a skyscraper whose tower covers no horizon n >= 4*max weight
        monkeypatch.setattr(sky.IntegerTower, "covered_horizon",
                            lambda self: 0)
        cfg = load_config(fast_config, None)
        with pytest.raises(sky.SkyscraperError):
            cli.cmd_skyscraper(cfg, str(tmp_path))
        out = tmp_path / "out"
        assert main(["skyscraper", "--config", fast_config,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "no admissible time horizons" in capsys.readouterr().err
        assert not any(n.startswith("occupation_") or n.endswith(".json")
                       for n in os.listdir(out))

    def test_empty_k_grid_is_2(self, fast_config, tmp_path):
        out = tmp_path / "out"
        obj = dict(FAST_CONFIG, k_grid=[])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        # read when the config loads, before --out is even made
        assert main(["build", "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_tail_fault_injection_is_5(self, fast_config, tmp_path,
                                       monkeypatch):
        # inflate the heaviest weights so the occupation tail bound must
        # fail and the hard-invariant exit path is exercised
        integerize = sky.integerize

        def faulty(trace, eta):
            it = integerize(trace, eta)
            blocks = {}
            for s in it.symbols:
                w = it.blocks[s].units.copy()
                w[w.argsort()[int(len(w) * 0.7):]] *= 4
                blocks[s] = Block(w, it.time_unit)
            return sky.IntegerTower(it.trace, it.symbols, blocks,
                                    it.time_unit, it.occupation_target,
                                    it.eta, it.perturbations)

        monkeypatch.setattr(sky, "integerize", faulty)
        assert main(["skyscraper", "--config", fast_config,
                     "--out", str(tmp_path / "out")]) == EXIT_INVARIANT


class TestVerdictExitCodes:
    """Every exit code that a verdict decides, each driven by config
    alone."""

    @staticmethod
    def run(tmp_path, preset, override, *steps):
        path = write_config(tmp_path / "c.json", override)
        out = tmp_path / "out"
        return [main([step, "--preset", preset, "--config", path,
                      "--out", str(out)]) for step in steps], out

    @staticmethod
    def read(out, name):
        return json.loads((out / name).read_text())

    def test_doubling_is_5(self, tmp_path):
        codes, out = self.run(tmp_path, "twopoint", {"doubling_tol": "1e-9"},
                              "build", "verify")
        assert codes == [EXIT_OK, EXIT_INVARIANT]
        report = self.read(out, "verify_report.json")
        assert report["doubling_ok"] is False
        assert report["stage_eps_ok"] and report["lower_bound_ok"]

    def test_lower_bound_is_5(self, tmp_path, monkeypatch):
        # no config fails the bound on a preset, so the constant M drops
        # from 9/8 to 1/2; each failure is listed at x = y/M for an atom y
        # of the target, and a repeated k once, at its first place, each
        # side as its exact string
        monkeypatch.setattr(tower, "BICYCLE_M", F(1, 2))
        grid = [3, 1, 2, 3, 50, 2]
        codes, out = self.run(tmp_path, "twopoint", {"k_grid": grid},
                              "build", "verify")
        assert codes == [EXIT_OK, EXIT_INVARIANT]
        report = self.read(out, "verify_report.json")
        assert report["stage_eps_ok"] and report["doubling_ok"]
        assert report["lower_bound_ok"] is False
        trace = build_tower_from_config(
            load_config(str(tmp_path / "c.json"), "twopoint"))
        arr, y, want = trace.final, trace.target, []
        ks = list(dict.fromkeys(grid))
        for k, hist in zip(ks, oracle_histograms(
                [arr.blocks[s] for s in arr.symbols], ks)):
            b = k * gamma_oracle(trace.global_gamma, k)
            for v in y.values:
                x = 2 * v
                lhs = F(hist.count_below(x * b), hist.total)
                bound = y.cdf_below(v)
                if lhs > bound:
                    want.append([k, str(x), str(lhs), str(bound)])
        assert len(want) >= len(ks)
        assert report["lower_bound_failures"] == want

    def test_inversion_top_is_5(self, tmp_path):
        section = dict(PRESETS["twopoint"]["skyscraper"], tol="1e-9")
        codes, out = self.run(tmp_path, "twopoint", {"skyscraper": section},
                              "skyscraper")
        assert codes == [EXIT_INVARIANT]
        assert self.read(out, "inversion_report.json")[
            "inversion"]["top_ok"] is False

    def test_are_bound_is_5(self, tmp_path):
        # without the Pareto tail integral, rho comes from the truncated
        # target, and u at alpha 1/2 exceeds twice it
        section = {key: v for key, v in PRESETS["pareto1"]["skyscraper"]
                   .items() if key != "rho"}
        codes, out = self.run(tmp_path, "pareto1", {"skyscraper": section},
                              "skyscraper")
        assert codes == [EXIT_INVARIANT]
        rows = self.read(out, "are_report.json")["alphas"]
        assert {r["alpha"]: r["bound_ok"] for r in rows} == \
            {0.5: False, 1.5: None}
        assert self.read(out, "inversion_report.json")[
            "inversion"]["top_ok"] is True


def bump(v):
    """The same JSON value with its first leaf changed."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float)):
        return 2 * v + 1
    if isinstance(v, str):
        return v + "1"
    if v is None:
        return "1"
    if isinstance(v, list):
        return [bump(v[0])] + v[1:]
    key = sorted(v)[0]
    return dict(v, **{key: bump(v[key])})


class TestVerifyIntegrity:
    """verify checks every field of tower.json against the tower that its
    config builds, and reads a broken file as a corrupt trace."""

    def verify(self, config, out):
        return main(["verify", "--config", config, "--out", str(out)])

    def test_every_edited_field_is_4(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        good = json.loads((out / "tower.json").read_text())
        edits = {key: dict(good, **{key: bump(good[key])})
                 for key in good}
        for key in good["stages"][0]:
            stages = [dict(good["stages"][0], **{key: bump(
                good["stages"][0][key])})] + good["stages"][1:]
            edits[f"stages[0].{key}"] = dict(good, stages=stages)
        # a gamma table edited together with its checksum
        gamma = bump(good["gamma"])
        edits["gamma with checksum"] = dict(
            good, gamma=gamma,
            gamma_checksum=GammaTable.from_json_obj(gamma).checksum())
        assert {"height", "target", "epss", "cert_valid"} <= \
            set(good) | set(good["stages"][0])
        for name, obj in edits.items():
            assert obj != good
            (out / "tower.json").write_text(json.dumps(obj))
            assert self.verify(fast_config, out) == EXIT_CORRUPT, name
        (out / "tower.json").write_text(json.dumps(good))
        assert self.verify(fast_config, out) == EXIT_OK

    @pytest.mark.parametrize("gamma", [
        {"mode": "linear", "anchors": [], "eps": []},
        {"mode": "linear", "anchors": [], "eps": [[1, "0.05"]]},
        {"mode": "linear", "anchors": [[1, "1"]], "eps": []},
        {"mode": "linear", "anchors": [[1]], "eps": [[1, "0.05"]]},
        {"mode": "linear", "anchors": [[2, "1"], [1, "1"]],
         "eps": [[1, "0.05"]]},
        {"mode": "steps", "anchors": [[1, "1"]], "eps": [[1, "0.05"]]},
    ], ids=["empty", "no-anchors", "no-eps", "short", "decreasing-k",
            "mode"])
    def test_malformed_gamma_is_4(self, gamma, fast_config, tmp_path):
        # with its checksum recomputed wherever the table loads at all
        out = tmp_path / "out"
        assert main(["build", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        good = json.loads((out / "tower.json").read_text())
        try:
            checksum = GammaTable.from_json_obj(gamma).checksum()
        except (ValueError, TypeError):
            checksum = good["gamma_checksum"]
        (out / "tower.json").write_text(json.dumps(
            dict(good, gamma=gamma, gamma_checksum=checksum)))
        assert self.verify(fast_config, out) == EXIT_CORRUPT

    def test_partial_manifest_is_4(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--config", fast_config, "--out", str(out),
                     "--cap", "100"]) == EXIT_SIZE_CAP
        assert self.verify(fast_config, out) == EXIT_CORRUPT

    def test_non_json_is_4(self, fast_config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for text in ("not json", "[1, 2]", '{"gamma": {}}'):
            (out / "tower.json").write_text(text)
            assert self.verify(fast_config, out) == EXIT_CORRUPT, text

    def test_unopenable_tower_json_is_4(self, fast_config, tmp_path,
                                        capsys):
        # a directory in its place cannot be opened: a corrupt artifact,
        # not a traceback
        out = tmp_path / "out"
        (out / "tower.json").mkdir(parents=True)
        assert self.verify(fast_config, out) == EXIT_CORRUPT
        err = capsys.readouterr().err
        assert "corrupt artifact" in err and "Traceback" not in err


class TestOneBuildPerRun:
    """Within one run a config builds its split sequence and its tower
    once, and every step reads them; a new run builds them again."""

    BUILDERS = ("build_split_sequence", "build_example_tower",
                "build_rational_tower", "build_general_tower")

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        for name in self.BUILDERS:
            def counted(*args, _name=name, _fn=getattr(cli, name),
                        **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        return calls

    @pytest.mark.parametrize("preset, builds, rebuilds", [
        ("pareto1", ["build_general_tower", "build_rational_tower",
                     "build_split_sequence"],
         ["build_general_tower", "build_split_sequence"]),
        ("twopoint", ["build_rational_tower", "build_rational_tower",
                      "build_split_sequence"],
         ["build_rational_tower"]),
    ])
    def test_all_builds_once_per_config(self, preset, builds, rebuilds,
                                        calls, tmp_path):
        # all: one split, the run's tower and its skyscraper.base tower;
        # a later verify is a new run, with a new config
        out = str(tmp_path / "out")
        assert main(["all", "--preset", preset, "--out", out]) == EXIT_OK
        assert sorted(calls) == builds
        calls.clear()
        assert main(["verify", "--preset", preset, "--out", out]) == EXIT_OK
        assert sorted(calls) == rebuilds

    def test_edited_tower_json_is_4_on_a_built_config(self, fast_config,
                                                      tmp_path):
        # verify compares tower.json with the config's tower, also when
        # that tower was built by this config's build step
        cfg, out = load_config(fast_config, None), str(tmp_path)
        assert cli.cmd_build(cfg, out) == EXIT_OK
        trace = cfg.trace
        path = tmp_path / "tower.json"
        good = json.loads(path.read_text())
        for key in good:
            path.write_text(json.dumps(dict(good, **{key: bump(good[key])})))
            with pytest.raises(CorruptTraceError):
                cli.cmd_verify(cfg, out)
        assert main(["verify", "--config", fast_config,
                     "--out", out]) == EXIT_CORRUPT
        path.write_text(json.dumps(good))
        assert cli.cmd_verify(cfg, out) == EXIT_OK
        assert cfg.trace is trace

    def test_size_cap_error_is_not_held(self, fast_config, calls):
        cfg = load_config(fast_config, None, cap=100)
        for _ in range(2):
            with pytest.raises(SizeCapError):
                cfg.trace
        assert calls == ["build_rational_tower"] * 2

    def test_skyscraper_frees_the_run_tower_for_its_base(self, tmp_path):
        cfg, out = load_config(None, "pareto1"), str(tmp_path)
        assert cli.cmd_build(cfg, out) == EXIT_OK
        assert "trace" in vars(cfg)
        assert cli.cmd_skyscraper(cfg, out) == EXIT_OK
        assert "trace" not in vars(cfg) and "trace" in vars(cfg.base)


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

        def stage_eps(k):
            # the eps of the first stage that reaches k, else the last
            return next((st.eps for st in trace.stages if k <= st.height),
                        trace.stages[-1].eps)

        slack = {k: stage_eps(k) - d for k, d in rep.eps.distances.items()}
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
        assert main(["all", "--config", fast_config,
                     "--out", str(out1)]) == EXIT_OK
        assert main(["all", "--config", fast_config,
                     "--out", str(out2)]) == EXIT_OK
        # a re-run into out1 rewrites every file: still the same bytes
        assert main(["all", "--config", fast_config,
                     "--out", str(out1)]) == EXIT_OK
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []


class TestRewrite:
    """A re-run replaces each file of its step: it never writes through
    an existing file, and a failing step leaves no report of its own from
    an earlier run."""

    def run(self, cmd, config, out):
        return main([cmd, "--config", config, "--out", str(out)])

    def test_no_file_written_through_a_link(self, fast_config, tmp_path):
        out, keep = tmp_path / "out", tmp_path / "keep"
        assert self.run("all", fast_config, out) == EXIT_OK
        names = sorted(os.listdir(out))
        want = {name: (out / name).read_bytes() for name in names}
        keep.mkdir()
        for name in names:
            os.link(out / name, keep / name)
            (keep / name).write_bytes(b"earlier\n")
        assert self.run("all", fast_config, out) == EXIT_OK
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (keep / name).read_bytes() == b"earlier\n", name
            assert (out / name).read_bytes() == want[name], name
        # verify on its own replaces its report too
        linked = tmp_path / "linked.json"
        os.link(out / "verify_report.json", linked)
        linked.write_bytes(b"earlier\n")
        assert self.run("verify", fast_config, out) == EXIT_OK
        assert linked.read_bytes() == b"earlier\n"
        assert (out / "verify_report.json").read_bytes() == \
            want["verify_report.json"]

    def test_failed_verify_leaves_no_report(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert self.run("all", fast_config, out) == EXIT_OK
        obj = json.loads((out / "tower.json").read_text())
        obj["height"] += 1
        (out / "tower.json").write_text(json.dumps(obj))
        assert self.run("verify", fast_config, out) == EXIT_CORRUPT
        left = set(os.listdir(out))
        assert "verify_report.json" not in left
        assert not any(n.startswith("skdist_") for n in left)
        assert {"inversion_report.json", "are_report.json"} <= left

    def test_failed_skyscraper_leaves_no_report(self, fast_config,
                                                tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert self.run("all", fast_config, out) == EXIT_OK

        def failing(it, n_grid, *args):
            raise sky.InversionError("injected", None)

        monkeypatch.setattr(sky, "occupation_sweep", failing)
        assert self.run("skyscraper", fast_config, out) == EXIT_INVARIANT
        left = set(os.listdir(out))
        assert not left & {"inversion_report.json", "are_report.json"}
        assert not any(n.startswith("occupation_") for n in left)
        assert {"tower.json", "verify_report.json"} <= left

    def all_preset(self, preset, out, *extra):
        return main(["all", "--preset", preset, "--out", str(out), *extra])

    def hashes(self, out):
        return {json.loads((out / n).read_text())["config_hash"]
                for n in os.listdir(out) if n.endswith(".json")}

    def test_example_run_removes_an_earlier_split(self, tmp_path):
        # an example run has no split step, yet an earlier run's
        # split.json is among the files that "all" owns
        out = tmp_path / "out"
        assert self.all_preset("twopoint", out) == EXIT_OK
        assert self.all_preset("example1", out) == EXIT_OK
        assert "split.json" not in os.listdir(out)
        assert self.hashes(out) == {load_config(None, "example1").config_hash}

    def test_failed_build_leaves_no_earlier_report(self, tmp_path):
        # "all" stops at the failing build, so the later steps never run,
        # and none of their files from the first run may stay
        out = tmp_path / "out"
        assert self.all_preset("twopoint", out) == EXIT_OK
        assert self.all_preset("twopoint", out, "--cap", "1000") == \
            EXIT_SIZE_CAP
        assert sorted(os.listdir(out)) == ["split.json", "tower.json"]
        assert "error" in json.loads((out / "tower.json").read_text())
        assert self.hashes(out) == {
            load_config(None, "twopoint", cap=1000).config_hash}

    def test_earlier_sk_dist_ks_removed(self, tmp_path):
        out = tmp_path / "out"
        for ks in ([3, 4], [5]):
            config = write_config(tmp_path / "c.json",
                                  dict(FAST_CONFIG, sk_dist_ks=ks))
            assert self.run("all", config, out) == EXIT_OK
        assert sorted(n for n in os.listdir(out)
                      if n.startswith("skdist_")) == ["skdist_5.csv"]


class TestSkyscraperCounts:
    def test_one_occupation_count_per_horizon(self, fast_config, tmp_path,
                                              monkeypatch):
        # one record per horizon feeds check_inversion and
        # are_diagnostic; this tower is above the exhaustive duality
        # check's 512 positions
        calls = []
        count = sky.occupation_counts

        def counted(it, n, *args, **kwargs):
            calls.append(n)
            return count(it, n, *args, **kwargs)

        monkeypatch.setattr(sky, "occupation_counts", counted)
        out = tmp_path / "out"
        assert main(["skyscraper", "--config", fast_config,
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "inversion_report.json").read_text())
        n_grid = sorted(int(n) for n in report["inversion"][
            "occupation_distances"])
        assert len(n_grid) > 1 and calls == n_grid

    @pytest.mark.parametrize("step, recorded, files", [
        ("skyscraper", "lognormal_skyscraper", 4),
        ("all", "lognormal_all", 5),
    ], ids=["skyscraper", "all"])
    def test_lognormal_outputs_match_recorded(self, step, recorded, files,
                                              tmp_path):
        # lognormal is the short-run regime (about 500,000 runs of equal
        # counts in 1,900,800), which the benchmark presets do not reach:
        # its reports and occupation laws, byte for byte.  Its grids also
        # hold the most blocks whose units are multiples of one another,
        # so "all" checks its split, tower, verify report and S_k laws too
        gold = os.path.join(os.path.dirname(__file__), "data", recorded)
        out = tmp_path / "out"
        assert main([step, "--preset", "lognormal",
                     "--out", str(out)]) == EXIT_OK
        names = sorted(os.listdir(gold))
        assert len(names) == files
        for name in names:
            assert filecmp.cmp(os.path.join(gold, name), out / name,
                               shallow=False), name


class TestPresetProvenance:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bump_blocks_tile_their_child(self, preset):
        # every block a bump tiling built, down each chain, is its child's
        # units times f, tiled, plus B at every spacing-th position
        trace = build_tower_from_config(load_config(None, preset))
        todo = [trace.final.blocks[s] for s in trace.final.symbols]
        seen = 0
        while todo:
            w = todo.pop()
            if w.bump is None:
                continue
            child, f, b, s = w.bump
            assert s % len(child) == 0 and len(w) % s == 0
            assert w.scale * f == child.scale
            want = np.tile(child.units * f, len(w) // len(child))
            want[s - 1::s] += b
            assert np.array_equal(w.units, want)
            seen += 1
            todo.append(child)
        assert seen >= len(trace.final.symbols)


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
