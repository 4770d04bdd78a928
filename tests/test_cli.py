import json

import pytest

from wavebroker import ConfigError, ParseError
from wavebroker.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    load_scenario,
    main,
)

from conftest import scenario_path


def read(path):
    return path.read_bytes()


class TestLoadScenario:
    def test_shipped_two_route_scenario(self):
        config = load_scenario(scenario_path("two_route_costcurve"))
        assert len(config.suppliers) == 1
        assert len(config.channels) == 1
        assert config.seed == 7
        assert config.channels[0].vc.label == "VC1"

    def test_shipped_duel_scenario(self):
        config = load_scenario(scenario_path("duel"))
        assert [s.network.id for s in config.suppliers] == ["netA", "netB"]
        assert len(config.schedule) == 10

    def test_shipped_three_channel_scenario(self):
        config = load_scenario(scenario_path("three_channels"))
        assert len(config.channels) == 3
        kinds = {ch.demand.kind for ch in config.channels}
        assert kinds == {"linear", "constant_elasticity"}

    def test_negative_capacity_error_names_the_link(self, tmp_path):
        doc = json.loads(open(scenario_path("duel")).read())
        doc["networks"][0]["links"][0]["capacity"] = -1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(p)
        assert any("networks[0]" in msg and "capacity" in msg for msg in err.value.problems)

    def test_missing_seed_is_a_config_error(self, tmp_path):
        doc = json.loads(open(scenario_path("duel")).read())
        del doc["seed"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(p)
        assert any("seed" in msg for msg in err.value.problems)
        # but an explicit fallback fills it
        config = load_scenario(p, fallback_seed=123)
        assert config.seed == 123

    def test_unknown_schedule_channel(self, tmp_path):
        doc = json.loads(open(scenario_path("duel")).read())
        doc["schedule"][0]["vc"] = "GHOST"
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(p)
        assert any("schedule[0]" in msg for msg in err.value.problems)

    def test_endpoint_missing_from_one_network(self, tmp_path):
        doc = json.loads(open(scenario_path("duel")).read())
        doc["virtual_channels"][0]["dst"] = "Z"
        doc["networks"][0]["nodes"].append("Z")
        doc["networks"][0]["links"][0]["b"] = "Z"
        p = tmp_path / "half.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(p)
        assert any("missing from networks[1]" in msg for msg in err.value.problems)

    def test_broken_json_is_a_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_missing_file_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/scenario.json")


class TestRunCommand:
    def test_run_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", scenario_path("duel"), "--out", str(out)]) == EXIT_OK
        assert (out / "ledger.csv").exists()
        assert (out / "series.csv").exists()
        assert (out / "report.json").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["scenario"] == "duel"
        assert set(doc["networks"]) == {"netA", "netB"}
        for auction in doc["auctions"]:
            assert "within_band" in auction and "band_low" in auction

    def test_run_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", scenario_path("duel"), "--out", str(a), "--traces"]) == EXIT_OK
        assert main(["run", scenario_path("duel"), "--out", str(b), "--traces"]) == EXIT_OK
        for name in ("ledger.csv", "series.csv", "report.json"):
            assert read(a / name) == read(b / name)
        assert read(a / "traces" / "trace_0000_VC1.log") == read(b / "traces" / "trace_0000_VC1.log")

    def test_seed_override_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", scenario_path("duel"), "--out", str(a)])
        main(["run", scenario_path("duel"), "--out", str(b), "--seed", "123"])
        assert json.loads((a / "report.json").read_text())["seed"] == 42
        assert json.loads((b / "report.json").read_text())["seed"] == 123

    def test_env_seed_fills_missing_file_seed(self, tmp_path, monkeypatch):
        doc = json.loads(open(scenario_path("duel")).read())
        del doc["seed"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p), "--out", str(tmp_path / "o1")]) == EXIT_CONFIG
        monkeypatch.setenv("SIM_SEED", "777")
        assert main(["run", str(p), "--out", str(tmp_path / "o2")]) == EXIT_OK
        assert json.loads((tmp_path / "o2" / "report.json").read_text())["seed"] == 777
        # explicit --seed outranks the environment
        assert main(["run", str(p), "--out", str(tmp_path / "o3"), "--seed", "5"]) == EXIT_OK
        assert json.loads((tmp_path / "o3" / "report.json").read_text())["seed"] == 5

    def test_sweep_writes_summary_and_run_dirs(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["run", scenario_path("duel"), "--out", str(out), "--sweep", "5"]) == EXIT_OK
        assert (out / "sweep_summary.csv").exists()
        for i in range(5):
            assert (out / f"run_{i:05d}" / "report.json").exists()
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "network,runs,auctions_won,mean_profit,std_profit"
        rows = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert int(rows["netA"][2]) == 0  # the pricier network never wins an auction
        assert int(rows["netB"][2]) == 5 * 10
        assert float(rows["netB"][3]) > 0.0
        assert float(rows["netA"][3]) == 0.0

    def test_exit_codes(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == EXIT_PARSE
        q = tmp_path / "bad.json"
        doc = json.loads(open(scenario_path("duel")).read())
        doc["networks"][0]["links"][0]["capacity"] = -2
        q.write_text(json.dumps(doc))
        assert main(["run", str(q), "--out", str(tmp_path / "y")]) == EXIT_CONFIG


class TestCurveCommand:
    def test_two_route_curve_csv(self, tmp_path):
        assert main(
            ["curve", scenario_path("two_route_costcurve"), "--vc", "VC1", "--qmax", "20", "--out", str(tmp_path)]
        ) == EXIT_OK
        body = (tmp_path / "curve_canwest.csv").read_text()
        assert body == "vc,q_from,q_to,mc_minor_units\nVC1,1,8,125\nVC1,9,16,170\n"

    def test_unknown_vc_label(self, tmp_path):
        assert main(
            ["curve", scenario_path("two_route_costcurve"), "--vc", "GHOST", "--out", str(tmp_path)]
        ) == EXIT_CONFIG

    def test_unknown_network_filter(self, tmp_path):
        assert main(
            ["curve", scenario_path("two_route_costcurve"), "--vc", "VC1", "--network", "nope", "--out", str(tmp_path)]
        ) == EXIT_CONFIG

    def test_channel_with_no_capacity_is_a_runtime_error(self, tmp_path, capsys):
        doc = json.loads(open(scenario_path("two_route_costcurve")).read())
        for link in doc["networks"][0]["links"]:
            link["capacity"] = 0
        p = tmp_path / "dark.json"
        p.write_text(json.dumps(doc))
        assert main(["curve", str(p), "--vc", "VC1", "--out", str(tmp_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "VC1" in err
        assert "Traceback" not in err


class TestValidateCommand:
    def test_ok(self, capsys):
        assert main(["validate", scenario_path("three_channels")]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        doc = json.loads(open(scenario_path("duel")).read())
        doc["networks"][0]["links"][0]["a"] = "GHOST"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert "networks[0]" in capsys.readouterr().err
