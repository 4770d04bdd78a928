import json
from pathlib import Path

import pytest

from wavebroker import ConfigError, ParseError, market
from wavebroker.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    build_parser,
    load_scenario,
    main,
    write_report_files,
)
from wavebroker.protocol import MAX_ROUND_CAP
from wavebroker.topology import MAX_ROUTE_NODES, MAX_ROUTE_PATHS, MAX_WAVELENGTH_COUNT

from conftest import scenario_path


def read(path):
    return path.read_bytes()


def duel_doc():
    return json.loads(Path(scenario_path("duel")).read_text(encoding="utf-8"))


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
        doc = duel_doc()
        doc["networks"][0]["links"][0]["capacity"] = -1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(p)
        assert any("networks[0]" in msg and "capacity" in msg for msg in err.value.problems)

    def test_missing_seed_is_a_config_error(self, tmp_path):
        doc = duel_doc()
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
        doc = duel_doc()
        doc["schedule"][0]["vc"] = "GHOST"
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(p)
        assert any("schedule[0]" in msg for msg in err.value.problems)

    def test_endpoint_missing_from_one_network(self, tmp_path):
        doc = duel_doc()
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

    @pytest.mark.parametrize(
        "field, literal",
        [("markup", "NaN"), ("a", "Infinity"), ("a", "1e400")],
    )
    def test_non_finite_number_is_a_located_parse_error(self, tmp_path, capsys, field, literal):
        doc = duel_doc()
        if field == "markup":
            doc["networks"][1]["markup"] = "@"
        else:
            doc["virtual_channels"][0]["demand"]["a"] = "@"
        text = json.dumps(doc, indent=2)
        line = text[: text.index('"@"')].count("\n") + 1
        p = tmp_path / "nonfinite.json"
        p.write_text(text.replace('"@"', literal))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {p}:{line}:") and literal in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-" + "9" * 5000])
    def test_integer_too_large_for_a_float_is_a_located_parse_error(self, tmp_path, capsys, literal):
        doc = duel_doc()
        doc["virtual_channels"][0]["demand"]["a"] = "@"
        text = json.dumps(doc, indent=2)
        line = text[: text.index('"@"')].count("\n") + 1
        p = tmp_path / "huge.json"
        p.write_text(text.replace('"@"', literal))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {p}:{line}:") and "is too large" in err
        assert len(err) < 200 and "Traceback" not in err
        assert not out.exists()

    def test_largest_float_sized_integer_loads(self, tmp_path):
        doc = duel_doc()
        doc["seed"] = 10**300
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        assert load_scenario(p).seed == 10**300

    @pytest.mark.parametrize(
        "where, value",
        [
            ("label", "a,b/../../escaped"),
            ("label", ".hidden"),
            ("label", "VC 1"),
            ("network", "net/A"),
            ("network", ".."),
            ("network", ""),
        ],
    )
    def test_unsafe_ids_are_config_errors(self, tmp_path, capsys, where, value):
        doc = duel_doc()
        if where == "label":
            doc["virtual_channels"][0]["label"] = value
            for item in doc["schedule"]:
                item["vc"] = value
            loc = "virtual_channels[0].label"
        else:
            doc["networks"][1]["id"] = value
            loc = "networks[1].id"
        p = tmp_path / "unsafe.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "a" / "b" / "out"
        assert main(["run", str(p), "--out", str(out), "--traces"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {loc}: {value!r} must be letters, digits" in err
        assert [f.name for f in tmp_path.rglob("*") if f.is_file()] == ["unsafe.json"]

    def test_rising_linear_demand_is_a_config_error(self, tmp_path, capsys):
        doc = duel_doc()
        doc["virtual_channels"][0]["demand"]["b"] = -0.05
        p = tmp_path / "rising.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert "virtual_channels[0].demand: slope b=-0.05 is negative" in capsys.readouterr().err
        doc["virtual_channels"][0]["demand"]["b"] = 0
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_OK

    def test_wavelength_count_above_the_bound_is_a_config_error(self, tmp_path, capsys):
        doc = duel_doc()
        doc["networks"][0]["wavelength_count"] = MAX_WAVELENGTH_COUNT + 1
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert f"networks[0]: bad-wavelength-count: wavelength_count={MAX_WAVELENGTH_COUNT + 1}" in capsys.readouterr().err
        doc["networks"][0]["wavelength_count"] = MAX_WAVELENGTH_COUNT
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_OK


    @pytest.mark.parametrize("field, value", [("unit_cost", 10**308), ("markup", 1e308), ("unit_cost", 2**52 + 1)])
    def test_opening_bid_above_2_53_is_a_config_error(self, tmp_path, capsys, field, value):
        doc = duel_doc()
        if field == "unit_cost":
            doc["networks"][1]["links"][0]["unit_cost"] = value
        else:
            doc["networks"][1]["markup"] = value
        p = tmp_path / "costly.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out), "--traces"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: networks[1]: markup" in err and "exceeds 2**53" in err
        assert "networks[0]" not in err and "Traceback" not in err
        assert not out.exists()

    def test_opening_bid_of_2_53_runs(self, tmp_path):
        doc = duel_doc()
        doc["networks"][1]["links"][0]["unit_cost"] = 2**52
        p = tmp_path / "costly.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_OK


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
        doc = duel_doc()
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

    def test_seed_option_fills_missing_file_seed(self, tmp_path, monkeypatch):
        doc = duel_doc()
        del doc["seed"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(doc))
        monkeypatch.delenv("SIM_SEED", raising=False)
        assert main(["run", str(p), "--out", str(tmp_path / "o"), "--seed", "5"]) == EXIT_OK
        assert json.loads((tmp_path / "o" / "report.json").read_text())["seed"] == 5

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

    def test_workers_below_one_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["run", scenario_path("duel"), "--out", str(out), "--sweep", "2", "--workers", "0"]) == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_stops_at_the_first_run_it_cannot_write(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "taken"
        blocker.write_text("keep me")
        run_scenario, runs = market.run_scenario, []

        def counted(*args):
            runs.append(args)
            return run_scenario(*args)

        monkeypatch.setattr(market, "run_scenario", counted)
        assert main(["run", scenario_path("duel"), "--out", str(blocker / "sub"), "--sweep", "5"]) == EXIT_RUNTIME
        assert len(runs) == 1
        assert capsys.readouterr().err.startswith("error: cannot write ")

    def test_exit_codes(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == EXIT_PARSE
        q = tmp_path / "bad.json"
        doc = duel_doc()
        doc["networks"][0]["links"][0]["capacity"] = -2
        q.write_text(json.dumps(doc))
        assert main(["run", str(q), "--out", str(tmp_path / "y")]) == EXIT_CONFIG

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_naming_a_file_is_a_runtime_error(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("keep me")
        out = blocker / under if under else blocker
        assert main(["run", scenario_path("duel"), "--out", str(out), "--traces"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err
        assert blocker.read_text() == "keep me"

    def test_a_file_where_traces_go_is_a_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "traces").write_text("keep me")
        assert main(["run", scenario_path("duel"), "--out", str(out), "--traces"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'traces' / 'trace_0000_'}") and "Traceback" not in err
        assert (out / "traces").read_text() == "keep me"
        assert sorted(p.name for p in out.iterdir()) == ["ledger.csv", "report.json", "series.csv", "traces"]

    def test_written_files_are_returned_as_paths(self, tmp_path):
        report = market.run_scenario(load_scenario(scenario_path("three_channels")))
        written = write_report_files(report, tmp_path, emit_traces=True)
        assert all(isinstance(p, Path) for p in written)
        assert written[:3] == [tmp_path / "ledger.csv", tmp_path / "series.csv", tmp_path / "report.json"]
        assert len(written) == 3 + len(report.traces) > 3
        assert set(written) == {p for p in tmp_path.rglob("*") if p.is_file()}


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
        dark = json.loads(Path(scenario_path("two_route_costcurve")).read_text(encoding="utf-8"))
        for link in dark["networks"][0]["links"]:
            link["capacity"] = 0
        # netA has no route from S to T: a run has it decline at the gate, and a curve names it
        cut = duel_doc()
        cut["networks"][0] |= {"nodes": ["S", "M", "T"], "links": [{"a": "S", "b": "M", "capacity": 2, "unit_cost": 10}]}
        for name, doc, nid in [("dark", dark, "canwest"), ("cut", cut, "netA")]:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(doc))
            assert main(["run", str(p), "--out", str(tmp_path / name)]) == EXIT_OK
            capsys.readouterr()
            assert main(["curve", str(p), "--vc", "VC1", "--out", str(tmp_path / f"{name}_all")]) == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert err == f"error: VC1: network {nid} has no capacity for even one wavelength\n"
            # the networks that have capacity still get their curves, as each would alone
            if name == "cut":
                assert main(["curve", str(p), "--vc", "VC1", "--network", "netB", "--out", str(tmp_path / "cut_netB")]) == EXIT_OK
                assert "netB: q_max=20 -> " in capsys.readouterr().out
                assert [f.name for f in (tmp_path / "cut_all").iterdir()] == ["curve_netB.csv"]
                written = (tmp_path / "cut_all" / "curve_netB.csv").read_bytes()
                assert written == (tmp_path / "cut_netB" / "curve_netB.csv").read_bytes()

    @pytest.mark.parametrize("qmax", ["0", "-4"])
    def test_qmax_below_one_is_a_config_error(self, tmp_path, capsys, qmax):
        args = ["curve", scenario_path("two_route_costcurve"), "--vc", "VC1", "--qmax", qmax, "--out", str(tmp_path)]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --qmax: probe depth must be >= 1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_naming_a_file_is_a_runtime_error(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("keep me")
        out = blocker / under if under else blocker
        assert main(["curve", scenario_path("two_route_costcurve"), "--vc", "VC1", "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err
        assert blocker.read_text() == "keep me"


class TestParser:
    def test_built_once_with_the_same_help_and_errors(self, capsys):
        assert build_parser() is build_parser()

        def outcome(parse, argv):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            return exc.value.code, capsys.readouterr()

        fresh = build_parser.__wrapped__()
        for argv in (["--help"], ["run", "--help"], ["curve", "--help"], [], ["run"], ["curve", "s.json"], ["nope"]):
            want = outcome(fresh.parse_args, argv)
            assert want[1].out or want[1].err
            # the shared parser answers the same, also when asked again
            assert outcome(main, argv) == want
            assert outcome(main, argv) == want


class TestValidateCommand:
    def test_ok(self, capsys):
        assert main(["validate", scenario_path("three_channels")]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        doc = duel_doc()
        doc["networks"][0]["links"][0]["a"] = "GHOST"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert "networks[0]" in capsys.readouterr().err

    def test_network_above_the_route_path_cap_is_a_config_error(self, tmp_path, capsys):
        # a complete 12-node network is within the node cap, but about 9.9 million paths join two nodes
        doc = duel_doc()
        nodes = ["S", "T"] + [f"X{i}" for i in range(MAX_ROUTE_NODES - 2)]
        doc["networks"][1]["nodes"] = nodes
        doc["networks"][1]["links"] = [
            {"a": a, "b": b, "capacity": 160, "unit_cost": 400} for k, a in enumerate(nodes) for b in nodes[k + 1 :]
        ]
        p = tmp_path / "dense.json"
        p.write_text(json.dumps(doc))
        want = (
            "config error: networks[1]: virtual_channels[0] ('VC1'): more than"
            f" {MAX_ROUTE_PATHS} paths join S and T; route enumeration is capped at {MAX_ROUTE_PATHS}\n"
        )
        for command, *options in (
            ["validate"],
            ["run", "--out", str(tmp_path / "run")],
            ["curve", "--vc", "VC1", "--out", str(tmp_path / "curve")],
        ):
            assert main([command, str(p), *options]) == EXIT_CONFIG
            assert capsys.readouterr().err == want
        assert not (tmp_path / "run").exists() and not (tmp_path / "curve").exists()

    def test_network_above_the_route_node_cap_is_a_config_error(self, tmp_path, capsys):
        doc = duel_doc()
        doc["networks"][1]["nodes"] += [f"X{i}" for i in range(MAX_ROUTE_NODES - 2)]
        p = tmp_path / "capped.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_OK
        doc["networks"][1]["nodes"].append("Y")
        p.write_text(json.dumps(doc))
        want = f"config error: networks[1]: {MAX_ROUTE_NODES + 1} nodes; complete path enumeration is capped at {MAX_ROUTE_NODES}\n"
        capsys.readouterr()
        for command, *options in (
            ["validate"],
            ["run", "--out", str(tmp_path / "run")],
            ["curve", "--vc", "VC1", "--out", str(tmp_path / "curve")],
        ):
            assert main([command, str(p), *options]) == EXIT_CONFIG
            assert capsys.readouterr().err == want
        assert not (tmp_path / "run").exists() and not (tmp_path / "curve").exists()

    @pytest.mark.parametrize("options", [["validate"], ["run"], ["run", "--sweep", "2"]], ids=["validate", "run", "sweep"])
    def test_a_scenario_without_channels_is_a_config_error(self, tmp_path, capsys, options):
        doc = duel_doc()
        doc["virtual_channels"], doc["schedule"] = [], []
        p = tmp_path / "no_channels.json"
        p.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "out")] if options[0] == "run" else []
        assert main([options[0], str(p), *options[1:], *out]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: virtual_channels: at least one virtual channel is required\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def assert_config_error_everywhere(tmp_path, capsys, doc, want):
        """``validate``, ``run`` and ``curve`` all refuse ``doc`` with exit 3, saying ``want``, and write nothing."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        for command, *options in (
            ["validate"],
            ["run", "--out", str(tmp_path / "run"), "--traces"],
            ["curve", "--vc", "VC1", "--out", str(tmp_path / "curve")],
        ):
            assert main([command, str(p), *options]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert want in err and "Traceback" not in err
        assert not (tmp_path / "run").exists() and not (tmp_path / "curve").exists()

    @pytest.mark.parametrize("value", ["S\nx=1\tfoo", "T-U", ".S", "S/x", ""])
    def test_unsafe_node_names_are_config_errors(self, tmp_path, capsys, value):
        # '-' joins the nodes of a trace path, and a line break would split a trace event
        doc = duel_doc()
        for net in doc["networks"]:
            net["nodes"] = [value if n == "S" else n for n in net["nodes"]]
            for link in net["links"]:
                link["a"], link["b"] = (value if end == "S" else end for end in (link["a"], link["b"]))
        doc["virtual_channels"][0]["src"] = value
        rule = "must be letters, digits, '_' or '.', not starting with '.'"
        self.assert_config_error_everywhere(tmp_path, capsys, doc, f"config error: networks[1].nodes: {value!r} {rule}")

    def test_safe_node_names_run(self, tmp_path):
        doc = duel_doc()
        for net in doc["networks"]:
            net["nodes"] = ["_S.1" if n == "S" else n for n in net["nodes"]]
            for link in net["links"]:
                link["a"], link["b"] = ("_S.1" if end == "S" else end for end in (link["a"], link["b"]))
        doc["virtual_channels"][0]["src"] = "_S.1"
        p = tmp_path / "dotted.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p), "--out", str(tmp_path / "out"), "--traces"]) == EXIT_OK

    @pytest.mark.parametrize("value", [1, None, ["S"]])
    def test_a_node_that_is_not_a_string_is_a_config_error(self, tmp_path, capsys, value):
        doc = duel_doc()
        doc["networks"][0]["nodes"][1] = value
        want = f"config error: networks[0].nodes[1]: expected str, got {type(value).__name__}"
        self.assert_config_error_everywhere(tmp_path, capsys, doc, want)

    def test_round_cap_above_the_bound_is_a_config_error(self, tmp_path, capsys):
        doc = duel_doc()
        for cap in (MAX_ROUND_CAP + 1, 10**18):
            doc["round_cap"] = cap
            self.assert_config_error_everywhere(tmp_path, capsys, doc, f"config error: round_cap: {cap} must be in 1..{MAX_ROUND_CAP}")
        doc["round_cap"] = MAX_ROUND_CAP
        p = tmp_path / "capped.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_OK
