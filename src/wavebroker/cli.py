"""Operator surface: scenario files, runs, seed sweeps, curves, validation.

Scenario files are JSON; the schema is documented in the README.  All
emitted CSV/JSON is byte-deterministic given (scenario, seed): no
timestamps, sorted keys, fixed number formatting, LF newlines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from .cost import curve_csv_rows, total_cost_curve
from .errors import ConfigError, ParseError, WavebrokerError
from .game import UndercutPolicy
from .market import (
    ChannelConfig,
    ConstantElasticityDemand,
    LinearDemand,
    Report,
    ScenarioConfig,
    SupplierConfig,
    profit_percentages,
    run_scenario,
    run_sweep,
    validate_scenario,
)
from .rwa import Allocation, dump_allocation
from .topology import Link, VirtualChannel, make_network

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

SEED_ENV_VAR = "SIM_SEED"


@dataclass(frozen=True)
class RunOptions:
    scenario_path: str
    seed_override: int | None = None
    sweep: int | None = None
    out_dir: str = "out"
    emit_traces: bool = False
    workers: int = 1


# -- scenario loading -----------------------------------------------------------

def _typed(obj, key, loc, kinds, problems, required=True, default=None):
    if key not in obj:
        if required:
            problems.append(f"{loc}.{key}: required")
        return default
    val = obj[key]
    if kinds is bool:
        ok = isinstance(val, bool)
    elif kinds is int:
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif kinds is float:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    else:
        ok = isinstance(val, kinds)
    if not ok:
        problems.append(f"{loc}.{key}: expected {getattr(kinds, '__name__', kinds)}, got {type(val).__name__}")
        return default
    return val


def _parse_demand(obj, loc, problems):
    if not isinstance(obj, dict):
        problems.append(f"{loc}: expected an object")
        return None
    kind = _typed(obj, "kind", loc, str, problems)
    if kind == "linear":
        a = _typed(obj, "a", loc, float, problems)
        b = _typed(obj, "b", loc, float, problems)
        if a is None or b is None:
            return None
        return LinearDemand(a=float(a), b=float(b))
    if kind == "constant_elasticity":
        a = _typed(obj, "a", loc, float, problems)
        eps = _typed(obj, "eps", loc, float, problems)
        if a is None or eps is None:
            return None
        try:
            return ConstantElasticityDemand(a=float(a), eps=float(eps))
        except ValueError as exc:
            problems.append(f"{loc}: {exc}")
            return None
    problems.append(f"{loc}.kind: unknown demand kind {kind!r}")
    return None


def load_scenario(path: str | Path, fallback_seed: int | None = None) -> ScenarioConfig:
    """Parse and fully validate a scenario file.

    Raises ParseError for unreadable files or broken JSON, ConfigError with
    field-precise locations for every config invariant violation.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(root, dict):
        raise ParseError(f"{path}: top level must be a JSON object")

    problems: list[str] = []
    scenario_id = _typed(root, "id", "$", str, problems, required=False, default=Path(path).stem)
    seed = _typed(root, "seed", "$", int, problems, required=False)
    if seed is None:
        if fallback_seed is None:
            problems.append("seed: required (set it in the file, via --seed, or via SIM_SEED)")
        seed = fallback_seed
    round_cap = _typed(root, "round_cap", "$", int, problems, required=False, default=10_000)
    reject_partial = _typed(root, "reject_partial", "$", bool, problems, required=False, default=False)

    suppliers: list[SupplierConfig] = []
    for i, net_obj in enumerate(_typed(root, "networks", "$", list, problems, default=[]) or []):
        loc = f"networks[{i}]"
        if not isinstance(net_obj, dict):
            problems.append(f"{loc}: expected an object")
            continue
        net_id = _typed(net_obj, "id", loc, str, problems, default=f"net{i}")
        wl = _typed(net_obj, "wavelength_count", loc, int, problems, default=1)
        nodes = _typed(net_obj, "nodes", loc, list, problems, default=[])
        links = []
        for j, link_obj in enumerate(_typed(net_obj, "links", loc, list, problems, default=[]) or []):
            lloc = f"{loc}.links[{j}]"
            if not isinstance(link_obj, dict):
                problems.append(f"{lloc}: expected an object")
                continue
            a = _typed(link_obj, "a", lloc, str, problems, default="?")
            b = _typed(link_obj, "b", lloc, str, problems, default="?")
            capacity = _typed(link_obj, "capacity", lloc, int, problems, default=0)
            unit_cost = _typed(link_obj, "unit_cost", lloc, int, problems, default=0)
            links.append(Link(a=a, b=b, capacity=capacity, unit_cost=unit_cost))
        policy_obj = _typed(net_obj, "policy", loc, dict, problems, default={"l_min": 1, "l_max": 1})
        try:
            policy = UndercutPolicy(
                l_min=_typed(policy_obj, "l_min", f"{loc}.policy", int, problems, default=1),
                l_max=_typed(policy_obj, "l_max", f"{loc}.policy", int, problems, default=1),
            )
        except ValueError as exc:
            problems.append(f"{loc}.policy: {exc}")
            policy = UndercutPolicy(1, 1)
        markup = _typed(net_obj, "markup", loc, float, problems, required=False, default=2.0)
        suppliers.append(
            SupplierConfig(
                network=make_network(net_id, [str(n) for n in nodes or []], links, wl),
                policy=policy,
                markup=float(markup),
            )
        )

    channels: list[ChannelConfig] = []
    for j, ch_obj in enumerate(_typed(root, "virtual_channels", "$", list, problems, default=[]) or []):
        loc = f"virtual_channels[{j}]"
        if not isinstance(ch_obj, dict):
            problems.append(f"{loc}: expected an object")
            continue
        label = _typed(ch_obj, "label", loc, str, problems, default=f"VC{j}")
        src = _typed(ch_obj, "src", loc, str, problems, default="?")
        dst = _typed(ch_obj, "dst", loc, str, problems, default="??")
        try:
            vc = VirtualChannel(src=src, dst=dst, label=label)
        except ValueError as exc:
            problems.append(f"{loc}: {exc}")
            continue
        demand = _parse_demand(ch_obj.get("demand"), f"{loc}.demand", problems)
        if demand is None:
            continue
        channels.append(ChannelConfig(vc=vc, demand=demand))

    schedule: list[tuple[int, str]] = []
    for k, item in enumerate(_typed(root, "schedule", "$", list, problems, default=[]) or []):
        loc = f"schedule[{k}]"
        if not isinstance(item, dict):
            problems.append(f"{loc}: expected an object")
            continue
        rnd = _typed(item, "round", loc, int, problems, default=0)
        vc_label = _typed(item, "vc", loc, str, problems, default="?")
        schedule.append((rnd, vc_label))

    config = ScenarioConfig(
        id=scenario_id,
        seed=seed if seed is not None else 0,
        suppliers=tuple(suppliers),
        channels=tuple(channels),
        schedule=tuple(schedule),
        round_cap=round_cap,
        reject_partial=bool(reject_partial),
    )
    problems.extend(validate_scenario(config))
    if problems:
        raise ConfigError(problems)
    return config


# -- output writers ---------------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def ledger_csv(report: Report) -> str:
    lines = ["network,vc,revenue,cost,profit,wavelengths_sold"]
    for net, vc, revenue, cost, profit, sold in report.ledger.rows():
        lines.append(f"{net},{vc},{revenue},{cost},{profit},{sold}")
    return "\n".join(lines) + "\n"


def series_rows(report: Report) -> list[dict]:
    rows = []
    for rec in report.records:
        rows.append(
            {
                "round": rec.request_round,
                "vc": rec.vc,
                "requested": rec.demand,
                "winner": rec.winner if rec.granted > 0 else None,
                "final_price": rec.final_price,
                "allocated": rec.granted,
            }
        )
    return rows


def series_csv(report: Report) -> str:
    lines = ["round,vc,requested,winner,final_price,allocated"]
    for row in series_rows(report):
        cells = [
            str(row["round"]),
            row["vc"],
            "" if row["requested"] is None else str(row["requested"]),
            row["winner"] or "",
            "" if row["final_price"] is None else str(row["final_price"]),
            str(row["allocated"]),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_json(report: Report) -> str:
    networks = {}
    for nid in report.network_ids:
        totals = report.ledger.totals(nid)
        per_channel = {}
        for vc in report.ledger.vc_labels(nid):
            e = report.ledger.entry(nid, vc)
            per_channel[vc] = {
                "revenue": e.revenue,
                "cost": e.cost,
                "profit": e.profit,
                "wavelengths_sold": e.wavelengths_sold,
            }
        networks[nid] = {
            "totals": {
                "revenue": totals.revenue,
                "cost": totals.cost,
                "profit": totals.profit,
                "wavelengths_sold": totals.wavelengths_sold,
            },
            "profit_percentages": profit_percentages(report.ledger, nid),
            "per_channel": per_channel,
            "allocation": dump_allocation(report.networks[nid], report.final_states[nid]),
        }
    doc = {
        "scenario": report.scenario_id,
        "seed": report.seed,
        "networks": networks,
        "auctions": [dataclasses.asdict(rec) for rec in report.records],
        "series": series_rows(report),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report_files(report: Report, out_dir: Path, emit_traces: bool = False) -> list[Path]:
    written = []
    for name, text in (
        ("ledger.csv", ledger_csv(report)),
        ("series.csv", series_csv(report)),
        ("report.json", report_json(report)),
    ):
        path = out_dir / name
        _write_text(path, text)
        written.append(path)
    if emit_traces:
        for i, trace in enumerate(report.traces):
            vc = report.records[i].vc
            path = out_dir / "traces" / f"trace_{i:04d}_{vc}.log"
            _write_text(path, "\n".join(trace.lines()) + "\n")
            written.append(path)
    return written


def sweep_summary_csv(reports: list[Report]) -> str:
    lines = ["network,runs,auctions_won,mean_profit,std_profit"]
    network_ids = reports[0].network_ids if reports else ()
    for nid in network_ids:
        profits = [float(r.ledger.totals(nid).profit) for r in reports]
        won = sum(1 for r in reports for rec in r.records if rec.winner == nid)
        mean = statistics.mean(profits)
        std = statistics.stdev(profits) if len(profits) > 1 else 0.0
        lines.append(f"{nid},{len(profits)},{won},{mean:.2f},{std:.2f}")
    return "\n".join(lines) + "\n"


# -- commands ----------------------------------------------------------------------

def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}: not an integer: {raw!r}") from None


def run(options: RunOptions) -> int:
    """Run a scenario (or a sweep of seeded instances) and write its reports."""
    config = load_scenario(options.scenario_path, fallback_seed=_env_seed())
    if options.seed_override is not None:
        config = dataclasses.replace(config, seed=options.seed_override)
    out_dir = Path(options.out_dir)
    if options.sweep is not None:
        if options.sweep < 1:
            raise ConfigError("--sweep: count must be >= 1")
        reports = run_sweep(config, options.sweep, workers=options.workers)
        for i, rep in enumerate(reports):
            write_report_files(rep, out_dir / f"run_{i:05d}", options.emit_traces)
        _write_text(out_dir / "sweep_summary.csv", sweep_summary_csv(reports))
        print(f"{config.id}: {options.sweep} runs -> {out_dir}/sweep_summary.csv")
    else:
        report = run_scenario(config)
        write_report_files(report, out_dir, options.emit_traces)
        print(f"{config.id}: {len(report.records)} auctions -> {out_dir}/report.json")
    return EXIT_OK


def _cmd_run(args) -> int:
    return run(
        RunOptions(
            scenario_path=args.scenario,
            seed_override=args.seed,
            sweep=args.sweep,
            out_dir=args.out,
            emit_traces=args.traces,
            workers=args.workers,
        )
    )


def _cmd_curve(args) -> int:
    config = load_scenario(args.scenario, fallback_seed=_env_seed())
    channel = next((ch for ch in config.channels if ch.vc.label == args.vc), None)
    if channel is None:
        raise ConfigError(f"--vc: no virtual channel labelled {args.vc!r}")
    wanted = [s for s in config.suppliers if args.network in (None, s.network.id)]
    if not wanted:
        raise ConfigError(f"--network: no network with id {args.network!r}")
    out_dir = Path(args.out)
    for sup in wanted:
        curve = total_cost_curve(sup.network, Allocation.empty(), channel.vc, args.qmax)
        lines = ["vc,q_from,q_to,mc_minor_units"]
        for vc, q_from, q_to, mc in curve_csv_rows(curve):
            lines.append(f"{vc},{q_from},{q_to},{mc}")
        path = out_dir / f"curve_{sup.network.id}.csv"
        _write_text(path, "\n".join(lines) + "\n")
        print(f"{sup.network.id}: q_max={curve.q_max} -> {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_scenario(args.scenario, fallback_seed=_env_seed())
    print(f"{config.id}: ok ({len(config.suppliers)} networks, {len(config.channels)} channels, {len(config.schedule)} requests)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Deterministic wavelength-market simulator over competing optical transport networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario or a seed sweep and write reports")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--sweep", type=int, metavar="K", help="run K seeded instances and summarize")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--traces", action="store_true", help="also write per-auction message traces")
    p_run.add_argument("--workers", type=int, default=1, help="parallel workers for sweeps (default: 1)")

    p_curve = sub.add_parser("curve", help="emit the supply cost curve of a channel per network")
    p_curve.add_argument("scenario")
    p_curve.add_argument("--vc", required=True, help="virtual channel label")
    p_curve.add_argument("--qmax", type=int, default=20, help="probe depth in wavelengths (default: 20)")
    p_curve.add_argument("--network", help="restrict to one network id")
    p_curve.add_argument("--out", default=".", help="output directory (default: .)")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "curve": _cmd_curve, "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except WavebrokerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
