"""Operator surface: scenario files, runs, seed sweeps, curves, validation.

Scenario files are JSON; the schema is documented in the README.  All
emitted CSV/JSON is byte-deterministic given (scenario, seed): no
timestamps, sorted keys, fixed number formatting, LF newlines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from json.scanner import NUMBER_RE
from pathlib import Path

from .cost import curve_csv_rows, total_cost_curve
from .errors import ConfigError, EmptyCurveError, OutputError, ParseError, WavebrokerError
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
)
from .protocol import DEFAULT_ROUND_CAP
from .rwa import Allocation, dump_allocation
from .topology import Link, VirtualChannel, make_network

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

SEED_ENV_VAR = "SIM_SEED"


# -- scenario loading -----------------------------------------------------------

# A JSON string, or a number or constant as the decoder reads it.
_JSON_SCALAR = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN|' + NUMBER_RE.pattern)


class _BadNumber(ValueError):
    """A number literal the scenario may not hold; the arguments are its text and why."""


def _finite_float(token: str) -> float:
    """Decoder hook for float literals and for the constants NaN, Infinity and -Infinity."""
    value = float(token)
    if not math.isfinite(value):
        raise _BadNumber(token, f"non-finite number {token} is not allowed")
    return value


def _float_sized_int(token: str) -> int:
    """Decoder hook for integer literals: any number field must also convert to a float."""
    if not math.isfinite(float(token)):
        shown = token if len(token) <= 24 else f"{token[:12]}... ({len(token)} characters)"
        raise _BadNumber(token, f"integer {shown} is too large")
    return int(token)


def _decode_json(path, text: str):
    """``json.loads`` that refuses NaN, Infinity and numbers too large for a float, located."""
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_float_sized_int)
    except _BadNumber as exc:
        token, why = exc.args
        # the decoder stops at the first such literal, so the first one outside strings is it
        pos = next(m.start() for m in _JSON_SCALAR.finditer(text) if m.group() == token)
        err = json.JSONDecodeError(why, text, pos)
    except json.JSONDecodeError as exc:
        err = exc
    raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err


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
        cls, params = LinearDemand, ("a", "b")
    elif kind == "constant_elasticity":
        cls, params = ConstantElasticityDemand, ("a", "eps")
    else:
        problems.append(f"{loc}.kind: unknown demand kind {kind!r}")
        return None
    values = [_typed(obj, name, loc, float, problems) for name in params]
    if None in values:
        return None
    try:
        return cls(*map(float, values))
    except ValueError as exc:
        problems.append(f"{loc}: {exc}")
        return None


def load_scenario(
    path: str | Path, fallback_seed: int | None = None, seed_override: int | None = None
) -> ScenarioConfig:
    """Parse and fully validate a scenario file.

    The config's seed is ``seed_override`` if given, else the file's, else
    ``fallback_seed``.  Raises ParseError for unreadable files or broken
    JSON, ConfigError with field-precise locations for every config
    invariant violation.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    root = _decode_json(path, text)
    if not isinstance(root, dict):
        raise ParseError(f"{path}: top level must be a JSON object")

    problems: list[str] = []
    scenario_id = _typed(root, "id", "$", str, problems, required=False, default=Path(path).stem)
    seed = _typed(root, "seed", "$", int, problems, required=False)
    if seed_override is not None:
        seed = seed_override
    elif seed is None:
        if fallback_seed is None:
            problems.append("seed: required (set it in the file, via --seed, or via SIM_SEED)")
        seed = fallback_seed
    round_cap = _typed(root, "round_cap", "$", int, problems, required=False, default=DEFAULT_ROUND_CAP)
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
        for k, node in enumerate(nodes):
            if not isinstance(node, str):
                problems.append(f"{loc}.nodes[{k}]: expected str, got {type(node).__name__}")
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
                network=make_network(net_id, [n for n in nodes if isinstance(n, str)], links, wl),
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

    try:
        config = ScenarioConfig(
            id=scenario_id,
            seed=seed if seed is not None else 0,
            suppliers=tuple(suppliers),
            channels=tuple(channels),
            schedule=tuple(schedule),
            round_cap=round_cap,
            reject_partial=bool(reject_partial),
        )
    except ConfigError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    return config


# -- output writers ---------------------------------------------------------------

def _write_files(directory: Path | str, files) -> list[str]:
    """Write each ``(name, text)`` of the iterable ``files`` into ``directory``.

    The directory is made, if missing, before the first file.  Each text
    is written as its UTF-8 bytes, with no newline translation.  Returns
    the paths written; any OSError becomes an OutputError naming the file
    that could not be written.
    """
    written: list[str] = []
    try:
        for name, text in files:
            path = os.path.join(directory, name)
            if not written:
                os.makedirs(directory, exist_ok=True)
            data = text.encode()
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
            written.append(path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return written


def ledger_csv(report: Report) -> str:
    lines = ["network,vc,revenue,cost,profit,wavelengths_sold"]
    for net, vc, revenue, cost, profit, sold in report.ledger.rows():
        lines.append(f"{net},{vc},{revenue},{cost},{profit},{sold}")
    return "\n".join(lines) + "\n"


def _series_rows(report: Report):
    """(round, vc, requested, winner, final_price, allocated) per auction; the winner only if granted units."""
    for rec in report.records:
        yield rec.request_round, rec.vc, rec.demand, rec.winner if rec.granted > 0 else None, rec.final_price, rec.granted


_SERIES_KEYS = ("round", "vc", "requested", "winner", "final_price", "allocated")


def series_csv(report: Report) -> str:
    lines = [",".join(_SERIES_KEYS)]
    for rnd, vc, requested, winner, price, allocated in _series_rows(report):
        requested = "" if requested is None else requested
        price = "" if price is None else price
        lines.append(f"{rnd},{vc},{requested},{winner or ''},{price},{allocated}")
    return "\n".join(lines) + "\n"


class _ScalarWriters(dict):
    """How ``json.dumps`` writes each type a report holds, matched exactly: str, int, float, bool and None.

    Any other type, a subclass included, raises TypeError.  Report floats are profit shares, so finite.
    """

    def __missing__(self, kind):
        raise TypeError(f"report values cannot be of type {kind.__name__}")


_SCALAR = _ScalarWriters(
    {
        str: encode_basestring_ascii,
        int: int.__repr__,
        float: float.__repr__,
        bool: {True: "true", False: "false"}.__getitem__,
        type(None): {None: "null"}.__getitem__,
    }
)


def _scalars(values) -> list[str]:
    return [_SCALAR[type(v)](v) for v in values]


def _block(pad: str, texts, keys=None) -> str:
    """A JSON array of the written values ``texts``, or an object of them under ``keys``, laid out as ``indent=2``.

    ``pad`` is the line break and indent at the depth of the block itself.
    An object's members are sorted by key, each key escaped as ``json.dumps``
    escapes it; an empty block is ``[]`` or ``{}``.
    """
    brackets = "[]" if keys is None else "{}"
    items = list(texts) if keys is None else [f"{encode_basestring_ascii(k)}: {t}" for k, t in sorted(zip(keys, texts))]
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _ledger_json(e, pad: str) -> str:
    values = (e.revenue, e.cost, e.profit, e.wavelengths_sold)
    return _block(pad, _scalars(values), ("revenue", "cost", "profit", "wavelengths_sold"))


def report_json(report: Report) -> str:
    """``report.json``, as ``json.dumps(doc, sort_keys=True, indent=2)`` writes the report's document.

    Each auction is written from its record's ``_fields``, so a new field needs no writer code.
    """
    ledger, networks = report.ledger, []
    for nid in report.network_ids:
        shares = profit_percentages(ledger, nid)  # raises UnknownNetworkError for a network with no entries
        entries = ledger.entries[nid]
        members = (
            _ledger_json(ledger.totals(nid), "\n      "),
            _scalars([shares])[0] if shares is None else _block("\n      ", _scalars(shares.values()), shares),
            _block("\n      ", [_ledger_json(e, "\n        ") for e in entries.values()], entries),
            _block("\n      ", _scalars(dump_allocation(report.networks[nid], report.final_states[nid]))),
        )
        networks.append(_block("\n    ", members, ("totals", "profit_percentages", "per_channel", "allocation")))
    members = (
        *_scalars((report.scenario_id, report.seed)),
        _block("\n  ", networks, report.network_ids),
        _block("\n  ", [_block("\n    ", _scalars(rec), rec._fields) for rec in report.records]),
        _block("\n  ", [_block("\n    ", _scalars(row), _SERIES_KEYS) for row in _series_rows(report)]),
    )
    return _block("\n", members, ("scenario", "seed", "networks", "auctions", "series")) + "\n"


def write_report_files(report: Report, out_dir: Path, emit_traces: bool = False) -> list[Path]:
    written = _write_files(
        out_dir,
        [("ledger.csv", ledger_csv(report)), ("series.csv", series_csv(report)), ("report.json", report_json(report))],
    )
    if emit_traces:
        traces = (
            (f"trace_{i:04d}_{rec.vc}.log", "\n".join(trace.lines()) + "\n")
            for i, (trace, rec) in enumerate(zip(report.traces, report.records))
        )
        written += _write_files(os.path.join(out_dir, "traces"), traces)
    # callers stat what was written, so hand back Paths
    return [Path(p) for p in written]


def sweep_summary_csv(profits: dict[str, list[float]], wins: dict[str, int]) -> str:
    """One row per network from its per-run profits and its count of auctions won."""
    import statistics  # only sweeps need it
    lines = ["network,runs,auctions_won,mean_profit,std_profit"]
    for nid, runs in profits.items():
        mean = statistics.mean(runs)
        std = statistics.stdev(runs) if len(runs) > 1 else 0.0
        lines.append(f"{nid},{len(runs)},{wins[nid]},{mean:.2f},{std:.2f}")
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


def _cmd_run(args) -> int:
    """Run a scenario (or a sweep of seeded instances) and write its reports."""
    # the seed is set as the file is loaded, so the config that runs is the one validated
    config = load_scenario(args.scenario, fallback_seed=_env_seed(), seed_override=args.seed)
    if args.workers < 1:
        raise ConfigError("--workers: count must be >= 1")
    out_dir = Path(args.out)
    if args.sweep is not None:
        if args.sweep < 1:
            raise ConfigError("--sweep: count must be >= 1")
        # each run's files are written as it arrives; only the summary's inputs are kept
        profits: dict[str, list[float]] = {}
        wins: dict[str, int] = {}
        for i, rep in enumerate(run_sweep(config, args.sweep, workers=args.workers)):
            write_report_files(rep, out_dir / f"run_{i:05d}", args.traces)
            for nid in rep.network_ids:
                profits.setdefault(nid, []).append(float(rep.ledger.totals(nid).profit))
                wins[nid] = wins.get(nid, 0) + sum(rec.winner == nid for rec in rep.records)
        _write_files(out_dir, [("sweep_summary.csv", sweep_summary_csv(profits, wins))])
        print(f"{config.id}: {args.sweep} runs -> {out_dir}/sweep_summary.csv")
    else:
        report = run_scenario(config)
        write_report_files(report, out_dir, args.traces)
        print(f"{config.id}: {len(report.records)} auctions -> {out_dir}/report.json")
    return EXIT_OK


def _cmd_curve(args) -> int:
    config = load_scenario(args.scenario, fallback_seed=_env_seed())
    channel = next((ch for ch in config.channels if ch.vc.label == args.vc), None)
    if channel is None:
        raise ConfigError(f"--vc: no virtual channel labelled {args.vc!r}")
    wanted = [s for s in config.suppliers if args.network in (None, s.network.id)]
    if not wanted:
        raise ConfigError(f"--network: no network with id {args.network!r}")
    if args.qmax < 1:
        raise ConfigError("--qmax: probe depth must be >= 1")
    out_dir = Path(args.out)
    empty = []  # a network with no capacity has no curve; the others are still written
    for sup in wanted:
        try:
            curve = total_cost_curve(sup.network, Allocation.empty(sup.network), channel.vc, args.qmax)
        except EmptyCurveError as exc:
            empty.append(f"error: {exc}\n")
            continue
        rows = [f"{vc},{q_from},{q_to},{mc}\n" for vc, q_from, q_to, mc in curve_csv_rows(curve)]
        name = f"curve_{sup.network.id}.csv"
        _write_files(out_dir, [(name, "vc,q_from,q_to,mc_minor_units\n" + "".join(rows))])
        print(f"{sup.network.id}: q_max={curve.q_max} -> {out_dir / name}")
    sys.stderr.write("".join(empty))
    return EXIT_RUNTIME if empty else EXIT_OK


def _cmd_validate(args) -> int:
    config = load_scenario(args.scenario, fallback_seed=_env_seed())
    print(f"{config.id}: ok ({len(config.suppliers)} networks, {len(config.channels)} channels, {len(config.schedule)} requests)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs more than a short parse."""
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
