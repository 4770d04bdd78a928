"""The benchmark's workloads: inputs made from the workload seed, and the order of runs.

Each workload is a closed loop with one caller: scenario run ``i`` starts
when run ``i - 1`` has returned.  A workload has several scenarios (the
three shipped ones, or ``scenarios`` generated ones) and run ``i`` takes
scenario ``i % n`` with one of SEED_SLOTS run seeds, so every (scenario,
seed) pair repeats many times in a measured run and each repeat is checked
byte for byte against the first.  Several generated scenarios per workload
seed keep the work per run similar from one workload seed to the next.
The program only sees the generated scenario files and the derived seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("shipped", "stress", "auction")

# Distinct run seeds per scenario.  Later runs repeat them, which is what
# the determinism check compares.
SEED_SLOTS = 2

SHIPPED_SCENARIOS = ("duel", "three_channels", "two_route_costcurve")

# Generated supply-side stress: capacity binds and a run's allocations grow
# to about 1,100 lightpaths, so probes, commits and settlement dominate.
# Every supplier is a ring with the same chords turned by a random offset,
# and each list below is dealt out in a random order (one entry per
# supplier or channel), so the work per run varies little between seeds.
STRESS_PARAMS = {
    "scenarios": 16,
    "nodes": 12,
    "chords": [[0, 4], [2, 8], [3, 7], [5, 10], [6, 11]],
    "wavelengths": 160,
    "tight_links": 7,
    "tight_capacity": [12, 60],
    "unit_cost": [40, 400],
    "markup": [1.6, 2.0, 2.4],
    "undercut": [[10, 40], [20, 60], [30, 80]],
    "channel_span": [2, 3, 4, 5, 6, 3, 4, 5],
    "demand_a": [16, 18, 20, 22, 24, 26, 28, 30],
    "demand_b": 0.004,
    "requests_per_channel": 7,
}

# Generated price race: six suppliers, undercut steps small against prices
# of several hundred, and about one unit of demand per request, so the
# undercutting loop dominates and MC probes stay cheap (W=16, four nodes).
AUCTION_PARAMS = {
    "scenarios": 32,
    "nodes": 4,
    "chords": [[0, 2]],
    "wavelengths": 16,
    "base_cost": [400, 420, 440, 460, 480, 500],
    "cost_jitter": 0.1,
    "markup": [2.0, 2.1, 2.2, 2.3, 2.4, 2.5],
    "undercut": [[1, 6], [1, 5], [2, 6], [1, 4], [2, 5], [3, 6]],
    "channels": [[0, 1], [1, 3], [2, 3], [0, 2]],
    "demand_a": [1.2, 1.4, 1.6, 1.8],
    "demand_b": 0.0001,
    "requests_per_channel": 4,
}


def derived_seed(*parts) -> int:
    """Stable 63-bit seed from the workload seed and a slot label."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _node_names(n: int) -> list[str]:
    return [f"N{i:02d}" for i in range(n)]


def _ring(n: int, chords, turn: int) -> list[tuple[int, int]]:
    pairs = [(i, (i + 1) % n) for i in range(n)] + [((a + turn) % n, (b + turn) % n) for a, b in chords]
    return sorted({(min(a, b), max(a, b)) for a, b in pairs})


def _dealt(rng: random.Random, ladder) -> list:
    out = list(ladder)
    rng.shuffle(out)
    return out


def _balanced_schedule(rng: random.Random, channels: int, per_channel: int) -> list[dict]:
    labels = [f"VC{c}" for c in range(channels) for _ in range(per_channel)]
    rng.shuffle(labels)
    return [{"round": r + 1, "vc": label} for r, label in enumerate(labels)]


def _linear(a, b) -> dict:
    return {"kind": "linear", "a": a, "b": b}


def stress_scenario(seed: int, index: int) -> dict:
    """Scenario ``index`` of a workload seed, as a document in the shipped file format."""
    p = STRESS_PARAMS
    rng = random.Random(derived_seed("stress", seed, index))
    n, w = p["nodes"], p["wavelengths"]
    nodes = _node_names(n)
    markups, undercuts = _dealt(rng, p["markup"]), _dealt(rng, p["undercut"])
    networks = []
    for s in range(len(markups)):
        pairs = _ring(n, p["chords"], rng.randrange(n))
        tight = set(rng.sample(range(len(pairs)), p["tight_links"]))
        links = [
            {
                "a": nodes[a],
                "b": nodes[b],
                "capacity": rng.randint(*p["tight_capacity"]) if k in tight else w,
                "unit_cost": rng.randint(*p["unit_cost"]),
            }
            for k, (a, b) in enumerate(pairs)
        ]
        l_min, l_max = undercuts[s]
        networks.append(
            {
                "id": f"net{s}",
                "wavelength_count": w,
                "nodes": nodes,
                "links": links,
                "policy": {"l_min": l_min, "l_max": l_max},
                "markup": markups[s],
            }
        )
    demand_a = _dealt(rng, p["demand_a"])
    channels = []
    for c, span in enumerate(p["channel_span"]):
        u = rng.randrange(n)
        channels.append(
            {"label": f"VC{c}", "src": nodes[u], "dst": nodes[(u + span) % n], "demand": _linear(demand_a[c], p["demand_b"])}
        )
    return {
        "id": f"stress_{seed}_{index}",
        "seed": derived_seed("stress-run", seed, index),
        "networks": networks,
        "virtual_channels": channels,
        "schedule": _balanced_schedule(rng, len(channels), p["requests_per_channel"]),
    }


def auction_scenario(seed: int, index: int) -> dict:
    """Scenario ``index`` of a workload seed, as a document in the shipped file format."""
    p = AUCTION_PARAMS
    rng = random.Random(derived_seed("auction", seed, index))
    w, jitter = p["wavelengths"], p["cost_jitter"]
    nodes = _node_names(p["nodes"])
    pairs = _ring(p["nodes"], p["chords"], 0)
    costs, markups, undercuts = _dealt(rng, p["base_cost"]), _dealt(rng, p["markup"]), _dealt(rng, p["undercut"])
    networks = []
    for s, base in enumerate(costs):
        links = [
            {"a": nodes[a], "b": nodes[b], "capacity": w, "unit_cost": round(base * rng.uniform(1 - jitter, 1 + jitter))}
            for a, b in pairs
        ]
        l_min, l_max = undercuts[s]
        networks.append(
            {
                "id": f"net{s}",
                "wavelength_count": w,
                "nodes": nodes,
                "links": links,
                "policy": {"l_min": l_min, "l_max": l_max},
                "markup": markups[s],
            }
        )
    demand_a = _dealt(rng, p["demand_a"])
    channels = [
        {"label": f"VC{c}", "src": nodes[a], "dst": nodes[b], "demand": _linear(demand_a[c], p["demand_b"])}
        for c, (a, b) in enumerate(p["channels"])
    ]
    return {
        "id": f"auction_{seed}_{index}",
        "seed": derived_seed("auction-run", seed, index),
        "networks": networks,
        "virtual_channels": channels,
        "schedule": _balanced_schedule(rng, len(channels), p["requests_per_channel"]),
    }


def scenario_files(workload: str, seed: int, repo: Path, work_dir: Path) -> list[Path]:
    """The scenario files a workload runs: shipped ones, or freshly generated ones."""
    if workload == "shipped":
        paths = [repo / "scenarios" / f"{name}.json" for name in SHIPPED_SCENARIOS]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            raise FileNotFoundError(f"shipped scenarios missing: {', '.join(missing)}")
        return paths
    generate, params = {"stress": (stress_scenario, STRESS_PARAMS), "auction": (auction_scenario, AUCTION_PARAMS)}[workload]
    paths = []
    for index in range(params["scenarios"]):
        path = work_dir / f"{workload}_{index}.json"
        path.write_text(json.dumps(generate(seed, index), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def run_plan(workload: str, seed: int, n_scenarios: int, index: int) -> tuple[int, int, tuple]:
    """(scenario index, run seed, repeat key) of scenario run ``index``."""
    scenario = index % n_scenarios
    slot = (index // n_scenarios) % SEED_SLOTS
    return scenario, derived_seed(workload, seed, scenario, slot), (scenario, slot)
