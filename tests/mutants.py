"""Standing mutation list: each mutant breaks the program in one place, and the tests it names must fail.

Run by hand from anywhere; it is not part of tier-1, and pytest does not
collect it, though ``test_mutants.py`` checks that every entry still
applies and names tests that exist:

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # only these
    python3 tests/mutants.py --list       # names and descriptions

It copies ``src``, ``tests``, ``perfbench``, ``scenarios`` and
``pyproject.toml`` into a temporary directory once.  For each mutant it
replaces each ``old`` text, which must occur exactly once in its file,
with ``new``, runs the named tests with ``python -m pytest``, and puts the
files back.  A mutant is killed when every named test fails, and survives
otherwise.  The exit status is 1 when a mutant survives or its text is no
longer found once, which means the program moved and the entry needs
mending.  Each change that records a mutation check adds it here.
Stdlib only.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "scenarios", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    what: str
    edits: tuple[tuple[str, str, str], ...]  # (file, old text, new text)
    tests: tuple[str, ...]  # node ids that must all fail


RWA, KERNEL, TOPOLOGY = "src/wavebroker/rwa.py", "src/wavebroker/_kernel.py", "src/wavebroker/topology.py"
PROTOCOL, MARKET, GAME = "src/wavebroker/protocol.py", "src/wavebroker/market.py", "src/wavebroker/game.py"
CLI, ERRORS, ORACLE = "src/wavebroker/cli.py", "src/wavebroker/errors.py", "tests/oracle.py"

T_RWA, T_TOPOLOGY, T_PROTOCOL = "tests/test_rwa.py", "tests/test_topology.py", "tests/test_protocol.py"
T_MARKET, T_RECORDS, T_KERNEL = "tests/test_market.py", "tests/test_records.py", "tests/test_kernel.py"

MUTANTS = [
    # -- the exhaustive oracle --------------------------------------------------
    Mutant(
        "oracle-reuses-a-wavelength",
        "the oracle lets one connection take a wavelength twice",
        ((ORACLE, "place(w + 1, cost + routes.costs[p])", "place(w, cost + routes.costs[p])"),),
        (f"{T_RWA}::TestValidator::test_solver_output_is_clean", "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"),
    ),
    Mutant(
        "oracle-keeps-its-first-incumbent",
        "the oracle keeps the first complete assignment and never improves on it",
        ((ORACLE, "if best is None or cost < best_cost:", "if best is None:"),),
        (
            "tests/test_acceptance.py::test_criterion_1_oracle_equivalence",
            f"{T_RWA}::TestIncremental::test_greedy_falls_short_of_the_oracle_where_capacity_binds",
        ),
    ),
    # -- the placement kernel ---------------------------------------------------
    Mutant(
        "kernel-capacity-off-by-one",
        "the kernel lets a link take one unit past its capacity",
        ((KERNEL, "if mask.bit_count() >= caps[li]:", "if mask.bit_count() > caps[li]:"),),
        (f"{T_KERNEL}::test_matches_reference_scan_on_random_instances", f"{T_KERNEL}::test_capacity_blocks_even_with_free_cells"),
    ),
    Mutant(
        "kernel-no-lower-wavelength-rule",
        "a same-cost candidate wins on any free wavelength, not only a strictly lower one",
        ((KERNEL, "free &= (1 << best_w) - 1", "free = free"),),
        (
            f"{T_KERNEL}::test_matches_reference_scan_on_random_instances",
            f"{T_KERNEL}::test_prefers_lower_wavelength_then_path_rank",
            "tests/test_golden.py::test_outputs_match_golden_digests",
        ),
    ),
    # -- greedy placement -------------------------------------------------------
    Mutant(
        "placement-always-batches",
        "a pick that ties another path's cost still fills its path",
        ((RWA, "if room > 1 and alone[p]:", "if room > 1:"),),
        (
            f"{T_RWA}::TestPathAtATime::test_matches_the_unit_at_a_time_loop",
            f"{T_RWA}::TestKeptTables::test_probes_and_settlements_match_the_kernel_over_commit_chains",
        ),
    ),
    Mutant(
        "placement-ignores-link-room",
        "a batch runs past the room left on its links",
        ((RWA, "                room = min(room, caps[li] - mask.bit_count())\n", ""),),
        (
            f"{T_RWA}::TestPathAtATime::test_a_lone_path_fills_to_its_room",
            f"{T_RWA}::TestPathAtATime::test_matches_the_unit_at_a_time_loop",
        ),
    ),
    Mutant(
        "placement-ignores-allowed",
        "a batch takes wavelengths the connection already holds",
        ((RWA, "free = allowed & ~taken", "free = route.full & ~taken"),),
        (
            f"{T_RWA}::TestPathAtATime::test_fragmented_masks_with_room_ending_mid_block",
            f"{T_RWA}::TestPathAtATime::test_matches_the_unit_at_a_time_loop",
        ),
    ),
    Mutant(
        "alone-flags-only-the-left-neighbour",
        "a path counts as alone at its cost when only its cheaper neighbour differs",
        ((RWA, "padded[i] != c != padded[i + 2]", "padded[i] != c"),),
        (
            f"{T_RWA}::TestPathAtATime::test_only_a_lone_cost_is_flagged",
            f"{T_RWA}::TestPathAtATime::test_matches_the_unit_at_a_time_loop",
        ),
    ),
    Mutant(
        "block-cut-one-bit-long",
        "a batch's last block of free wavelengths is cut one bit past the room",
        ((RWA, "low * ((1 << (room - n)) - 1)", "low * ((1 << (room - n + 1)) - 1)"),),
        (
            f"{T_RWA}::TestPathAtATime::test_fragmented_masks_with_room_ending_mid_block",
            f"{T_RWA}::TestPathAtATime::test_a_lone_path_fills_to_its_room",
        ),
    ),
    Mutant(
        "block-max-for-min",
        "a batch's block is the longer of the free run and the room, not the shorter",
        ((RWA, "block = min(free & ~(free + low)", "block = max(free & ~(free + low)"),),
        (
            f"{T_RWA}::TestPathAtATime::test_fragmented_masks_with_room_ending_mid_block",
            f"{T_RWA}::TestPathAtATime::test_a_lone_path_fills_to_its_room",
        ),
    ),
    Mutant(
        "a-light-path-per-probe",
        "a marginal-cost probe builds a LightPath for the unit it prices",
        (
            (
                RWA,
                "    return route.costs[p] if p >= 0 else None\n",
                "    return __getattr__(\"LightPath\")(vc.label, vc, 1, route.hops[p]).cost(net) if p >= 0 else None\n",
            ),
        ),
        (
            f"{T_MARKET}::TestRunScenario::test_a_run_builds_no_lightpath_until_its_states_are_read",
            "tests/test_layers.py::test_a_traced_run_builds_no_lightpath",
        ),
    ),
    Mutant(
        "placement-accepts-a-pick-with-no-room",
        "a kernel pick that places nothing is asked for again instead of refused",
        ((RWA, "            if not n:", "            if not n and False:"),),
        (f"{T_RWA}::TestPathAtATime::test_a_pick_on_a_path_with_no_room_raises",),
    ),
    # -- grants and commits -----------------------------------------------------
    Mutant(
        "commit-shares-the-parent-counts",
        "apply_delta writes the parent's connection counts instead of a copy",
        ((RWA, "conn_counts = dict(state._conn_counts)", "conn_counts = state._conn_counts"),),
        (f"{T_RWA}::TestApplyDelta::test_chain_of_deltas_matches_one_construction",),
    ),
    Mutant(
        "commit-shares-the-parent-masks",
        "apply_delta writes the parent's link masks instead of a copy",
        ((RWA, "masks = _link_masks(net, state, tables).copy()", "masks = _link_masks(net, state, tables)"),),
        (
            f"{T_RWA}::TestApplyDelta::test_chain_of_deltas_matches_one_construction",
            f"{T_RWA}::TestStateView::test_every_commit_carries_the_view_forward",
        ),
    ),
    Mutant(
        "commit-keeps-empty-grants",
        "apply_delta commits an empty grant as a new state",
        ((RWA, "    if not grant.count:\n        return state\n", ""),),
        (f"{T_RWA}::TestApplyDelta::test_empty_delta_is_identity",),
    ),
    Mutant(
        "commit-without-the-clash-check",
        "apply_delta ORs a run into a taken cell without raising",
        ((RWA, "            if clash:\n", "            if clash and False:\n"),),
        (
            f"{T_RWA}::TestApplyDelta::test_apply_then_conflict",
            f"{T_RWA}::TestValidator::test_grouped_commit_clash_inside_one_path_run",
        ),
    ),
    Mutant(
        "commit-without-the-mask-check",
        "apply_delta accepts a run whose mask is below 1",
        ((RWA, "        if bits < 1:\n", "        if bits < bits:\n"),),
        (f"{T_RWA}::TestApplyDelta::test_a_run_mask_below_one_is_refused_before_any_write",),
    ),
    Mutant(
        "commit-checks-a-run-after-writing-it",
        "apply_delta checks each run's mask only after ORing the run in",
        (
            (RWA, "    for _, bits in grant.runs:\n        if bits < 1:\n            raise ValueError(f\"{grant.conn}: wavelength mask {bits} is below 1\")\n", ""),
            (
                RWA,
                "            masks[i] = mask | bits\n",
                "            masks[i] = mask | bits\n        if bits < 1:\n            raise ValueError(f\"{grant.conn}: wavelength mask {bits} is below 1\")\n",
            ),
        ),
        (f"{T_RWA}::TestApplyDelta::test_a_run_mask_below_one_is_refused_before_any_write",),
    ),
    Mutant(
        "grant-length-off-by-one",
        "a grant's len() is one more than its unit count",
        ((RWA, "    def __len__(self) -> int:\n        return self.count\n", "    def __len__(self) -> int:\n        return self.count + 1\n"),),
        (
            f"{T_RWA}::TestGrant::test_a_grant_and_its_lightpaths_commit_alike",
            f"{T_RWA}::TestApplyDelta::test_empty_delta_is_identity",
        ),
    ),
    Mutant(
        "value-error-before-an-earlier-clash",
        "Allocation(lightpaths) refuses a wavelength below 1 before it meets a clash ahead of it",
        (
            (
                RWA,
                "        grants, conn_counts, cells = [], {}, set()\n        for lp in lightpaths:\n",
                "        grants, conn_counts, cells = [], {}, set()\n        lightpaths = list(lightpaths)\n"
                "        if any(lp.wavelength < 1 for lp in lightpaths):\n            raise ValueError(\"wavelength below 1\")\n"
                "        for lp in lightpaths:\n",
            ),
        ),
        (f"{T_RWA}::TestGrant::test_a_clash_before_a_wavelength_below_1_is_reported_first",),
    ),
    Mutant(
        "link-index-by-fresh-keys",
        "the link index is keyed by fresh tuples, not the arc table's own hops",
        ((RWA, "index = {hop: i for arcs", "index = {(hop[0], hop[1]): i for arcs"),),
        (f"{T_TOPOLOGY}::TestRouteTablesMatchReference::test_one_hop_tuple_per_link_direction",),
    ),
    Mutant(
        "cached-lightpath-lookup",
        "rwa.__getattr__ is cached, so a replaced rwa.LightPath is not the one grants build",
        ((RWA, "\ndef __getattr__(name: str):\n", "\n@lru_cache(maxsize=None)\ndef __getattr__(name: str):\n"),),
        (f"{T_RECORDS}::test_grants_build_lightpaths_from_the_module_attribute",),
    ),
    # -- route tables -----------------------------------------------------------
    Mutant(
        "reversed-route-costs",
        "a route table's costs are stored in reverse",
        ((TOPOLOGY, "routes.costs, routes.hops, routes.links = costs,", "routes.costs, routes.hops, routes.links = costs[::-1],"),),
        (
            f"{T_RWA}::TestPathAtATime::test_only_a_lone_cost_is_flagged",
            "tests/test_cost.py::TestMarginalCost::test_after_cheap_route_fills",
        ),
    ),
    Mutant(
        "cost-only-sort-with-reversed-arcs",
        "paths are sorted by cost alone while each node's arcs run in reverse label order",
        (
            (TOPOLOGY, "    found.sort()\n", "    found.sort(key=lambda f: f[0])\n"),
            (TOPOLOGY, "return {n: tuple(v) for n, v in out.items()}", "return {n: tuple(reversed(v)) for n, v in out.items()}"),
        ),
        (
            f"{T_TOPOLOGY}::TestRouteTablesMatchReference::test_fuzzed_networks",
            f"{T_TOPOLOGY}::TestRouteCandidates::test_cost_tie_broken_lexicographically",
        ),
    ),
    Mutant(
        "routes-keyed-by-unordered-pair",
        "a network keeps one entry per unordered endpoint pair, so (dst, src) reads the tables of (src, dst)",
        (
            (
                RWA,
                "    route = routes.get((src, dst))\n    if route is None:\n        route = routes[src, dst] = _Route(net, src, dst)\n",
                "    key = min((src, dst), (dst, src))\n    route = routes.get(key)\n    if route is None:\n        route = routes[key] = _Route(net, *key)\n",
            ),
        ),
        (
            f"{T_RWA}::TestKeptTables::test_a_scenario_with_many_labels_on_one_pair_routes_each_pair_once",
            f"{T_RWA}::TestKeptTables::test_probes_and_settlements_match_the_kernel_over_commit_chains",
        ),
    ),
    # -- the validator ----------------------------------------------------------
    Mutant(
        "validator-misses-clashes",
        "validate_allocation never notices two units on one cell",
        ((RWA, "                if cells & mask:\n                    shared = True\n", "                if cells & mask:\n                    pass\n"),),
        (
            f"{T_RWA}::TestValidatorMatchesReference::test_fuzzed_and_corrupted_allocations",
            f"{T_RWA}::TestValidatorMatchesReference::test_each_corruption_is_flagged_where_the_reference_flags_it",
        ),
    ),
    Mutant(
        "validator-range-finding-last",
        "a unit's wavelength-range finding is listed after its unknown-link and balance findings",
        (
            (RWA, "                    violations += before\n", "                    violations += before + after\n"),
            (RWA, "                    violations += after\n", ""),
        ),
        (f"{T_RWA}::TestValidatorMatchesReference::test_fuzzed_and_corrupted_allocations",),
    ),
    Mutant(
        "validator-skips-the-unit-recount",
        "the cell recount counts each run once, at its lowest wavelength, not unit by unit",
        ((RWA, "                for b in _bits(mask):\n                    for u, v in hops:\n", "                for b in _bits(mask)[:1]:\n                    for u, v in hops:\n"),),
        (
            f"{T_RWA}::TestValidatorMatchesReference::test_fuzzed_and_corrupted_allocations",
            f"{T_RWA}::TestValidatorMatchesReference::test_each_corruption_is_flagged_where_the_reference_flags_it",
        ),
    ),
    Mutant(
        "validator-builds-lightpaths",
        "validate_allocation reads the allocation's lightpaths",
        ((RWA, "    violations: list[Violation] = []\n    top = net.wavelength_count\n", "    violations: list[Violation] = []\n    tuple(alloc.lightpaths)\n    top = net.wavelength_count\n"),),
        (f"{T_RWA}::TestValidatorMatchesReference::test_a_stress_run_is_checked_without_building_a_lightpath",),
    ),
    # -- the race ---------------------------------------------------------------
    Mutant(
        "race-draw-without-rejection",
        "a step draw is kept even when it is past the policy's width",
        ((PROTOCOL, "            while r >= width:\n", "            while r < 0:\n"),),
        (
            f"{T_PROTOCOL}::TestRaceMatchesReference::test_rejection_heavy_step_widths",
            f"{T_PROTOCOL}::TestPerAsk::test_one_accepted_draw_per_round_and_non_leader",
        ),
    ),
    Mutant(
        "race-draws-capped-at-32-bits",
        "a step is drawn from at most 32 bits",
        ((GAME, "return self.l_min, width, width.bit_length()", "return self.l_min, width, min(width.bit_length(), 32)"),),
        (
            f"{T_PROTOCOL}::TestRaceMatchesReference::test_steps_wider_than_one_word",
            "tests/test_game.py::TestDrawMatchesRandint::test_same_values_and_stream_position_as_randint",
        ),
    ),
    Mutant(
        "race-first-tied-cutter-leads",
        "a tied round is always led by its first cutter",
        ((PROTOCOL, "            leader = tied[r]\n", "            leader = tied[0]\n"),),
        (f"{T_PROTOCOL}::TestRaceMatchesReference::test_equal_unit_steps_tie_every_round",),
    ),
    Mutant(
        "race-tie-draw-one-bit-short",
        "a tied round draws (n - 1).bit_length() bits",
        ((PROTOCOL, "            k = n.bit_length()\n", "            k = (n - 1).bit_length()\n"),),
        (f"{T_PROTOCOL}::TestRaceMatchesReference::test_equal_unit_steps_tie_every_round",),
    ),
    Mutant(
        "race-asks-the-leader",
        "each round also asks its leader",
        ((PROTOCOL, "return [rows[:k] + rows[k + 1 :] for k in range(len(rows))]", "return [rows[:k] + rows[k:] for k in range(len(rows))]"),),
        (
            f"{T_PROTOCOL}::TestPerAsk::test_one_accepted_draw_per_round_and_non_leader",
            f"{T_PROTOCOL}::TestBidders::test_a_table_keeps_the_suppliers_order_and_constants",
        ),
    ),
    Mutant(
        "race-row-keeps-the-first-mc",
        "a bidding row keeps the marginal cost of the first request it priced",
        ((PROTOCOL, "            row[1] = mc\n", "            row[1] = mc if row[1] is None else row[1]\n"),),
        (
            f"{T_PROTOCOL}::TestBidders::test_a_reused_table_races_as_a_fresh_list",
            f"{T_MARKET}::TestRunScenarioMatchesReference::test_generated_markets",
        ),
    ),
    Mutant(
        "race-largest-l-min-after-a-decline",
        "after a gate decline, every bidder's row takes the run's largest step minimum",
        ((PROTOCOL, "(k, mcs[i], *rows[i][2:])", "(k, mcs[i], max(r[2] for r in rows), *rows[i][3:])"),),
        (f"{T_PROTOCOL}::TestRaceMatchesReference::test_random_markets",),
    ),
    Mutant(
        "race-announces-price-plus-one",
        "a logged round is announced one above its price",
        ((PROTOCOL, "            announced.append(price)\n", "            announced.append(price + 1)\n"),),
        (
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_generated_markets",
            f"{T_PROTOCOL}::TestTraceConformance::test_emitted_traces_validate",
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_logs_the_race_never_writes",
            "tests/test_golden.py::test_outputs_match_golden_digests",
        ),
    ),
    Mutant(
        "race-lines-announce-the-previous-price",
        "a round's trace lines announce the price of the round before it",
        ((PROTOCOL, "for rnd, price in zip(rounds, prices)", "for rnd, price in zip(rounds, [prices[0], *prices])"),),
        (
            f"{T_PROTOCOL}::TestTraceFormat::test_lines_are_the_same_from_the_log_and_from_the_events",
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_logs_the_race_never_writes",
            "tests/test_golden.py::test_six_way_race_lines_come_from_the_log_unchanged",
        ),
    ),
    Mutant(
        "race-check-lets-a-bid-at-the-price-pass",
        "the log check flags a round's bids only when one is above the announced price",
        ((PROTOCOL, "if max(offers) >= price:", "if max(offers) > price:"),),
        (
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_generated_markets",
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_logs_the_race_never_writes",
        ),
    ),
    Mutant(
        "race-check-skips-a-round-with-no-bids",
        "the log check skips a round that logged no bids, and its announcement with it",
        (
            (
                PROTOCOL,
                "            for price, offers in zip(announced, offered):\n",
                "            for price, offers in zip(announced, offered):\n                if not offers:\n                    continue\n",
            ),
        ),
        (
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_generated_markets",
            f"{T_PROTOCOL}::TestLogCheckMatchesReplay::test_logs_the_race_never_writes",
        ),
    ),
    Mutant(
        "trace-events-replace-the-logs",
        "reading a trace's events stores them in place of its logs",
        (
            (
                PROTOCOL,
                "        return (*opening, *race, *self._tail)\n",
                "        self._tail, self._opening, self._race = (*opening, *race, *self._tail), None, None\n        return self._tail\n",
            ),
        ),
        (
            f"{T_PROTOCOL}::TestTraceFormat::test_reading_the_events_changes_no_pickle_line_or_check",
            f"{T_PROTOCOL}::TestTraceFormat::test_a_race_pickles_as_its_log_and_settles_without_its_events",
            "tests/test_layers.py::test_a_traced_run_formats_and_checks_its_traces_from_their_logs",
        ),
    ),
    Mutant(
        "race-wrong-gate-decline-line",
        "a gate decline's trace line says p=1",
        ((PROTOCOL, '"\\texc_1\\td=0,p=0,{xy}"', '"\\texc_1\\td=0,p=1,{xy}"'),),
        (f"{T_PROTOCOL}::TestTraceFormat::test_lines_are_the_same_from_the_log_and_from_the_events",),
    ),
    Mutant(
        "opening-bid-by-round",
        "an opening bid is rounded half to even instead of half up",
        ((PROTOCOL, "floor(markup * mc + 0.5)", "round(markup * mc)"),),
        (f"{T_PROTOCOL}::TestRaceMatchesReference::test_random_markets",),
    ),
    # -- settlement, runs and the command line ----------------------------------
    Mutant(
        "settle-grants-nothing-without-a-deny",
        "a winner with nothing left is not denied",
        ((MARKET, "if fit == 0 or reject_partial:", "if reject_partial:"),),
        (f"{T_MARKET}::TestSettle::test_winner_with_nothing_left_is_denied",),
    ),
    Mutant(
        "settle-books-one-more",
        "settlement books one more than the placed cost",
        ((MARKET, "price * fit, added, delta", "price * fit, added + 1, delta"),),
        (
            f"{T_MARKET}::TestRunScenario::test_ledger_cost_matches_final_allocation_cost",
            "tests/test_scenario_fuzz.py::test_mutated_scenarios_exit_cleanly_inside_out",
        ),
    ),
    Mutant(
        "settle-ack-upstream",
        "the broker's grant is logged as sent by the supplier",
        ((MARKET, "(rnd, BROKER_TO_SUPPLIER, wid, Ack(x, y, fit))", "(rnd, SUPPLIER_TO_BROKER, wid, Ack(x, y, fit))"),),
        (
            f"{T_MARKET}::TestSettle::test_settlement_extends_a_conformant_trace",
            "tests/test_scenario_fuzz.py::test_mutated_scenarios_exit_cleanly_inside_out",
        ),
    ),
    Mutant(
        "run-with-an-unbound-empty-state",
        "run_scenario starts each supplier from an Allocation() with no mask list",
        ((MARKET, "Allocation.empty(sc.network), sc.policy", "Allocation(), sc.policy"),),
        (f"{T_MARKET}::TestRunScenario::test_a_fresh_run_rebuilds_no_mask_list",),
    ),
    Mutant(
        "termination-text-from-name",
        "a report names an auction's termination by the enum name",
        ((MARKET, "_TERMINATION_TEXT = {t: t.value for t in Termination}", "_TERMINATION_TEXT = {t: t.name for t in Termination}"),),
        (f"{T_MARKET}::TestRunScenarioMatchesReference::test_generated_markets",),
    ),
    Mutant(
        "seed-option-dropped",
        "simulate run ignores --seed when it loads the scenario",
        ((CLI, "fallback_seed=_env_seed(), seed_override=args.seed)", "fallback_seed=_env_seed())"),),
        ("tests/test_cli.py::TestRunCommand::test_seed_override_changes_results",),
    ),
    Mutant(
        "probe-through-the-cost-module",
        "suppliers call marginal_cost through the cost module, past the traced binding",
        (
            (GAME, "from .cost import marginal_cost\n", "from . import cost\n"),
            (GAME, "return marginal_cost(self.network, self.state, vc)", "return cost.marginal_cost(self.network, self.state, vc)"),
        ),
        ("tests/test_layers.py::test_tracer_finds_every_traced_binding",),
    ),
    Mutant(
        "settle-through-a-renamed-binding",
        "market calls incremental_allocate under another name, so the traced binding is missing",
        (
            (MARKET, "from .rwa import Allocation, Grant, _route, incremental_allocate\n", "from .rwa import Allocation, Grant, _route, incremental_allocate as place\n"),
            (MARKET, "delta, added = incremental_allocate(", "delta, added = place("),
        ),
        ("tests/test_layers.py::test_tracer_finds_every_traced_binding",),
    ),
    # -- records and imports ----------------------------------------------------
    Mutant(
        "record-equal-to-any-record",
        "a record compares equal to a record of another type with equal fields",
        ((ERRORS, "if other.__class__ is not self.__class__:", "if not isinstance(other, Record):"),),
        (f"{T_RECORDS}::test_messages_of_two_types_with_equal_fields_differ",),
    ),
    Mutant(
        "record-hash-of-one-field",
        "a record hashes its first field only",
        ((ERRORS, "return hash(self._values())", "return hash(self._values()[:1])"),),
        (f"{T_RECORDS}::TestRecordContract::test_equality_and_hash_are_by_value",),
    ),
    Mutant(
        "record-pickles-a-slot-dict",
        "a record pickles as a {slot name: value} dict",
        ((ERRORS, "    __getstate__ = _values\n", "    __getstate__ = object.__getstate__\n"),),
        (f"{T_RECORDS}::TestRecordContract::test_pickle_round_trip", f"{T_RWA}::TestGrant::test_a_grant_pickles_as_its_fields"),
    ),
    Mutant(
        "dataclasses-imported",
        "the package imports dataclasses at load",
        ((ERRORS, "from typing import NamedTuple\n", "import dataclasses  # noqa: F401\nfrom typing import NamedTuple\n"),),
        (f"{T_RECORDS}::test_a_fresh_cli_run_imports_none_of_the_modules_it_does_not_need",),
    ),
    Mutant(
        "hashlib-imported",
        "the market module imports hashlib at load",
        ((MARKET, "import math\n", "import hashlib  # noqa: F401\nimport math\n"),),
        (f"{T_RECORDS}::test_a_fresh_cli_run_imports_none_of_the_modules_it_does_not_need",),
    ),
]


# A mutant can make placement loop or grow without end, so each test run is bounded.
MEMORY_LIMIT = 2 << 30  # bytes of address space per test run
TIMEOUT_S = 300


def _limit_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def pytest_failures(root: Path, args: list[str]) -> tuple[set[str] | None, float]:
    """Run pytest on ``args`` in ``root``, bounded; the node ids (parameters stripped) that
    failed or erred, None when the run timed out, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=TIMEOUT_S,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - started
    failed = {re.sub(r"\[.*$", "", m) for m in re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)}
    return failed, time.monotonic() - started


def run(mutant: Mutant, root: Path) -> tuple[str, float]:
    """Apply ``mutant`` in ``root``, run its tests, restore the files; the verdict and the seconds taken."""
    if not mutant.tests:
        return "SURVIVED  no tests named", 0.0
    originals: dict[Path, str] = {}
    try:
        for file, old, new in mutant.edits:
            path = root / file
            text = path.read_text(encoding="utf-8")
            originals.setdefault(path, text)
            if text.count(old) != 1:
                return f"STALE  {file}: the old text occurs {text.count(old)} times", 0.0
            path.write_text(text.replace(old, new), encoding="utf-8")
        failed, took = pytest_failures(root, list(mutant.tests))
        if failed is None:
            return f"SURVIVED  timed out after {TIMEOUT_S} s", took
        survivors = [t for t in mutant.tests if t not in failed]
        if survivors:
            return f"SURVIVED  still passing: {', '.join(survivors)}", took
        return "killed", took
    finally:
        for path, text in originals.items():
            path.write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.what}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    bad = 0
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = REPO / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(source, root / name)
        for m in chosen:
            verdict, took = run(m, root)
            bad += verdict != "killed"
            print(f"{m.name:40s} {took:6.1f}s  {verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.monotonic() - started:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
