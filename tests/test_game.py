import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebroker import (
    Bid,
    DegenerateMarketError,
    SupplierAgent,
    UndercutPolicy,
    decide_bid,
    equilibrium_bounds,
)

from conftest import mknet


def sample_undercut(policy, rng):
    """The step ``decide_bid`` cuts by, read off a bid that cannot fall below its cost."""
    return -decide_bid(0, -policy.l_max, policy.step, rng.getrandbits).price


class TestSampleUndercut:
    def test_degenerate_interval_is_constant(self):
        rng = random.Random(1)
        policy = UndercutPolicy(50, 50)
        assert all(sample_undercut(policy, rng) == 50 for _ in range(100))

    def test_draws_stay_in_range(self):
        rng = random.Random(2)
        policy = UndercutPolicy(50, 100)
        for _ in range(2000):
            assert 50 <= sample_undercut(policy, rng) <= 100

    def test_mean_close_to_midpoint(self):
        rng = random.Random(3)
        policy = UndercutPolicy(50, 100)
        draws = [sample_undercut(policy, rng) for _ in range(10_000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 75) / 75 < 0.02

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            UndercutPolicy(0, 10)
        with pytest.raises(ValueError):
            UndercutPolicy(20, 10)


class TestDecideBid:
    def test_forced_bid(self):
        rng = random.Random(5)
        decision = decide_bid(1_000, 500, UndercutPolicy(100, 100).step, rng.getrandbits)
        assert decision == Bid(900)

    def test_pass_when_cut_would_cross_own_cost(self):
        rng = random.Random(6)
        decision = decide_bid(550, 500, UndercutPolicy(100, 100).step, rng.getrandbits)
        assert decision is None

    def test_landing_exactly_on_own_cost_is_a_bid(self):
        rng = random.Random(7)
        decision = decide_bid(600, 500, UndercutPolicy(100, 100).step, rng.getrandbits)
        assert decision == Bid(500)

    def test_non_leader_consumes_exactly_one_draw(self):
        policy = UndercutPolicy(50, 100)
        a, b = random.Random(8), random.Random(8)
        decide_bid(1_000, 10, policy.step, a.getrandbits)
        sample_undercut(policy, b)
        assert a.getstate() == b.getstate()

    @settings(max_examples=200, deadline=None)
    @given(
        current=st.integers(min_value=0, max_value=10_000),
        mc=st.integers(min_value=0, max_value=10_000),
        lo=st.integers(min_value=1, max_value=500),
        span=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_never_bids_below_own_marginal_cost(self, current, mc, lo, span, seed):
        decision = decide_bid(current, mc, UndercutPolicy(lo, lo + span).step, random.Random(seed).getrandbits)
        if isinstance(decision, Bid):
            assert decision.price >= mc
            assert decision.price < current


class TestBid:
    def bid(self):
        return decide_bid(1_000, 500, UndercutPolicy(100, 100).step, random.Random(5).getrandbits)

    def test_a_bid_is_a_one_field_named_tuple(self):
        bid = self.bid()
        assert type(bid) is Bid and type(bid).__name__ == "Bid"
        assert Bid._fields == ("price",) and bid.price == 900

    def test_bids_compare_by_value(self):
        assert self.bid() == Bid(900) == Bid(price=900)
        assert self.bid() != Bid(899)
        assert hash(self.bid()) == hash(Bid(900))

    def test_pickle_round_trip(self):
        copy = pickle.loads(pickle.dumps(self.bid()))
        assert type(copy) is Bid and copy == Bid(900) and copy.price == 900

    def test_a_bid_is_immutable(self):
        bid = self.bid()
        with pytest.raises(AttributeError):
            bid.price = 1
        with pytest.raises(TypeError):
            bid[0] = 1


class TestStep:
    def test_step_constants(self):
        assert UndercutPolicy(3, 10).step == (3, 8, 4)
        assert UndercutPolicy(5, 5).step == (5, 1, 1)
        assert UndercutPolicy(1, 2**32).step == (1, 2**32, 33)

    def test_step_follows_the_bounds_through_replace_and_pickle(self):
        policy = UndercutPolicy(3, 10)
        assert dataclasses.replace(policy, l_max=5).step == (3, 3, 2)
        copy = pickle.loads(pickle.dumps(policy))
        assert copy == policy and copy.step == (3, 8, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.step = (1, 1, 1)


class TestDrawMatchesRandint:
    """The race's draw is ``randint`` written out; a Python whose ``randint``
    draws differently fails here instead of silently moving the goldens."""

    WIDTHS = [*range(1, 71), 2**31, 2**53 + 1]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_same_values_and_stream_position_as_randint(self, width):
        for seed in range(50):
            l_min = 1 + seed % 7
            policy = UndercutPolicy(l_min, l_min + width - 1)
            race, ref = random.Random(seed), random.Random(seed)
            for _ in range(4):
                decision = decide_bid(policy.l_max, 0, policy.step, race.getrandbits)
                assert policy.l_max - decision.price == ref.randint(policy.l_min, policy.l_max)
            assert sample_undercut(policy, race) == ref.randint(policy.l_min, policy.l_max)
            assert race.getstate() == ref.getstate()


class TestEquilibriumBounds:
    def test_two_supplier_band(self):
        bound = equilibrium_bounds([600, 400], [UndercutPolicy(50, 100), UndercutPolicy(50, 100)])
        assert bound.reference_mc == 600
        assert bound.interval() == (500, 700)

    def test_equal_costs(self):
        bound = equilibrium_bounds([500, 500], [UndercutPolicy(50, 100), UndercutPolicy(50, 100)])
        assert bound.reference_mc == 500

    def test_band_extremes_across_policies(self):
        bound = equilibrium_bounds([600, 400], [UndercutPolicy(25, 200), UndercutPolicy(50, 100)])
        assert bound.e_min == 25
        assert bound.e_max == 200

    def test_reference_is_second_smallest(self):
        bound = equilibrium_bounds([900, 300, 600], [UndercutPolicy(10, 10)] * 3)
        assert bound.reference_mc == 600

    def test_degenerate_market(self):
        with pytest.raises(DegenerateMarketError):
            equilibrium_bounds([500], [UndercutPolicy(1, 1)])


class TestSupplierAgent:
    def test_no_capacity_means_no_bid(self):
        from wavebroker import VirtualChannel

        agent = SupplierAgent("a", mknet([("A", "B", 0, 100)]), policy=UndercutPolicy(1, 1))
        assert agent.next_unit_mc(VirtualChannel("A", "B", "x")) is None

    def test_markup_below_one_rejected(self):
        with pytest.raises(ValueError):
            SupplierAgent("a", mknet([("A", "B", 1, 1)]), markup=0.5)
