"""Deterministic simulator of broker-mediated wavelength markets.

Competing optical transport networks bid to carry point-to-point
wavelength demand aggregated by a broker; prices fall through a stochastic
undercutting race and the winner provisions capacity by greedy placement,
one wavelength at a time at the cheapest free route and wavelength.  An
exact minimum-cost routing and wavelength assignment solver for one
connection, with an exhaustive oracle, is provided beside it but does not
yet drive settlement.  Placement and both solvers return a ``Grant``, a
record of ``(hops, wavelength mask)`` runs whose ``len()`` is its unit
count, and ``apply_delta(net, state, grant)`` commits one into an
``Allocation``: its grants plus one list of link masks, which placement
reads in place.  A ``ScenarioConfig`` is valid by construction: making
one with any problem raises ``ConfigError``.
"""

from .cost import CostCurve, CurveSegment, marginal_cost, total_cost_curve
from .errors import (
    ConfigError,
    ConflictError,
    DegenerateMarketError,
    EmptyCurveError,
    InfeasibleError,
    InstanceTooLargeError,
    InvalidOutcomeError,
    NetworkTooLargeError,
    NoPathError,
    OutputError,
    ParseError,
    RoundCapExceededError,
    UnknownNetworkError,
    Violation,
    WavebrokerError,
)
from .game import (
    Bid,
    EquilibriumBound,
    SupplierAgent,
    UndercutPolicy,
    decide_bid,
    equilibrium_bounds,
)
from .market import (
    ChannelConfig,
    ConstantElasticityDemand,
    LinearDemand,
    ProfitLedger,
    Report,
    ScenarioConfig,
    SettlementResult,
    SupplierConfig,
    broker_demand,
    child_seed,
    profit_percentages,
    run_scenario,
    run_sweep,
    settle,
)
from .protocol import (
    Bidders,
    CompetitionOutcome,
    CompetitionTrace,
    Termination,
    TraceEvent,
    run_competition,
    validate_trace,
)
from .rwa import (
    Allocation,
    Grant,
    LightPath,
    apply_delta,
    brute_force_rwa,
    dump_allocation,
    incremental_allocate,
    solve_min_cost_rwa,
    validate_allocation,
)
from .topology import (
    Link,
    Network,
    VirtualChannel,
    make_network,
    path_cost,
    route_candidates,
    validate_network,
)

__version__ = "0.1.0"
