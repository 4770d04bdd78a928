"""Deterministic simulator of broker-mediated wavelength markets.

Competing optical transport networks bid to carry point-to-point
wavelength demand aggregated by a broker; prices fall through a stochastic
undercutting race and the winner provisions capacity by greedy placement,
one wavelength at a time at the cheapest free route and wavelength.  Where
capacity binds, greedy placement can fall short of a joint solve; the
exhaustive oracle that shows it is a test helper, not part of the package.
Placement returns a ``Grant``, a record of ``(hops, wavelength mask)``
runs whose ``len()`` is its unit count, and ``apply_delta(net, state,
grant)`` commits one into an ``Allocation``: its grants plus one list of
link masks, which placement reads in place.  A ``ScenarioConfig`` is valid by construction: making
one with any problem raises ``ConfigError``.
"""

from .cost import CostCurve, CurveSegment, marginal_cost, total_cost_curve
from .errors import (
    ConfigError,
    ConflictError,
    EmptyCurveError,
    InfeasibleError,
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
from .game import Bid, SupplierAgent, UndercutPolicy, decide_bid
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
from .rwa import __getattr__  # LightPath, defined on its first use
from .rwa import (
    Allocation,
    Grant,
    apply_delta,
    dump_allocation,
    incremental_allocate,
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
