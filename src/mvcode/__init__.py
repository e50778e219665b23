"""Multi-version storage codes for asynchronously replicated data.

Servers receive an unordered subset of up to nu correlated versions of a
K-bit object; any c of them together must reconstruct the newest version
they all hold, or something newer.  The package provides the correlation
model, several storage schemes (replication, erasure-coded, delta, and
bin-index constructions), exhaustive and sampled verifiers for the decode
guarantee, converse storage bounds, and a schedule simulator, all behind
one CLI.

The root re-exports the library's entry points and the errors they
raise; everything else is imported from its submodule, for example
``mvcode.bounds.gap_factor`` or ``mvcode.sim.schedule_from_text``.
Importing ``binning`` here also registers ``make_scheme("binning")``.
"""

from .binning import BinningCodebook, RateAllocation, seed_search
from .bounds import BoundParams, lower_bound_general
from .model import (
    CorrelationModel,
    EnumerationCapExceeded,
    SystemState,
    sample_tuple,
)
from .schemes import DecodingError, MvcScheme, make_scheme
from .sim import (
    adversarial_schedule_search,
    partial_update_crash_schedule,
    run_simulation,
)
from .verifier import (
    estimate_epsilon,
    quorum_bridge,
    verify_definition_2,
    verify_requirement_A,
)

__version__ = "0.1.0"

__all__ = [
    "BinningCodebook",
    "BoundParams",
    "CorrelationModel",
    "DecodingError",
    "EnumerationCapExceeded",
    "MvcScheme",
    "RateAllocation",
    "SystemState",
    "adversarial_schedule_search",
    "estimate_epsilon",
    "lower_bound_general",
    "make_scheme",
    "partial_update_crash_schedule",
    "quorum_bridge",
    "run_simulation",
    "sample_tuple",
    "seed_search",
    "verify_definition_2",
    "verify_requirement_A",
]
