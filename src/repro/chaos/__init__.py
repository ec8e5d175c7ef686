"""repro.chaos — deterministic infrastructure fault injection.

The execution substrate's analogue of
:class:`~repro.runtime.injection.ErrorInjector`: a seeded injector
whose fault plan is a pure function of ``(seed, fault, site, key)``,
threaded through the pool, the campaign manifest path, the daemon
client/server, and the disk cache behind a zero-cost
:class:`NullChaosInjector` default.  ``repro chaos`` runs a campaign or
batch under injection and asserts the **convergence oracle**: chaotic
statistics must be identical to fault-free ones.  See
``docs/ROBUSTNESS.md``.
"""

from repro.chaos.injector import (
    FAULTS,
    WORKER_FAULTS,
    ChaosConfig,
    ChaosError,
    ChaosInjector,
    NullChaosInjector,
    chaos_recovery,
    parse_faults,
)
from repro.chaos.oracle import (
    CHAOS_SCHEMA,
    replay_worker_faults,
    run_batch_oracle,
    run_campaign_oracle,
)

__all__ = [
    "CHAOS_SCHEMA",
    "FAULTS",
    "WORKER_FAULTS",
    "ChaosConfig",
    "ChaosError",
    "ChaosInjector",
    "NullChaosInjector",
    "chaos_recovery",
    "parse_faults",
    "replay_worker_faults",
    "run_batch_oracle",
    "run_campaign_oracle",
]
