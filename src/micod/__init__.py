"""Desk-scale laboratory for micro-view order dispatching.

Subpackages by concern:

- :mod:`micod.core` - geometry, entities, episode configuration
- :mod:`micod.scenario` - synthetic benchmark generation and persistence
- :mod:`micod.simulator` - batch-mode world and the metrics ledger
- :mod:`micod.env` - two-layer decision process over the simulator
- :mod:`micod.matching` - one-batch solvers (greedy, optimal, stable) and oracles
- :mod:`micod.autodiff` - minimal reverse-mode tensor core
- :mod:`micod.d2sn` - auto-regressive dispatch policy network and critic
- :mod:`micod.trainer` - clipped-objective policy optimization
- :mod:`micod.harness` - evaluation orchestration and CSV emission
- :mod:`micod.cli` - the ``micod`` command
"""

from .core import Driver, EpisodeConfig, Location, Order, cell_ids, distance
from .scenario import Dataset, ScenarioSpec, classify, generate
from .simulator import MetricsLedger, MetricsReport, SimState, episode_metrics
from .env import DispatchEnv, OuterState

__all__ = [
    "Driver", "EpisodeConfig", "Location", "Order",
    "cell_ids", "distance",
    "Dataset", "ScenarioSpec", "classify", "generate",
    "MetricsLedger", "MetricsReport", "SimState", "episode_metrics",
    "DispatchEnv", "OuterState",
]

__version__ = "0.1.0"
