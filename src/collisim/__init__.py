"""Collision-model simulator for open quantum systems.

Discrete repeated-interaction dynamics with memory-bearing environment
topologies, non-Markovianity quantifiers and per-collision thermodynamic
bookkeeping (heat, switching work, entropy production, Landauer terms).
"""

from . import linalg, nonmarkov, qstate, scenarios, thermo
from .engine import (AncillaStream, CollisionConfig, CollisionRecord, Trajectory,
                     TrajectoryStack, collision_unitary, erase_correlations,
                     partial_swap_interaction, partial_swap_unitary, run,
                     run_paired, run_stack, swap_unitary, system_channel)
from .errors import ConfigError, IntegrityError, NotConvergedError

__version__ = "0.1.0"

__all__ = [
    "AncillaStream", "CollisionConfig", "CollisionRecord", "Trajectory",
    "TrajectoryStack", "ConfigError", "IntegrityError", "NotConvergedError",
    "collision_unitary", "erase_correlations", "partial_swap_interaction",
    "partial_swap_unitary", "run", "run_paired", "run_stack", "swap_unitary",
    "system_channel",
    "linalg", "qstate", "nonmarkov", "thermo", "scenarios",
]
