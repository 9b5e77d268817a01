"""Compilation of CPP instances into leveled AI-planning problems."""

from .actions import (
    EffectKind,
    GroundAction,
    GroundingTemplate,
    ReplayCounters,
    ReplayFailure,
    iface_prop_var,
    link_res_var,
    node_res_var,
    replay_backend,
    set_replay_backend,
    use_replay_backend,
)
from .bounds import compute_property_bounds, resource_capacity_bounds
from .delta import patch_problem
from .grounding import Grounder, PropTable
from .problem import CompiledProblem, compile_problem
from .propositions import AvailProp, PlacedProp, Prop, dominated_level_tuples
from .diagnose import Diagnosis, diagnose
from .reachability import logically_reachable, prune_unreachable_actions

__all__ = [
    "EffectKind",
    "GroundAction",
    "GroundingTemplate",
    "ReplayCounters",
    "ReplayFailure",
    "replay_backend",
    "set_replay_backend",
    "use_replay_backend",
    "iface_prop_var",
    "node_res_var",
    "link_res_var",
    "compute_property_bounds",
    "resource_capacity_bounds",
    "Grounder",
    "PropTable",
    "CompiledProblem",
    "compile_problem",
    "AvailProp",
    "PlacedProp",
    "Prop",
    "dominated_level_tuples",
    "prune_unreachable_actions",
    "logically_reachable",
    "patch_problem",
    "Diagnosis",
    "diagnose",
]
