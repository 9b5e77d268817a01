"""Hierarchical domain-decomposed planning (docs/ALGORITHM.md).

Flat planning grounds one action per (component, node) and per
(interface, directed link) — at 10k nodes that is hundreds of thousands
of ground actions before the search even starts.  This package exploits
the transit-stub structure the generator emits (and real WANs exhibit):

1. **partition** the network into stub domains plus a backbone
   (:mod:`repro.network.partition`);
2. **abstract** each relevant stub to a single representative node with
   an aggregated capacity envelope (:mod:`repro.hierarchy.abstraction`)
   — a sound over-approximation: abstract-feasible ⊇ concrete-feasible;
3. **plan the backbone** over the tiny abstract network, then derive
   per-domain boundary contracts from the abstract plan's exact
   execution (:mod:`repro.hierarchy.contracts`);
4. **fan out** the concrete per-domain subproblems (over the
   :class:`~repro.parallel.Supervisor` when asked) and **stitch** the
   sub-plans back into one sequence, validated action-by-action with the
   exact :class:`~repro.planner.PlanExecutor`
   (:mod:`repro.hierarchy.stitch`);
5. on any miss — unpartitionable network, infeasible subproblem, stitch
   validation failure — walk down the one solve ladder
   (:mod:`repro.planner.robust`): the hierarchical rung is followed by
   flat planning on the widened union subnetwork (after a contract or
   stitch miss only), then flat planning on the full network, all
   sharing one partition (:mod:`repro.hierarchy.solve`).

The result is correct by construction (only the exact executor ever
accepts a plan) and byte-identical across worker counts (domain tasks
are derived from the abstract plan alone, never from each other).
"""

from .abstraction import AbstractionResult, abstract_network, domain_envelope
from .contracts import BoundaryContract, DomainProblem, derive_contracts
from .solve import HierarchyConfig, HierarchyOutcome, solve_hierarchical
from .stitch import StitchError, place_subject, stitch_hierarchical

__all__ = [
    "AbstractionResult",
    "abstract_network",
    "domain_envelope",
    "BoundaryContract",
    "DomainProblem",
    "derive_contracts",
    "HierarchyConfig",
    "HierarchyOutcome",
    "solve_hierarchical",
    "StitchError",
    "place_subject",
    "stitch_hierarchical",
]
