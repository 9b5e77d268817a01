"""Dead ground-action elimination.

An action is *dead* when the envelope fixpoint refutes it against the
final envelopes: no state reachable by exact execution lets it fire.  By
the planner's validated-plan invariant (every returned plan executes
exactly), a dead action cannot appear in any returned plan, so excluding
dead actions from the search preserves the optimal plan cost exactly —
the property the differential audit (:mod:`repro.analysis.audit`) checks
empirically on every bundled domain.

Each dead action carries a :class:`~repro.analysis.certificates.PruneCertificate`
recording the refuting interval argument.  The refutation pass judges
each (grounding template, final read envelopes) once and steps a single
action again only to certify one that is dead; the dead list is in index
order, so it is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compile import CompiledProblem
from ..intervals import Interval
from .certificates import PruneCertificate, certificate_for
from .envelopes import _bind, _Binding, _value_codes, abstract_step

__all__ = ["DeadAction", "find_dead_actions"]


@dataclass(frozen=True)
class DeadAction:
    """One provably unfirable ground action with its certificate."""

    index: int
    name: str
    certificate: PruneCertificate


def find_dead_actions(
    problem: CompiledProblem, envelopes: dict[str, Interval], binding: _Binding | None = None
) -> tuple[DeadAction, ...]:
    """Refute every action against the final envelopes.

    Envelope growth is monotone and every refutation kind is anti-monotone
    in the envelopes (a larger envelope can only *un*-refute), so judging
    against the final fixpoint is consistent with the fixpoint itself: an
    action that contributed writes during the fixpoint is never reported
    dead here.  ``binding`` is the one the fixpoint ran on, when there is
    one (its memoized steps are reused), else ``_bind(problem.actions)``.
    """
    if binding is None:
        binding = _bind(problem.actions)
    code_of = _value_codes(envelopes, binding.codes)
    return tuple(
        DeadAction(
            index=action.index,
            name=action.name,
            certificate=certificate_for(action, abstract_step(action, envelopes)),
        )
        for action, template, reads in zip(problem.actions, binding.templates, binding.reads)
        if template.step(action, envelopes, code_of, reads) is None
    )
