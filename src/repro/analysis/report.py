"""Analysis results, stable diagnostics, and the ``analyze_problem`` entry.

The :class:`AnalysisResult` bundles everything the static pass computed —
envelopes, dead actions with certificates, symmetry classes, prune hints —
and renders it as stable lint diagnostics (reusing the PR-1
:class:`~repro.lint.diagnostics.LintReport` machinery) or as a JSON
artifact.  Diagnostic codes are append-only, like the linter's:

``ENV001`` (info)
    Envelope fixpoint summary (variables tracked / bounded / widened).
``ENV002`` (warning)
    A ground variable lost a bound to widening — its envelope is
    one-sided or unbounded, weakening dead-action detection there.
``DEAD001`` (info)
    A provably unfirable ground action, with its certificate's refuting
    argument in the message.
``SYM001`` (info)
    A verified class of interchangeable network nodes.
``SYM002`` (info)
    A class of structurally identical components.

The result deliberately holds **no references to ground actions or the
compiled problem** — only indices, names, intervals, and plain data — so
a cached copy can be shared across forked problems and serialized safely.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compile import CompiledProblem
from ..lint import LintReport, Severity, SourceLocation
from ..obs import timed
from .certificates import interval_payload
from .deadcode import DeadAction, find_dead_actions
from .envelopes import EnvelopeResult, _Binding, compute_envelopes
from .symmetry import PruneHints, SymmetryResult, compute_symmetry

__all__ = ["AnalysisResult", "analyze_problem"]


@dataclass
class AnalysisResult:
    """Everything the static analysis derived from one compiled problem."""

    app_name: str
    network_name: str
    total_actions: int
    envelopes: EnvelopeResult
    dead: tuple[DeadAction, ...]
    symmetry: SymmetryResult
    analysis_seconds: float

    @property
    def hints(self) -> PruneHints:
        return self.symmetry.hints

    def dead_indices(self) -> frozenset[int]:
        """Indices of provably unfirable actions, for planner exclusion."""
        return frozenset(d.index for d in self.dead)

    # -- rendering ---------------------------------------------------------

    def to_report(self) -> LintReport:
        """Render the analysis as stable ENV/DEAD/SYM lint diagnostics."""
        report = LintReport(app_name=self.app_name, network_name=self.network_name)
        env = self.envelopes
        report.add(
            "ENV001",
            Severity.INFO,
            (
                f"interval fixpoint: {len(env.envelopes)} variable(s) tracked, "
                f"{env.bounded} bounded, {len(env.widened)} widened, "
                f"{env.iterations} iteration(s)"
            ),
            SourceLocation(kind="app", name=self.app_name, section="envelopes"),
        )
        for gvar in env.widened:
            report.add(
                "ENV002",
                Severity.WARNING,
                (
                    f"envelope of {gvar} was widened to {env.envelopes[gvar]}; "
                    "dead-action detection is weakened for this variable"
                ),
                SourceLocation(kind="variable", name=gvar, section="envelopes"),
            )
        for dead in self.dead:
            cert = dead.certificate
            report.add(
                "DEAD001",
                Severity.INFO,
                f"dead ground action [{cert.kind}]: {cert.detail}",
                SourceLocation(
                    kind="action",
                    name=dead.name,
                    section="actions",
                    index=dead.index,
                ),
            )
        for cls in self.symmetry.node_classes:
            report.add(
                "SYM001",
                Severity.INFO,
                (
                    f"{len(cls.members)} interchangeable node(s): "
                    + ", ".join(cls.members)
                ),
                SourceLocation(
                    kind="network", name=cls.members[0], section="symmetry"
                ),
            )
        for cls in self.symmetry.component_classes:
            report.add(
                "SYM002",
                Severity.INFO,
                (
                    f"{len(cls.members)} structurally identical component(s): "
                    + ", ".join(cls.members)
                ),
                SourceLocation(
                    kind="component", name=cls.members[0], section="symmetry"
                ),
            )
        return report

    def to_payload(self) -> dict[str, object]:
        """JSON-ready artifact: diagnostics plus the full machine data.

        No timings: the artifact of one instance is the same on every run
        (the text report carries the analysis time).
        """
        env = self.envelopes
        return {
            "app": self.app_name,
            "network": self.network_name,
            "actions": {
                "total": self.total_actions,
                "dead": len(self.dead),
            },
            "envelopes": {
                "iterations": env.iterations,
                "bounded": env.bounded,
                "widened": list(env.widened),
                "variables": {
                    gvar: interval_payload(iv)
                    for gvar, iv in sorted(env.envelopes.items())
                },
            },
            "dead_actions": [d.certificate.to_dict() for d in self.dead],
            "symmetry": {
                "node_classes": [
                    list(cls.members) for cls in self.symmetry.node_classes
                ],
                "component_classes": [
                    list(cls.members) for cls in self.symmetry.component_classes
                ],
                "verified_pairs": [
                    list(pair) for pair in self.symmetry.verified_pairs
                ],
                "partner_edges": len(self.symmetry.hints.partner),
            },
            "diagnostics": self.to_report().to_payload()["diagnostics"],
        }

    def render_text(self) -> str:
        head = (
            f"analyze {self.app_name!r} on {self.network_name!r}: "
            f"{len(self.dead)}/{self.total_actions} action(s) dead, "
            f"{len(self.symmetry.node_classes)} node class(es), "
            f"{len(self.symmetry.component_classes)} component class(es) "
            f"({self.analysis_seconds * 1000.0:.1f} ms)"
        )
        return head + "\n" + self.to_report().render_text()


def analyze_problem(problem: CompiledProblem) -> AnalysisResult:
    """Run the full static pass over one compiled problem."""
    with timed("analysis") as clock:
        binding = _Binding(problem.actions)
        envelopes = compute_envelopes(problem, binding)
        dead = find_dead_actions(problem, envelopes.envelopes, binding)
        symmetry = compute_symmetry(problem)
    return AnalysisResult(
        app_name=problem.app.name,
        network_name=problem.network.name,
        total_actions=len(problem.actions),
        envelopes=envelopes,
        dead=dead,
        symmetry=symmetry,
        analysis_seconds=clock.duration_s,
    )
