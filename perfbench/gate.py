"""The correctness gate and the input pins.

``expected.json`` (written by ``record.py``) holds, per workload, the
digests of the generated inputs and the output every input must produce.
A run refuses to start when an input digest differs, so a change to the
GT-ITM generator or the fault model shows up as a changed input rather
than as a change in speed; and every op's output is compared against its
recorded entry, a mismatch counting as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

COST_TOL = 1e-9
"""Relative and absolute tolerance for comparing plan costs."""


class InputDrift(RuntimeError):
    """A generated input no longer matches its pinned digest."""


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(label: str, obj, pinned: str) -> None:
    """Raise :class:`InputDrift` unless ``obj`` hashes to ``pinned``."""
    got = digest(obj)
    if got != pinned:
        raise InputDrift(
            f"{label} changed: digest {got[:16]} is not the pinned {pinned[:16]}; "
            "re-record perfbench/expected.json if the change is intended"
        )


def mismatches(expected: dict, got: dict) -> list[str]:
    """The fields of ``got`` that differ from ``expected``.

    Numbers compare within :data:`COST_TOL`; everything else exactly.
    Fields of ``got`` that ``expected`` does not name are not checked.
    """
    out = []
    for key, want in expected.items():
        have = got.get(key)
        if isinstance(want, float) and isinstance(have, (int, float)):
            ok = math.isclose(have, want, rel_tol=COST_TOL, abs_tol=COST_TOL)
        else:
            ok = have == want
        if not ok:
            out.append(f"{key}: expected {want!r}, got {have!r}")
    return out


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())
