"""Record ``expected.json``: the pinned inputs and the outputs they produce.

    python3 perfbench/record.py [--workload NAME ...]

For each workload, draws candidate inputs from the fixed pool seed,
solves each once, keeps those that qualify (solved; hierarchical mode
for hier-10k; no outage over the whole timeline for repair-fleet), and
writes the digests of the generated inputs with every kept input's
outputs.  Workloads not named keep their recorded entries.  Re-record
only when a change is meant to alter inputs or outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
from inputs import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    path = gate.EXPECTED_PATH
    recorded = gate.load_expected(path) if path.exists() else {}
    for name in args.workload or list(WORKLOADS):
        recorded[name] = WORKLOADS[name].record(lambda line: print(line, file=sys.stderr))
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
