"""Re-record ``digests.json``: the reference seed's first-round input
digest of every workload at both scales, plus the held-out seed's.

Run from the repository root only when the input generators change on
purpose — a change to the benchmark of its own::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE_SEED = 0
#: seed kept out of tuning; claims are re-checked on it
HELD_OUT_SEED = 104729


def main() -> None:
    inputs = {}
    held_out = {}
    for name, cls in workloads.WORKLOADS.items():
        for scale in (workloads.FULL, workloads.TINY):
            inputs[f"{name}/{scale.name}"] = cls(REFERENCE_SEED, scale).inputs_digest(0).hex()
        held_out[name] = cls(HELD_OUT_SEED, workloads.FULL).inputs_digest(0).hex()
    payload = {
        "reference_seed": REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": inputs,
        "held_out_inputs": held_out,
    }
    (HERE / "digests.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
