"""Frozen output of the seeded fault-plan generator.

One sha256 per (scope, targets, horizon) pins every spec field of the
plans seeds 0-49 generate, floats bit for bit through ``float.hex()``.
Slot-scoped and node-scoped plans come from the same generator, so a
change to one scope's draws shows up here even when no chaos case
happens to use the seed.

Regenerate (only on a commit whose generator is the reference)::

    PYTHONPATH=src python tests/serve/test_fault_plan_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.faults import FaultPlan

GOLDEN = os.path.join(os.path.dirname(__file__), "fault_plan_golden.json")

SEEDS = range(50)
TARGETS = (1, 2, 3, 4, 6)
HORIZONS = (2e-3, 7.2e-3)
CASES = [
    f"{scope}-{targets}-{horizon!r}"
    for scope in ("slots", "nodes")
    for targets in TARGETS
    for horizon in HORIZONS
]


def digest(case: str) -> str:
    scope, targets, horizon = case.split("-", 2)
    h = hashlib.sha256()
    for seed in SEEDS:
        plan = FaultPlan.random(
            seed, float(horizon), **{scope: int(targets)}
        )
        for s in plan.specs:
            h.update(
                f"{seed}|{s.kind.value}|{s.slot}|{s.at.hex()}|"
                f"{s.factor.hex()}|{s.warmup.hex()}|{s.node}\n".encode()
            )
    return h.hexdigest()


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_fault_plans_match_golden(case):
    assert digest(case) == _golden()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as fh:
        json.dump({c: digest(c) for c in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
