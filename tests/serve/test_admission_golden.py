"""Frozen behaviour of the admission queue under all three policies.

For every policy and seeds 0-23, one seeded random sequence of
``push``, ``pop``, ``peek``, ``take_matching`` (a predicate on tenant,
priority or graph tag, ``limit`` 0-4) and ``evict_lowest`` (``count``
0-4) drives a fresh queue.  Each operation's returned request ids and,
after it, ``len``, ``pending_by_tenant()`` and the non-zero
``admitted_counts`` feed one sha256 per (policy, seed).  The sequences
reach what the serving goldens do not: priority takes across levels,
evictions between takes and fair-share ties.

Regenerate (only on a commit whose admission queue is the reference)::

    PYTHONPATH=src python tests/serve/test_admission_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import numpy as np
import pytest

from repro.kernels.profile import LinearCostModel
from repro.serve import (
    AdmissionPolicy,
    AdmissionQueue,
    ArrayDecl,
    GraphRequest,
    KernelDecl,
    LaunchDecl,
    TaskGraph,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "admission_golden.json")

SEEDS = range(24)
OPS = 160
TENANTS = ("a", "b", "c")
PRIORITIES = (0, 1, 2)
TAGS = ("g0", "g1")
CASES = [f"{policy.value}-{seed}" for policy in AdmissionPolicy for seed in SEEDS]


def _noop(x, n):
    pass


def _graph(tag: str) -> TaskGraph:
    return TaskGraph(
        name=tag,
        arrays={"x": ArrayDecl("x", (8,), np.float32)},
        kernels=(
            KernelDecl("k", "ptr, sint32", _noop, LinearCostModel()),
        ),
        launches=(LaunchDecl("k", 1, 8, ("x", 8)),),
    )


GRAPHS = {tag: _graph(tag) for tag in TAGS}


def _predicate(rng: random.Random):
    field = rng.choice(("tenant", "priority", "tag"))
    if field == "tenant":
        tenant = rng.choice(TENANTS)
        return f"tenant={tenant}", lambda r: r.tenant == tenant
    if field == "priority":
        level = rng.choice(PRIORITIES)
        return f"priority>={level}", lambda r: r.priority >= level
    tag = rng.choice(TAGS)
    return f"tag={tag}", lambda r: r.graph.name == tag


def _ids(requests) -> str:
    return ",".join(str(r.request_id) for r in requests)


def digest(case: str) -> str:
    policy_value, seed = case.rsplit("-", 1)
    rng = random.Random(int(seed))
    q = AdmissionQueue(AdmissionPolicy(policy_value))
    h = hashlib.sha256()
    next_id = 1
    for _ in range(OPS):
        roll = rng.random()
        if roll < 0.45:
            r = GraphRequest(
                tenant=rng.choice(TENANTS),
                graph=GRAPHS[rng.choice(TAGS)],
                priority=rng.choice(PRIORITIES),
                # coarse arrivals: ties exercise the request-id
                # tie-break of the shed order
                arrival_time=rng.randrange(8) * 0.25,
                request_id=next_id,
            )
            next_id += 1
            q.push(r)
            line = f"push {r.request_id}"
        elif roll < 0.6:
            r = q.pop()
            line = f"pop {None if r is None else r.request_id}"
        elif roll < 0.75:
            r = q.peek()
            line = f"peek {None if r is None else r.request_id}"
        elif roll < 0.9:
            label, predicate = _predicate(rng)
            limit = rng.randrange(5)
            taken = q.take_matching(predicate, limit)
            line = f"take {label} {limit} [{_ids(taken)}]"
        else:
            count = rng.randrange(5)
            line = f"evict {count} [{_ids(q.evict_lowest(count))}]"
        pending = sorted(q.pending_by_tenant().items())
        admitted = sorted(
            (t, n) for t, n in q.admitted_counts.items() if n
        )
        h.update(f"{line}|{len(q)}|{pending}|{admitted}\n".encode())
    return h.hexdigest()


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_admission_matches_golden(case):
    assert digest(case) == _golden()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as fh:
        json.dump({c: digest(c) for c in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
