"""Frozen inputs of the serving traffic mixes at their serving scales.

``workload_golden.json`` pins the generated task graphs at the test
scales; this pins every ``ArrayDecl.init`` of
``traffic_mix_graphs(6, mix, seed=7)`` for both mixes at
``SERVING_SCALES`` (VEC 120k, B&S 60k, ML 4000 x 200): per array its
sha256, dtype, shape and writeable flag.

Regenerate (only on a commit whose served inputs are the reference)::

    PYTHONPATH=src python tests/workloads/test_serving_inputs_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.serve.workloads import TRAFFIC_MIXES, traffic_mix_graphs

COUNT = 6
SEED = 7

GOLDEN = pathlib.Path(__file__).with_name("serving_inputs_golden.json")


def _inputs(mix: str) -> list[dict]:
    return [
        {
            "name": graph.name,
            "arrays": {
                name: {
                    "sha256": hashlib.sha256(
                        np.ascontiguousarray(decl.init).tobytes()
                    ).hexdigest(),
                    "dtype": str(decl.init.dtype),
                    "shape": list(decl.init.shape),
                    "writeable": decl.init.flags.writeable,
                }
                for name, decl in graph.arrays.items()
            },
        }
        for graph in traffic_mix_graphs(COUNT, mix, seed=SEED)
    ]


@pytest.mark.parametrize("mix", sorted(TRAFFIC_MIXES))
def test_served_inputs(mix):
    golden = json.loads(GOLDEN.read_text())
    assert _inputs(mix) == golden[mix]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    golden = {mix: _inputs(mix) for mix in sorted(TRAFFIC_MIXES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
