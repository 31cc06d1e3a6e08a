#!/usr/bin/env python3
"""ML ensemble — the paper's motivating pipeline (Figs. 2 and 10).

Runs the two-branch classifier ensemble (Naive Bayes + Ridge Regression)
under both schedulers, shows the inferred DAG, the two-stream execution
timeline with its transfer/compute overlaps, and the speedup.

Run:  python examples/ml_ensemble.py
"""

from repro.harness.figures import figure2
from repro.metrics import compute_overlaps
from repro.workloads import Mode, create_benchmark

SCALE = 200_000  # rows; 200 features, 10 classes (the paper's shape)
GPU = "GTX 1660 Super"


def main() -> None:
    serial = create_benchmark(
        "ml", SCALE, iterations=3, execute=False
    ).run(GPU, Mode.SERIAL)

    bench = create_benchmark("ml", SCALE, iterations=3, execute=False)
    parallel = bench.run(GPU, Mode.PARALLEL)

    print(f"ML ensemble on a simulated {GPU}, {SCALE:,} rows x 200 features")
    print(f"  serial scheduler   : {serial.elapsed * 1e3:9.2f} ms")
    print(f"  parallel scheduler : {parallel.elapsed * 1e3:9.2f} ms")
    print(f"  speedup            : {serial.elapsed / parallel.elapsed:9.2f}x")
    print(f"  streams used       : {parallel.stream_count}"
          " (one per classifier branch, as in Fig. 2)")

    overlaps = compute_overlaps(parallel.timeline).as_percentages()
    print("\noverlap analysis (section V-F):")
    for kind, pct in overlaps.items():
        print(f"  {kind:3s} overlap: {pct:5.1f} %")

    print("\nexecution timeline (Fig. 10):")
    print(parallel.timeline.render_ascii(width=100))

    # The scheduler inferred the Fig. 2 DAG automatically — show one
    # iteration's kernels with their streams and dependency edges,
    # labelled with the array that caused each one (Fig. 2's edge labels).
    dag = figure2("ml", GPU)
    assert dag.summary["streams"] == 2
    print()
    print(dag.render())


if __name__ == "__main__":
    main()
