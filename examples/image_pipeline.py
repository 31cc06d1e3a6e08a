#!/usr/bin/env python3
"""Image-processing pipeline — the paper's IMG benchmark end to end.

Processes a real (synthetic) image through the 11-kernel, 4-stream
pipeline of Fig. 6 with *functional execution on*: the output image is
numerically validated against a straight-line numpy composition, proving
the scheduler reordered work without changing results.

Run:  python examples/image_pipeline.py
"""

from repro.core.race import check_no_races
from repro.workloads import Mode, create_benchmark

SIDE = 256
GPU = "Tesla P100"


def main() -> None:
    print(f"IMG pipeline, {SIDE}x{SIDE} image on a simulated {GPU}")
    print("(blur x3, sobel x2, min/max/extend, unsharpen, combine x2)\n")

    results = {}
    for mode in (Mode.SERIAL, Mode.PARALLEL, Mode.HANDTUNED):
        bench = create_benchmark("img", SIDE, iterations=2, execute=True)
        run = bench.run(GPU, mode)
        results[mode] = run
        expected = [bench.reference(i) for i in range(bench.iterations)]
        ok = all(
            abs(a - b) <= 1e-3 * max(1.0, abs(b))
            for a, b in zip(run.results, expected)
        )
        print(
            f"  {mode.value:20s} {run.elapsed * 1e3:8.2f} ms"
            f"  streams={run.stream_count}"
            f"  results {'VALID' if ok else 'BROKEN'}"
        )

    check_no_races(results[Mode.PARALLEL].timeline)
    print("\nrace detector: no conflicting kernel overlaps found")

    speedup = (
        results[Mode.SERIAL].elapsed / results[Mode.PARALLEL].elapsed
    )
    print(f"parallel-scheduler speedup over serial: {speedup:.2f}x")

    ht = results[Mode.HANDTUNED].elapsed
    auto = results[Mode.PARALLEL].elapsed
    print(
        f"automatic scheduling vs hand-tuned events: {ht / auto:.2f}x"
        " (>= 1.0 means the automatic scheduler matched the expert)"
    )

    print("\nparallel timeline (4 streams, cf. Fig. 6):")
    print(results[Mode.PARALLEL].timeline.render_ascii(width=100))


if __name__ == "__main__":
    main()
