"""One timed process of the benchmark: set up one workload, optionally run it.

Usage: python3 perfbench/child.py --workload W --seed N --out DIR [--trace] [--setup-only]

Prints one JSON line: ``ready`` (perf_counter when the inputs were ready,
comparable with the parent's clock on Linux), the verdicts, and with
``--trace`` the per-layer metrics.  Run from the checkout root by run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import polysimplex

    if Path(polysimplex.__file__).resolve().parent != ROOT / "src" / "polysimplex":
        print(f"polysimplex imported from {polysimplex.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import ALL

    workload = ALL[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.setup(args.seed, args.out)
    ready = perf_counter()
    result = {"ready": ready}
    try:
        if not args.setup_only:
            result["verdicts"] = workload.run(inputs)
    finally:
        workload.cleanup(inputs)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
