"""Fast self-test of the benchmark harness (about half a minute).

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

For each workload's Z2 or base-2 analogue it runs the workload once
untraced and twice traced, and checks that
  - every verdict matches its expected value, identically in all three runs;
  - tracing changes no count: the per-layer counts of both traced runs agree;
  - the layer self times sum to no more than the traced wall time;
  - run.py reports every metric BENCHMARK.json names, traced and untraced.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run

sys.path.insert(0, str(run.ROOT / "src"))
from workloads import ANALOGUES  # noqa: E402  (needs the sources on sys.path)

SEED = 7


def check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    deadline = perf_counter() + run.DEADLINE_S
    samples = [run.launch(name, SEED, deadline, trace=trace) for trace in (False, True, True)]
    if None in samples:
        return [f"{name}: a sample process failed"]
    plain, traced, again = samples
    verdicts = [s.result["verdicts"] for s in samples]
    if any(v != verdicts[0] for v in verdicts):
        problems.append(f"{name}: verdicts differ between traced and untraced runs")
    problems += [f"{name}: {label} got {got!r}, expected {want!r}" for label, got, want in verdicts[0] if got != want]
    counts = {k: v for k, v in traced.result["layers"].items() if run.unit_of(k) != "s"}
    if counts != {k: again.result["layers"][k] for k in counts}:
        problems.append(f"{name}: counts differ between two traced runs")
    self_total = sum(v for k, v in traced.result["layers"].items() if k.endswith(".self_s"))
    if self_total > traced.wall:
        problems.append(f"{name}: layer self times {self_total:.3f} s exceed traced wall {traced.wall:.3f} s")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, _, ok, _ = run.measure(name, SEED, 0.0, trace, deadline)
        missing = {m["name"] for m in bench[key]} - set(metrics or {})
        if missing or not ok:
            problems.append(f"{name}: trace={int(trace)} ok={ok}, missing metrics {sorted(missing)}")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for full, (name, _) in ANALOGUES.items():
        start = perf_counter()
        found = check_workload(name, bench)
        problems += found
        print(f"{name} (analogue of {full}): {'ok' if not found else 'FAILED'} in {perf_counter() - start:.1f} s")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
