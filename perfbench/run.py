"""polysimplex benchmark: end-to-end metrics per workload, or the per-layer split.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload demo-z3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Every timed sample is a fresh ``python3 perfbench/child.py`` process, so a
sample is what a user waits for: interpreter start, ``import polysimplex``,
input construction, the work, exit.  Samples run serially (closed loop, one
client) while another one fits in ``--seconds``; there is at least one.

``--trace 0`` reports, as medians over the samples of the run:
  wall_s       launch to exit of one sample process
  cpu_s        user + system CPU time of that process (from wait4)
  setup_s      launch until the inputs are ready, over set-up-only
               processes interleaved with the samples and the samples
  peak_rss_mb  maximum resident set size of that process
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (see tracing.py), the traced wall
time, and the tracing overhead: traced minus untraced median wall time.

Every verdict is checked against its expected value; ``failed`` counts the
mismatches among ``attempted`` operations, so fail_frac = failed / attempted.
The last line of stdout is one JSON object.  Machine facts and a readable
table come on the lines before it; both also go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("demo-z3", "mixed7-z3", "set-enum", "set-verify-z3")
FIRST_SETUPS = 6  # set-up-only processes before the first sample; one before each later sample
DEADLINE_S = 170.0  # a run of one workload ends within 180 s, even when the program hangs

UNITS = {"peak_rss_mb": "MB", "setmaps.hit_ratio": "ratio", "fail_frac": "ratio"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


class Sample:
    """One finished child process: its timings and what it printed."""

    def __init__(self, wall: float, cpu: float, rss_mb: float, setup: float, result: dict):
        self.wall, self.cpu, self.rss_mb, self.setup, self.result = wall, cpu, rss_mb, setup, result


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def launch(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> Sample | None:
    """Run one child process; None when it failed, was killed or printed no result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--out", str(OUT)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", POLYSIMPLEX_SCALAR="rational")
    # Bytecode is cached in the checkout, as for an installed package; the
    # warm-up process writes it, so no timed process compiles sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    try:
        data = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child alone
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(data.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"{workload}: child printed no result", file=sys.stderr)
        return None
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, result["ready"] - start, result)


class Tally:
    """Operations attempted and failed over the samples of one workload."""

    def __init__(self, workload: str):
        self.workload, self.attempted, self.failed, self.per_sample = workload, 0, 0, 1

    def add(self, sample: Sample | None) -> None:
        if sample is None:
            # A crashed or killed sample fails every operation it should have done.
            self.attempted += self.per_sample
            self.failed += self.per_sample
            return
        verdicts = sample.result["verdicts"]
        self.per_sample = len(verdicts)
        self.attempted += len(verdicts)
        for label, got, expected in verdicts:
            if got != expected:
                self.failed += 1
                print(f"{self.workload}: {label}: got {got!r}, expected {expected!r}", file=sys.stderr)


def layer_metrics(workload: str, traced: list[Sample], plain: list[Sample]) -> tuple[dict, bool]:
    """Per-layer metrics: median times, counts that must repeat exactly."""
    layers = [s.result["layers"] for s in traced]
    metrics, steady = {}, True
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if unit_of(name) == "s":
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            print(f"{workload}: {name} differs between traced samples: {values}", file=sys.stderr)
            steady = False
        metrics[name] = values[0]
    metrics["trace.wall_s"] = statistics.median(s.wall for s in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(s.wall for s in plain)
    return metrics, steady


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Sample one workload for ``seconds``; returns (metrics or None, tally, ok, record)."""
    tally = Tally(workload)
    launch(workload, seed, deadline, setup_only=True)  # warm-up: bytecode and page cache
    setups, plain, traced = [], [], []
    ok = True
    end = perf_counter() + seconds
    while True:
        if plain:
            # Start another sample only if one like the last fits in the run.
            last = plain[-1].wall + (traced[-1].wall if trace else 0.0)
            if perf_counter() + last > min(end, deadline):
                break
        if not trace:
            for _ in range(1 if plain else FIRST_SETUPS):
                sample = launch(workload, seed, deadline, setup_only=True)
                ok = ok and sample is not None
                setups += [sample.setup] if sample else []
        sample = launch(workload, seed, deadline)
        tally.add(sample)
        if sample is None:
            break
        plain.append(sample)
        if trace:
            sample = launch(workload, seed, deadline, trace=True)
            tally.add(sample)
            if sample is None:
                break
            traced.append(sample)
    ok = ok and tally.failed == 0
    metrics = None
    if trace and traced:
        metrics, steady = layer_metrics(workload, traced, plain)
        ok = ok and steady
    elif plain and not trace:
        metrics = {
            "wall_s": statistics.median(s.wall for s in plain),
            "cpu_s": statistics.median(s.cpu for s in plain),
            "setup_s": statistics.median(setups + [s.setup for s in plain]),
            "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
        }
    record = {
        "samples": [
            {"traced": s in traced, "wall_s": s.wall, "cpu_s": s.cpu, "setup_s": s.setup, "peak_rss_mb": s.rss_mb}
            for s in plain + traced
        ],
        "setup_only_s": setups,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return metrics, tally, ok, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOAD_NAMES)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polysimplex" / "__init__.py").is_file():
        print(f"error: no polysimplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import ALL

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if any(name not in ALL for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    correct, attempted, failed, metrics, records = True, 0, 0, {}, {}
    for name in names:
        deadline = perf_counter() + DEADLINE_S
        got, tally, ok, records[name] = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        if got is None:
            print(f"error: {name} produced no complete sample", file=sys.stderr)
            return 1
        correct = correct and ok
        attempted += tally.attempted
        failed += tally.failed
        print(f"{name}: fail_frac {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted} operations)")
        for metric, value in got.items():
            print(f"{name}: {metric} {value:.6g} {unit_of(metric)}")
        if len(names) > 1:
            got = dict(got, fail_frac=tally.failed / tally.attempted)
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": unit_of(m)} for m, v in got.items()})
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "args": vars(args), "workloads": records, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
