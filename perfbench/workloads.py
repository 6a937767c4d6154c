"""The benchmark's workloads: inputs made from a seed, the run, the expected results.

Each workload runs in one process, serially.  ``setup`` builds the inputs
(this is what ``setup_s`` times, after the interpreter start and
``import polysimplex``); ``run`` does the timed work and returns one
verdict per operation as ``(label, got, expected)``.  An operation is one
check verdict, one enumeration count or one exit code.

The seed only relabels generated inputs: the mixed pair and the set maps
are conjugated by a seeded permutation of the basis, which preserves every
equation they satisfy and the volume of work.  ``demo-z3`` and ``set-enum``
are fixed by their argv and ignore the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import polysimplex as ps
from polysimplex import cli


def basis_permutation(seed: int, d: int) -> tuple[int, ...]:
    return tuple(random.Random(seed).sample(range(d), d))


def relabel_tensor(t: ps.Tensor, perm) -> ps.Tensor:
    """Conjugate t by the basis permutation perm on every leg."""
    entries = {
        (tuple(perm[x] for x in out), tuple(perm[x] for x in inp)): v
        for (out, inp), v in t.entries.items()
    }
    return ps.Tensor(t.dim, t.in_legs, t.out_legs, entries, t.ring)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in this process; return exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    def cleanup(self, inputs) -> None:
        """Remove what ``setup`` wrote; most workloads write nothing."""


class Demo(Workload):
    """``polysimplex demo --group <g>``: the full pentagon-to-simplex pipeline."""

    checks = 10

    def __init__(self, group: str):
        self.group = group

    def setup(self, seed: int, scratch: str):
        return ["demo", "--group", self.group]

    def run(self, argv):
        code, out = run_cli(argv)
        statuses = [line.rsplit(": ", 1)[-1] for line in out.splitlines() if line.startswith("check ")]
        verdicts = [("exit", code, 0)]
        for i in range(max(self.checks, len(statuses))):
            got = statuses[i] if i < len(statuses) else None
            verdicts.append((f"check {i + 1}", got, "PASS" if i < self.checks else None))
        return verdicts


class Mixed7(Workload):
    """Acceptance criterion 4's sequence over k[Z_m]: stacked mixed 7-gon pair, trace descent."""

    def __init__(self, order: int):
        self.order = order

    def setup(self, seed: int, scratch: str):
        h = ps.group_algebra(ps.cyclic_group(self.order))
        t_desc, s_desc = ps.hopf_pentagon_pair(h, verify=False)
        perm = basis_permutation(seed, h.dim)
        return relabel_tensor(t_desc.tensor, perm), relabel_tensor(s_desc.tensor, perm)

    def run(self, pair):
        t, s = pair
        t7, s7 = ps.higher_mixed_pair(2, t, s, verify=False)
        verdicts = [
            ("T7 order", t7.order, 7),
            ("S7 order", s7.order, 7),
            ("7-gon", ps.check_polygon(t7.tensor, 7).holds, True),
            ("dual 7-gon", ps.check_polygon(s7.tensor, 7, dual=True).holds, True),
            ("mixed 7", ps.check_mixed(t7.tensor, s7.tensor, 7).holds, True),
        ]
        t5, s5 = ps.trace_descend_mixed(t7, s7, verify=False)
        verdicts += [
            ("T5 order", t5.order, 5),
            ("S5 order", s5.order, 5),
            ("mixed 5", ps.check_mixed(t5.tensor, s5.tensor, 5).holds, True),
        ]
        return verdicts


# Solution counts for bases 1, 2, 3, as set-enumerate reports them when the benchmark
# was added (set-theoretic polygon solutions: Dimakis & Mueller-Hoissen, SIGMA 11 (2015) 042).
SET_COUNTS = {
    ("polygon", 3): (1, 3, 10),
    ("polygon", 4): (1, 7, 58),
    ("polygon", 5): (1, 24),
    ("dual-polygon", 3): (1, 3, 10),
    ("dual-polygon", 4): (1, 8, 113),
    ("dual-polygon", 5): (1, 24),
}


class SetEnum(Workload):
    """``polysimplex set-enumerate`` on every capped instance that finishes."""

    def __init__(self, max_base: int):
        self.instances = [
            (family, n, base, count)
            for (family, n), counts in SET_COUNTS.items()
            for base, count in enumerate(counts[:max_base], start=1)
        ]

    def setup(self, seed: int, scratch: str):
        return self.instances

    def run(self, instances):
        verdicts = []
        for family, n, base, count in instances:
            code, out = run_cli(["set-enumerate", "--family", family, "--n", str(n), "--base", str(base)])
            first = out.split(" ", 1)[0]
            label = f"{family} n={n} base={base}"
            verdicts.append((f"{label} exit", code, 0))
            verdicts.append((f"{label} count", int(first) if first.isdigit() else None, count))
        return verdicts


def finite_map(t: ps.Tensor, perm) -> ps.FiniteMap:
    """The set map of a 0/1 function tensor, conjugated by perm on X."""
    image = {inp: out for (out, inp) in t.entries}
    inverse = {p: x for x, p in enumerate(perm)}
    return ps.FiniteMap.from_callable(
        t.dim,
        t.in_legs,
        t.out_legs,
        lambda args: tuple(perm[x] for x in image[tuple(inverse[a] for a in args)]),
    )


class SetVerify(Workload):
    """``polysimplex set-verify`` on the bialgebra-tower n-gon and dual n-gon maps over Z_m."""

    def __init__(self, order: int, n: int = 9):
        self.order, self.n = order, n

    def setup(self, seed: int, scratch: str):
        h = ps.group_algebra(ps.cyclic_group(self.order))
        perm = basis_permutation(seed, h.dim)
        jobs = []
        for family in ("polygon", "dual-polygon"):
            tower = ps.bialgebra_tower(self.n, h, dual=family == "dual-polygon", verify=False)
            path = os.path.join(scratch, f"map-{os.getpid()}-{family}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(finite_map(tower.tensor, perm).to_json_dict(), fh)
            jobs.append((family, path))
        return jobs

    def run(self, jobs):
        verdicts = []
        for family, path in jobs:
            code, out = run_cli(["set-verify", "--family", family, "--n", str(self.n), "--map", path])
            verdicts.append((f"{family} exit", code, 0))
            verdicts.append((f"{family} verdict", out.strip().endswith(": holds"), True))
        return verdicts

    def cleanup(self, jobs):
        for _, path in jobs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


WORKLOADS = {
    "demo-z3": Demo("z3"),
    "mixed7-z3": Mixed7(3),
    "set-enum": SetEnum(max_base=3),
    "set-verify-z3": SetVerify(3),
}
# Cheap analogues with the same code paths, for the harness self-test.
ANALOGUES = {
    "demo-z3": ("demo-z2", Demo("z2")),
    "mixed7-z3": ("mixed7-z2", Mixed7(2)),
    "set-enum": ("set-enum-base2", SetEnum(max_base=2)),
    "set-verify-z3": ("set-verify-z2", SetVerify(2)),
}
ALL = {**WORKLOADS, **dict(ANALOGUES.values())}
