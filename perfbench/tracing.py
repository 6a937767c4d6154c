"""Per-layer tracing of polysimplex from outside the package.

The layers are the package's modules.  ``Tracer.install`` wraps the public
functions of each module (plus the few private or method entry points the
per-layer metrics name) and rebinds every alias of each original in every
module of the package, because modules import each other with
``from .tensor import compose``.  Nothing under ``src/`` changes.

A span is recorded around each wrapped call: name, start, end, parent.
Spans stay in memory until ``Tracer.write`` runs at the end of the traced
process.  Ring arithmetic and the set-theoretic staging step are counted
only: a per-call timer there would cost more than the call.  Bookkeeping
done after a call (counting entries of a result) is timed and charged to
no layer, so it shows up as tracing overhead instead of self time.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

LAYERS = ("cli", "construct", "hopf", "indices", "rings", "setmaps", "simplicial", "tensor", "verify")

# Public helpers called once per entry, row or face: spans there would
# dwarf the work.  Their time counts as self time of the caller.
FINE_GRAINED = {
    "tensor": {"digits_to_rank", "rank_to_digits", "replace_slots", "identity_permutation"},
    "indices": {"format_subscript"},
    "simplicial": {
        "standard_simplex", "face_delete", "facets", "even_faces", "odd_faces", "reverse_lex_sorted",
    },
}
# Private functions and methods that are layer entry points of their own.
EXTRA_SPANS = {
    "tensor": ("_place_entries", "Tensor.__post_init__", "Tensor.from_json_dict", "Tensor.to_json_dict"),
    "setmaps": ("FiniteMap.from_json_dict", "FiniteMap.to_json_dict"),
}
RING_OPS = ("add", "mul", "neg", "coerce", "is_zero")
RECIPES = {
    "hopf_pentagon_pair", "bialgebra_tower", "multi_bialgebra_tower", "hopf_mixed_pair_antipode",
    "higher_mixed_pair", "invert_to_dual", "conjugate", "bar_sigma_conjugate", "trace_descend",
    "trace_descend_mixed", "stack", "simplex_from_mixed", "yang_baxter_from_pair",
}
PLACEMENT = {"tensor:place", "tensor:place_std", "tensor:place_gathered", "tensor:_place_entries"}
COMPILE = {"simplicial:compile_polygon", "simplicial:compile_simplex", "simplicial:compile_mixed"}

COUNTS = (
    "construct.recipes", "rings.ops", "setmaps.candidates", "setmaps.solutions", "setmaps.staged_calls",
    "simplicial.steps", "tensor.deviation_keys", "tensor.entries_built", "tensor.max_nnz",
    "tensor.place_entries", "verify.checks", "verify.failed",
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.hidden: dict[int, float] = {}  # bookkeeping time inside span i, charged to no layer
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = end = perf_counter()
                stack.pop()
            if after is not None:
                after(idx, args, result)
                if parent >= 0:
                    self.hidden[parent] = self.hidden.get(parent, 0.0) + perf_counter() - end
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks (run outside the span, time charged to no layer) --------

    def _tensor_built(self, idx, args, result):
        nnz = len(args[0].entries)
        self.counts["tensor.entries_built"] += nnz
        if nnz > self.counts["tensor.max_nnz"]:
            self.counts["tensor.max_nnz"] = nnz

    def _placed(self, idx, args, result):
        self.counts["tensor.place_entries"] += len(result.entries)

    def _deviation(self, idx, args, result):
        self.counts["tensor.deviation_keys"] += len(args[0].entries.keys() | args[1].entries.keys())

    def _checked(self, idx, args, result):
        self.counts["verify.checks"] += 1
        self.counts["verify.failed"] += not result.holds

    def _evaluated(self, idx, args, result):
        self.counts["simplicial.steps"] += len(args[0].steps)

    def _recipe(self, idx, args, result):
        self.counts["construct.recipes"] += 1

    def _set_checked(self, idx, args, result):
        parent = self.parents[idx]
        if parent >= 0 and self.names[parent] == "setmaps:enumerate_set_solutions":
            self.counts["setmaps.candidates"] += 1
            self.counts["setmaps.solutions"] += result.holds

    def _hook(self, layer: str, name: str):
        if layer == "verify" and name.startswith("check_"):
            return self._checked
        if layer == "construct" and name in RECIPES:
            return self._recipe
        return {
            ("tensor", "Tensor.__post_init__"): self._tensor_built,
            ("tensor", "_place_entries"): self._placed,
            ("tensor", "deviation"): self._deviation,
            ("simplicial", "evaluate_program"): self._evaluated,
            ("setmaps", "check_polygon_set"): self._set_checked,
        }.get((layer, name))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of polysimplex and rebind all aliases."""
        modules = {layer: importlib.import_module(f"polysimplex.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            if layer == "rings":
                self._install_rings(module)
                continue
            skip = FINE_GRAINED.get(layer, set())
            for name, obj in list(vars(module).items()):
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                    and not name.startswith("_")
                    and name not in skip
                ):
                    replaced[id(obj)] = self.span(f"{layer}:{name}", obj, self._hook(layer, name))
            for dotted in EXTRA_SPANS.get(layer, ()):
                owner_name, _, attr = dotted.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = vars(owner)[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = self.span(f"{layer}:{dotted}", fn, self._hook(layer, dotted))
                    setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                else:
                    obj = getattr(module, dotted)
                    replaced[id(obj)] = self.span(f"{layer}:{dotted}", obj, self._hook(layer, dotted))
        setmaps = modules["setmaps"]
        replaced[id(setmaps.apply_staged)] = self.counted("setmaps.staged_calls", setmaps.apply_staged)
        for module in [importlib.import_module("polysimplex"), *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(module, name, replaced[id(obj)])

    def _install_rings(self, rings) -> None:
        for cls in vars(rings).values():
            if isinstance(cls, type) and issubclass(cls, rings.ScalarRing):
                for op in RING_OPS:
                    if op in vars(cls):
                        setattr(cls, op, self.counted("rings.ops", vars(cls)[op]))

    # -- aggregation -------------------------------------------------------

    def _outermost_total(self, members: set[str]) -> float:
        """Inclusive time of spans in ``members`` not nested in another member."""
        names, parents, total = self.names, self.parents, 0.0
        for i, name in enumerate(names):
            if name not in members:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in members:
                p = parents[p]
            if p < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def metrics(self) -> dict[str, float]:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        covered = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        for i, t in self.hidden.items():
            covered[i] += t
        self_s = dict.fromkeys((layer for layer in LAYERS if layer != "rings"), 0.0)
        build_s = 0.0
        for i, name in enumerate(names):
            own = ends[i] - starts[i] - covered[i]
            self_s[name.split(":", 1)[0]] += own
            if name == "tensor:Tensor.__post_init__":
                build_s += own
        out = {f"{layer}.self_s": t for layer, t in self_s.items()}
        out.update(
            {
                "tensor.build_s": build_s,
                "tensor.place_s": self._outermost_total(PLACEMENT),
                "tensor.compose_s": self._outermost_total({"tensor:compose"}),
                "tensor.deviation_s": self._outermost_total({"tensor:deviation"}),
                "simplicial.compile_s": self._outermost_total(COMPILE),
                "simplicial.evaluate_s": self._outermost_total({"simplicial:evaluate_program"}),
                "trace.spans": len(names),
            }
        )
        counts = dict(self.counts)
        solutions = counts.pop("setmaps.solutions")
        out.update(counts)
        out["setmaps.hit_ratio"] = solutions / counts["setmaps.candidates"] if counts["setmaps.candidates"] else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row))
                fh.write("\n")
