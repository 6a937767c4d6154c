"""Command-line entry point.

Commands: gen-eq, compile, verify, set-verify, set-enumerate, construct,
demo, catalog.  Exit status: 0 success / equation holds, 1 verification
failure or a constructed solution failing its own check, 2 configuration
or shape error.  The default scalar context comes
from the POLYSIMPLEX_SCALAR environment variable ("rational", "f64" or
"gfp:<p>").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from itertools import product
from math import factorial, prod

from . import construct as C
from .hopf import (
    GroupTable,
    InvalidGroup,
    check_axioms,
    cyclic_group,
    direct_product,
    group_algebra,
    symmetric_group,
)
from .indices import (
    mixed_equation,
    mixed_indices,
    polygon_equation,
    polygon_indices,
    simplex_equation,
    simplex_indices,
)
from .rings import RingError, ring_from_tag
from .setmaps import FiniteMap, check_polygon_set, enumerate_set_solutions
from .simplicial import (
    ProgramError,
    compile_mixed,
    compile_polygon,
    compile_simplex,
    flatten,
    program_to_dot,
)
from .tensor import NotInvertible, ShapeError, Tensor, _is_count, partial_trace_left
from .verify import (
    MAX_COLUMNS as MAX_COLUMNS,
    PreconditionFailed,
    SelfCheckFailed,
    VerificationReport,
    check_commutes,
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
    compare_sides,
    polygon_signature,
    require_columns,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(ValueError):
    pass


def default_ring():
    return ring_from_tag(os.environ.get("POLYSIMPLEX_SCALAR", "rational"))


@contextmanager
def malformed(what: str, source: str):
    """Outside data is read in this context: undecodable bytes, nesting past
    the interpreter's recursion limit or a document of the wrong structure
    is a usage error, not a crash."""
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError, IndexError, RecursionError) as exc:
        raise UsageError(f"malformed {what} in {source}: {exc}") from exc


def read_json(path: str | None, parse, what: str):
    """``parse`` applied to the JSON document at ``path``; a missing path
    or a malformed document is a usage error."""
    if path is None:
        raise UsageError(f"missing {what} path")
    with open(path, encoding="utf-8") as fh, malformed(what, path):
        return parse(json.load(fh))


def load_group(spec: str, admit=lambda order: None) -> GroupTable:
    """The group ``spec`` names.  ``admit(order)`` may refuse it once its
    order is known: a named group before its Cayley table is built and
    validated, a JSON group once it is read."""
    if spec == "v4":
        admit(4)
        return direct_product(cyclic_group(2), cyclic_group(2))
    if spec[:1] in ("z", "s") and spec[1:].isdecimal():
        # Refused before the Cayley table is built, and s_n (n! >= n) of a
        # large n before n! is computed.
        n, subject = int(spec[1:]), f"the associativity check of {spec} runs"
        require_columns(n, 3, subject if spec[0] == "z" else f"{subject} at least")
        if spec[0] == "z":
            admit(n)
            return cyclic_group(n)
        require_columns(factorial(n), 3, subject)
        admit(factorial(n))
        return symmetric_group(n)
    group = read_json(spec, GroupTable.from_json_dict, "group")
    admit(group.order)
    return group


def load_tensor(path: str | None) -> Tensor:
    """The tensor at ``path``, refused over ``dim ** in_legs`` columns above
    the cap: every use of a map runs at least its columns."""
    t = read_json(path, Tensor.from_json_dict, "tensor")
    require_columns(t.dim, t.in_legs, f"the tensor in {path} has")
    return t


def load_descriptor(path: str | None, admit=lambda family, order, dim: None) -> C.SolutionDescriptor:
    """The solution descriptor at ``path``, with its tensor capped as by
    :func:`load_tensor`.  The cap and ``admit(family, order, dim)``, which
    may refuse the descriptor, run on its header, before its tensor is
    built; a header of the wrong types is left to the full parse, which
    names the field."""
    what = "solution descriptor"
    data = read_json(path, lambda data: data, what)
    with malformed(what, path):
        family, order, tensor = data["family"], data["order"], data["tensor"]
        dim, in_legs = tensor["dim"], tensor["in_legs"]
    if _is_count(dim) and _is_count(in_legs):
        require_columns(dim, in_legs, f"the tensor of the descriptor in {path} has")
        if family in C.FAMILIES and _is_count(order):
            admit(family, order, dim)
    with malformed(what, path):
        return C.SolutionDescriptor.from_json_dict(data)


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(report: VerificationReport, path: str | None) -> None:
    if path:
        write_json(path, report.to_json_dict())


# -- gen-eq --------------------------------------------------------------------


# Every family prints on the order of n^2 index entries, about 10 MB of
# text for the 1000-simplex; larger orders would need gigabytes.
GEN_EQ_MAX_N = 1000

# Equation orders that compile, verify and set-verify accept, and the legs
# a map of a commutation check may have on each side.  Compiling grows faster
# than the cube of the order whatever the dimension, so the column cap never
# stops a 1-dimensional map: verifying the widest family, the simplex
# equation, compile included, takes about 0.26 s at n = 60 (1830 legs),
# 1.4 s at n = 100 and 18 s at n = 200 (2 vCPU Xeon, Python 3.11.7).
MAX_ORDER = 60

def require_order(n: int) -> None:
    """Refuse an equation order above the cap, before compiling it."""
    if n > MAX_ORDER:
        raise UsageError(f"equation order {n} is over the cap of {MAX_ORDER}")


def require_recipe(family: str, order: int, dim: int, verify: bool, what: str = "recipe") -> None:
    """Refuse a recipe over the caps before it builds: an order over the
    order cap (a 1-dimensional map has one column at every order, and
    building or checking it grows with about the cube of the order); with
    ``verify``, its self-check, the ``family`` equation of ``order`` on
    ``dim`` (``"mixed"``: the mixed relation), over the column cap;
    without, the map it builds, ``dim ** in_legs`` columns.  Orders below
    the family's first are left to the recipe, which refuses them."""
    simplex, dual = family == "simplex", family == "dual-polygon"
    if order < (1 if simplex else 3):
        return
    require_order(order)
    if verify:
        compiled = {"simplex": compile_simplex, "mixed": compile_mixed}.get(family, lambda n: compile_polygon(n, dual))
        require_columns(dim, len(compiled(order)[0].free_inputs))
    else:
        require_columns(dim, order if simplex else polygon_signature(order, dual)[0], f"the {what} maps")


def cmd_gen_eq(args) -> int:
    n = args.n
    if n > GEN_EQ_MAX_N:
        raise UsageError(f"gen-eq is limited to n <= {GEN_EQ_MAX_N}")
    if args.family == "polygon" or args.family == "dual-polygon":
        a, b = polygon_indices(n)
        matrices = {"A": a.as_lists(), "B": b.as_lists()}
        line = polygon_equation(n, dual=args.family == "dual-polygon")
    elif args.family == "simplex":
        matrices = {"A": simplex_indices(n).as_lists()}
        line = simplex_equation(n)
    elif args.family == "mixed":
        d, e, f, g = mixed_indices(n)
        matrices = {
            "D": d.as_lists(),
            "E": e.as_lists(),
            "F": f.as_lists(),
            "G": g.as_lists(),
        }
        line = mixed_equation(n)
    else:
        raise UsageError(f"unknown family {args.family}")
    if args.format == "json":
        print(json.dumps({"family": args.family, "n": n, "equation": line, "matrices": matrices}, sort_keys=True))
    else:
        print(line)
        for name, rows in matrices.items():
            print(f"{name} = {rows}")
    return 0


# -- compile -------------------------------------------------------------------


def cmd_compile(args) -> int:
    require_order(args.n)
    if args.family in ("polygon", "dual-polygon"):
        lhs, rhs = compile_polygon(args.n, dual=args.family == "dual-polygon")
    elif args.family == "simplex":
        lhs, rhs = compile_simplex(args.n)
    elif args.family == "mixed":
        lhs, rhs = compile_mixed(args.n)
    else:
        raise UsageError(f"unknown family {args.family}")
    if args.emit == "dot":
        print(program_to_dot(lhs, "lhs"))
        print(program_to_dot(rhs, "rhs"))
        return 0
    if args.emit == "placements":
        data = {
            "lhs": [[tag, list(row)] for tag, row in flatten(lhs)],
            "rhs": [[tag, list(row)] for tag, row in flatten(rhs)],
        }
        print(json.dumps(data, sort_keys=True))
        return 0
    data = {}
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        data[name] = {
            "steps": [
                {
                    "map": step.tag,
                    "simplex": list(step.face),
                    "inputs": [list(l) for l in step.inputs],
                    "outputs": [list(l) for l in step.outputs],
                }
                for step in side.steps
            ],
            "free_inputs": [list(l) for l in side.free_inputs],
            "free_outputs": [list(l) for l in side.free_outputs],
        }
    print(json.dumps(data, sort_keys=True))
    return 0


# -- verify --------------------------------------------------------------------


def _with_tolerance(tensor: Tensor, tolerance: float) -> Tensor:
    from .rings import FloatRing

    if tensor.ring.tag != "f64":
        raise UsageError("--tolerance is only valid with float (f64) tensors")
    return Tensor(
        tensor.dim, tensor.in_legs, tensor.out_legs, tensor.entries, FloatRing(tolerance)
    )


def cmd_verify(args) -> int:
    first = load_tensor(args.tensor)
    second = load_tensor(args.tensor2) if args.tensor2 else None
    if args.tolerance is not None:
        first = _with_tolerance(first, args.tolerance)
        if second is not None:
            second = _with_tolerance(second, args.tolerance)
    if args.family in ("polygon", "dual-polygon", "simplex", "mixed"):
        require_order(args.n)
    if args.family in ("polygon", "dual-polygon"):
        report = check_polygon(first, args.n, args.family == "dual-polygon")
    elif args.family == "simplex":
        report = check_simplex(first, args.n)
    elif args.family == "mixed":
        if second is None:
            raise UsageError("mixed verification needs --tensor2 for the dual solution")
        report = check_mixed(first, second, args.n)
    elif args.family == "commutes":
        if second is None:
            raise UsageError("commutation check needs --tensor2")
        widest = max(first.in_legs, first.out_legs, second.in_legs, second.out_legs)
        if widest > MAX_ORDER:
            raise UsageError(f"commutation maps have up to {widest} legs on a side, over the cap of {MAX_ORDER}")
        report = check_commutes(first, second)
    elif args.family == "relations":
        if second is None:
            raise UsageError("relations check needs --tensor2")
        report = check_relations_1_6(first, second)
    else:
        raise UsageError(f"unknown family {args.family}")
    emit_report(report, args.report)
    print(f"{report.equation}: {'holds' if report.holds else 'FAILS'}")
    if not report.holds and report.witness:
        print(f"witness: {json.dumps(report.witness, sort_keys=True)}")
    return 0 if report.holds else CHECK_FAILED


def cmd_set_verify(args) -> int:
    fmap = read_json(args.map, FiniteMap.from_json_dict, "finite map")
    require_order(args.n)
    report = check_polygon_set(fmap, args.n, args.family == "dual-polygon")
    emit_report(report, args.report)
    print(f"{report.equation}: {'holds' if report.holds else 'FAILS'}")
    return 0 if report.holds else CHECK_FAILED


def cmd_set_enumerate(args) -> int:
    found = enumerate_set_solutions(args.n, args.base, dual=args.family == "dual-polygon")
    if args.format == "json":
        print(json.dumps([f.to_json_dict() for f in found], sort_keys=True))
    else:
        print(f"{len(found)} solution(s)")
        for f in found:
            print(json.dumps(f.to_json_dict()["table"], sort_keys=True))
    return 0


# -- construct -----------------------------------------------------------------


def _descriptor_out(args, desc_or_pair) -> int:
    if isinstance(desc_or_pair, tuple):
        data = {
            "first": desc_or_pair[0].to_json_dict(),
            "second": desc_or_pair[1].to_json_dict(),
        }
    else:
        data = desc_or_pair.to_json_dict()
    if args.out:
        write_json(args.out, data)
    else:
        print(json.dumps(data, sort_keys=True))
    return 0


def cmd_construct(args) -> int:
    with malformed("JSON", "--params"):
        params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    verify = not args.no_verify
    ring = default_ring()
    recipe = args.recipe

    def group():
        if not args.group:
            raise UsageError(f"recipe {recipe} needs --group")
        return load_group(args.group)

    def integer(name: str, default: int) -> int:
        value = params.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"params.{name} must be an integer, got {value!r}")
        return value

    def boolean(name: str) -> bool:
        value = params.get(name, False)
        if not isinstance(value, bool):
            raise UsageError(f"params.{name} must be true or false, got {value!r}")
        return value

    def string(name: str, default: str) -> str:
        value = params.get(name, default)
        if not isinstance(value, str):
            raise UsageError(f"params.{name} must be a string, got {value!r}")
        return value

    if recipe == "hopf-pentagon-pair":
        return _descriptor_out(args, C.hopf_pentagon_pair(group_algebra(group(), ring), verify))
    if recipe == "bialgebra-tower":
        n, dual, g = integer("n", 5), boolean("dual"), group()
        require_recipe("dual-polygon" if dual else "polygon", n, g.order, verify, "tower")
        return _descriptor_out(args, C.bialgebra_tower(n, group_algebra(g, ring), dual, verify))
    if recipe == "multi-bialgebra-tower":
        groups = params.get("groups")
        if not (isinstance(groups, list) and groups and all(isinstance(g, str) for g in groups)):
            raise UsageError("multi-bialgebra-tower needs params.groups, a list of group names")
        k, even, tables = integer("k", 2), boolean("even"), [load_group(g) for g in groups]
        require_recipe("polygon", 2 * k if even else 2 * k + 1, prod(g.order for g in tables), verify, "tower")
        instances = [group_algebra(g, ring) for g in tables]
        return _descriptor_out(args, C.multi_bialgebra_tower(k, instances, even, verify))
    if recipe == "hopf-mixed-pair-antipode":
        k, g = integer("k", 2), group()
        require_recipe("polygon", 2 * k + 1, g.order, verify, "tower")
        return _descriptor_out(args, C.hopf_mixed_pair_antipode(k, group_algebra(g, ring), verify))
    if recipe == "higher-mixed-pair":
        t = load_tensor(args.input)
        s = load_tensor(args.input2)
        k = integer("k", 2)
        require_recipe("polygon", 2 * k + 3, t.dim, verify, "tower")
        return _descriptor_out(args, C.higher_mixed_pair(k, t, s, verify))
    if recipe == "yang-baxter":
        t = load_tensor(args.input)
        s = load_tensor(args.input2)
        mode = string("mode", "compose")
        # The self-check is the 2-simplex on V, or on V(x)V for the four-factor map.
        require_recipe("simplex", 2, t.dim**2 if mode == "four_factor" else t.dim, verify)
        return _descriptor_out(args, C.yang_baxter_from_pair(t, s, mode, verify))
    # descriptor-consuming transforms, each gated on the (family, order) it checks
    if not args.input:
        raise UsageError(f"recipe {recipe} needs --input (a descriptor JSON)")
    swap = {"polygon": "dual-polygon", "dual-polygon": "polygon"}
    drop = string("drop", "one") if recipe == "simplex-from-mixed" else None
    checks = {
        "invert-to-dual": lambda family, n: (swap.get(family, family), n),
        "conjugate": lambda family, n: (family, n),
        "bar-sigma-conjugate": lambda family, n: (swap.get(family, family) if n % 2 else family, n),
        "trace-descend": lambda family, n: (family, n - 1 if family == "simplex" else n - 2),
        "trace-descend-mixed": lambda family, n: ("mixed", n - 2),
        "simplex-from-mixed": lambda family, n: ("simplex", n - 1 if drop == "one" else n - 2),
    }

    def admit(family: str, order: int, dim: int) -> None:
        if recipe in checks:
            require_recipe(*checks[recipe](family, order), dim, verify)

    first = load_descriptor(args.input, admit)
    if recipe == "invert-to-dual":
        return _descriptor_out(args, C.invert_to_dual(first, verify))
    if recipe == "conjugate":
        if not args.input2:
            raise UsageError("conjugate needs --input2 with the 1->1 map")
        return _descriptor_out(args, C.conjugate(first, load_tensor(args.input2), verify))
    if recipe == "bar-sigma-conjugate":
        return _descriptor_out(args, C.bar_sigma_conjugate(first, verify))
    if recipe == "trace-descend":
        return _descriptor_out(args, C.trace_descend(first, string("side", "left"), verify))
    if recipe == "trace-descend-mixed":
        second = load_descriptor(args.input2)
        out = C.trace_descend_mixed(first, second, string("side", "left"), verify)
        return _descriptor_out(args, out)
    if recipe == "stack":
        second, mode = load_descriptor(args.input2), string("mode", "compose_left")
        family, order = C.stack_arithmetic(first.family, first.order, second.family, second.order, mode)
        require_recipe(family, order, first.tensor.dim, verify)
        return _descriptor_out(args, C.stack(first, second, mode, verify))
    if recipe == "simplex-from-mixed":
        second = load_descriptor(args.input2)
        out = C.simplex_from_mixed(first, second, drop, verify)
        return _descriptor_out(args, out)
    raise UsageError(f"unknown recipe {recipe!r}")


# -- demo ----------------------------------------------------------------------


def _basis_action_lines(name: str, t: Tensor) -> list[str]:
    """Each basis column of ``t`` and its image, the terms in output order."""
    terms: dict = {}
    for (out, inp), v in sorted(t.entries.items()):
        scale = "" if t.ring.eq(v, t.ring.one) else f" * {t.ring.format(v)}"
        terms.setdefault(inp, []).append("(x)".join(f"e{d}" for d in out) + scale)
    lines = [f"{name} on basis vectors:"]
    for inp in product(range(t.dim), repeat=t.in_legs):
        lines.append("  " + "(x)".join(f"e{d}" for d in inp) + " -> " + (" + ".join(terms.get(inp, ())) or "0"))
    return lines


def cmd_demo(args) -> int:
    ring = default_ring()
    # The 4-simplex check on V^(x)10 is the widest; orders above 4 exceed the cap.
    legs = len(compile_simplex(4)[0].free_inputs)
    group = load_group(args.group, lambda order: require_columns(order, legs))
    h = group_algebra(group, ring)
    lines: list[str] = [f"pipeline over k[G] with |G| = {group.order}", ""]
    axioms = check_axioms(h)
    t_desc, s_desc = C.hopf_pentagon_pair(h, verify=False)
    r4 = C.simplex_from_mixed(t_desc, s_desc, drop="one", verify=False)
    r3_desc = C.simplex_from_mixed(t_desc, s_desc, drop="two", verify=False)
    yb = C.yang_baxter_from_pair(t_desc.tensor, s_desc.tensor, "compose", verify=False)
    yb4 = C.yang_baxter_from_pair(t_desc.tensor, s_desc.tensor, "four_factor", verify=False)

    results = [
        ("bialgebra axioms", axioms),
        ("pentagon for T", check_polygon(t_desc.tensor, 5)),
        ("dual pentagon for S", check_polygon(s_desc.tensor, 5, dual=True)),
        ("relations (1)-(6)", check_relations_1_6(t_desc.tensor, s_desc.tensor)),
        ("mixed relation at 5", check_mixed(t_desc.tensor, s_desc.tensor, 5)),
        ("4-simplex for R4", check_simplex(r4.tensor, 4)),
        ("3-simplex for R3", check_simplex(r3_desc.tensor, 3)),
        (
            "R3 equals left trace of R4",
            compare_sides("tensor equality", r3_desc.tensor, partial_trace_left(r4.tensor)),
        ),
        ("Yang-Baxter for S o T", check_simplex(yb.tensor, 2)),
        ("Yang-Baxter for the four-factor map", check_simplex(yb4.tensor, 2)),
    ]
    all_hold = True
    for name, report in results:
        status = "PASS" if report.holds else "FAIL"
        all_hold = all_hold and report.holds
        lines.append(f"check {name}: {status}")
    lines.append("")
    for name, tensor in (
        ("T", t_desc.tensor),
        ("S", s_desc.tensor),
        ("R3", r3_desc.tensor),
        ("R4", r4.tensor),
    ):
        lines.extend(_basis_action_lines(name, tensor))
        lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    if args.report:
        write_json(args.report, {name: rep.to_json_dict() for name, rep in results})
    return 0 if all_hold else CHECK_FAILED


# -- catalog -------------------------------------------------------------------


def build_catalog(max_n: int) -> dict:
    if max_n > 12:
        raise UsageError("catalog is limited to max-n <= 12")
    if max_n < 3:
        raise UsageError("catalog needs max-n >= 3")
    catalog = {"polygon": {}, "dual-polygon": {}, "simplex": {}, "mixed": {}}
    for n in range(3, max_n + 1):
        catalog["polygon"][str(n)] = polygon_equation(n)
        catalog["dual-polygon"][str(n)] = polygon_equation(n, dual=True)
    n = 1
    while 2 * n + 1 <= max_n:
        catalog["simplex"][str(n)] = simplex_equation(n)
        n += 1
    for n in range(3, max_n + 1, 2):
        catalog["mixed"][str(n)] = mixed_equation(n)
    return catalog


def cmd_catalog(args) -> int:
    catalog = build_catalog(args.max_n)
    if args.format == "json":
        print(json.dumps(catalog, sort_keys=True))
        return 0
    for family in ("polygon", "dual-polygon", "simplex", "mixed"):
        for n, line in catalog[family].items():
            label = f"{n}-gon" if family != "simplex" else f"{n}-simplex"
            prefix = "dual " if family == "dual-polygon" else ("mixed " if family == "mixed" else "")
            print(f"{prefix}{label}: {line}")
    return 0


# -- argument plumbing -----------------------------------------------------------


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every in-process call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="polysimplex",
        description="polygon / simplex tensor equations: generate, verify, construct",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-eq", help="print index matrices and the rendered equation")
    p.add_argument("--family", required=True, choices=["polygon", "dual-polygon", "simplex", "mixed"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_gen_eq)

    p = sub.add_parser("compile", help="compile an equation from simplex face combinatorics")
    p.add_argument("--family", required=True, choices=["polygon", "dual-polygon", "simplex", "mixed"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", default="program", choices=["program", "placements", "dot"])
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check tensors against an equation family")
    p.add_argument(
        "--family",
        required=True,
        choices=["polygon", "dual-polygon", "simplex", "mixed", "commutes", "relations"],
    )
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--tensor", required=True)
    p.add_argument("--tensor2")
    p.add_argument("--tolerance", type=float, help="absolute tolerance, f64 tensors only")
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("set-verify", help="check a finite map against a polygon equation")
    p.add_argument("--family", default="polygon", choices=["polygon", "dual-polygon"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_set_verify)

    p = sub.add_parser("set-enumerate", help="enumerate set-theoretic solutions")
    p.add_argument("--family", default="polygon", choices=["polygon", "dual-polygon"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_set_enumerate)

    p = sub.add_parser("construct", help="run a solution-producing recipe")
    p.add_argument("--recipe", required=True)
    p.add_argument("--group", help="z<n>, s<n>, v4, or a group JSON path")
    p.add_argument("--input", help="descriptor or tensor JSON path")
    p.add_argument("--input2", help="second descriptor/tensor JSON path")
    p.add_argument("--params", help="recipe parameters as a JSON object")
    p.add_argument("--out", help="write the result JSON here instead of stdout")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("demo", help="full pentagon-to-simplex pipeline over a group algebra")
    p.add_argument("--group", default="z2")
    p.add_argument("--out", help="write the text report here as well")
    p.add_argument("--report", help="write the JSON check reports here")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("catalog", help="render the equation catalog")
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (
        UsageError,
        ShapeError,
        ProgramError,
        PreconditionFailed,
        NotInvertible,
        InvalidGroup,
        RingError,
        FileNotFoundError,
        IsADirectoryError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SelfCheckFailed as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except BrokenPipeError:
        # The reader closed stdout early; point it at devnull so the
        # interpreter's final flush of what is buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
