"""Command-line entry point.

Commands: gen-eq, compile, verify, set-verify, set-enumerate, construct,
demo, catalog.  Exit status: 0 success / equation holds, 1 verification
failure or a constructed solution failing its own check, 2 configuration
or shape error.  The default scalar context comes
from the POLYSIMPLEX_SCALAR environment variable ("rational", "f64" or
"gfp:<p>").  ``construct`` looks each recipe up in
:data:`polysimplex.construct.RECIPES`, and gates it before anything is built.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from itertools import product
from math import factorial

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
from .rings import RingError, ring_from_tag
from .setmaps import FiniteMap, check_set, enumerate_set_solutions
from .simplicial import ProgramError, flatten, program_to_dot
from .tensor import NotInvertible, ShapeError, Tensor, _is_count, partial_trace_left
from .verify import (
    EQUATIONS,
    MAX_COLUMNS as MAX_COLUMNS,
    OverTheCap,
    PreconditionFailed,
    SelfCheckFailed,
    VerificationReport,
    check_equation,
    check_orders,
    check_relations_1_6,
    compare_sides,
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
    is a usage error, not a crash; a missing field is named as one.  A
    refusal over a cap passes through as it is: the input is well-formed."""
    try:
        yield
    except OverTheCap:
        raise
    except KeyError as exc:
        raise UsageError(f"malformed {what} in {source}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError, RecursionError) as exc:
        raise UsageError(f"malformed {what} in {source}: {exc}") from exc


def read_json(path: str, parse, what: str):
    """``parse`` applied to the JSON document at ``path``; a malformed
    document is a usage error."""
    with open(path, encoding="utf-8") as fh, malformed(what, path):
        return parse(json.load(fh))


def read_group(spec: str):
    """The order of the group ``spec`` names (``z<n>``, ``s<n>``, ``v4``),
    or of the group JSON at the path ``spec`` as read, before its Cayley
    table is built or validated, and a thunk that builds it.  A name is
    refused over the cap: s_n (n! >= n) of a large n before n! is computed,
    and a number of more than 3000 digits before it is converted."""
    if spec == "v4":
        return 4, lambda: direct_product(cyclic_group(2), cyclic_group(2))
    if not (spec[:1] in ("z", "s") and spec[1:].isdecimal()):
        return read_input(spec, "group")
    digits, subject = spec[1:].lstrip("0"), f"the associativity check of {spec} runs"
    at_least = subject if spec[0] == "z" else f"{subject} at least"
    if len(digits) > 3000:
        raise ShapeError(f"{at_least} {spec[1:]}^3 columns, over the cap of {MAX_COLUMNS}")
    n = int(digits or "0")
    require_columns(n, 3, at_least)
    if spec[0] == "z":
        return n, lambda: cyclic_group(n)
    require_columns(factorial(n), 3, subject)
    return factorial(n), lambda: symmetric_group(n)


def group_header(data, path: str) -> int:
    """The order of the group JSON ``data``, once its associativity check is under the cap."""
    order = len(data["table"])
    require_columns(order, 3, "the associativity check of the group runs")
    return order


def tensor_dim(tensor, subject: str) -> int | None:
    """The dim in the header of the tensor JSON ``tensor``, once its ``dim
    ** in_legs`` columns, which every use of the map runs, are under the
    cap; None for a header that is not a dim >= 1 and an in_legs >= 0."""
    dim, in_legs = tensor["dim"], tensor["in_legs"]
    if not (_is_count(dim) and _is_count(in_legs) and dim >= 1 and in_legs >= 0):
        return None
    require_columns(dim, in_legs, subject)
    return dim


def descriptor_header(data, path: str) -> tuple | None:
    """The ``(family, order, dim)`` of the solution descriptor JSON ``data``;
    None for a family and order that have no equation."""
    family, order = data["family"], data["order"]
    dim = tensor_dim(data["tensor"], f"the tensor of the descriptor in {path} has")
    if not (dim and family in C.FAMILIES and _is_count(order)):
        return None
    try:
        EQUATIONS[family].signatures(order)
    except ShapeError:
        return None
    return family, order, dim


# kind: the input's name in a refusal, its parse, and its header from the JSON and the path
INPUTS = {
    "tensor": ("tensor", Tensor.from_json_dict, lambda data, path: tensor_dim(data, f"the tensor in {path} has")),
    "descriptor": ("solution descriptor", C.SolutionDescriptor.from_json_dict, descriptor_header),
    "group": ("group", GroupTable.from_json_dict, group_header),
}


def read_input(path: str, kind: str):
    """The header of the ``kind`` JSON at ``path``, read before anything is
    built, and a thunk that builds it.  A header read as None is left to
    the parse, run at once, which refuses it."""
    what, parse, header = INPUTS[kind]
    data = read_json(path, lambda data: data, what)

    def build():
        with malformed(what, path):
            return parse(data)

    with malformed(what, path):
        found = header(data, path)
    if found is None:
        build()
    return found, build


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def require_writable(path: str) -> None:
    """Raise the error that opening the output ``path`` would raise when its
    parent is no directory, or when it names a directory (an existing one,
    or any path ending in a separator), before any work and creating nothing."""
    parent = os.path.dirname(path.rstrip(os.sep)) or os.curdir
    if not os.path.isdir(parent):
        try:
            os.listdir(parent)  # a parent that is a file, missing or unreadable raises as opening would
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    if path.endswith(os.sep) or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def print_verdict(report: VerificationReport, path: str | None) -> int:
    """Write the report to ``path``, if given, print the verdict and a
    failing check's witness, and return the exit code."""
    if path:
        write_json(path, report.to_json_dict())
    print(f"{report.equation}: {'holds' if report.holds else 'FAILS'}")
    if not report.holds and report.witness:
        print(f"witness: {json.dumps(report.witness, sort_keys=True)}")
    return 0 if report.holds else CHECK_FAILED


# -- gen-eq --------------------------------------------------------------------


# Every family prints on the order of n^2 index entries, about 10 MB of
# text for the 1000-simplex; larger orders would need gigabytes.
GEN_EQ_MAX_N = 1000

# Equation orders that compile, verify and set-verify accept, and the legs
# a map of a commutation check may have on each side.  Compiling grows faster
# than the cube of the order whatever the dimension, so the column cap never
# stops a 1-dimensional map: verifying the widest family, the simplex
# equation, compile included, takes about 0.3 s at n = 60 (1830 legs),
# 1.4 s at n = 100 and 18 s at n = 200 (2 vCPU Xeon, Python 3.11.7).
MAX_ORDER = 60


def require_order(family: str, order) -> None:
    """Refuse a check of the table over the order cap (the commutation by
    the legs of its widest map), before staging it."""
    width, refusal = EQUATIONS[family].width(order)
    if width > MAX_ORDER:
        raise UsageError(f"{refusal} of {MAX_ORDER}")


def require_recipe(recipe: C.Recipe, verify: bool, *headers, **params) -> None:
    """Refuse a recipe before it builds, from its inputs' headers and its
    parameters: first what its record refuses, with the recipe's own
    message, then what is over the caps.  With ``verify``, the first
    equation it checks over the order cap (a 1-dimensional map has one
    column at every order, and building or checking it grows with about the
    cube of the order) or the column cap, with the message the check
    prints; without, the map it builds, the entry naming T alone, by that
    order and its ``dim ** in_legs`` columns, then the preconditions it
    checks all the same."""
    checks = recipe.checks(*headers, **params)
    gates = [(check[:3], False) for check in checks if not verify and check[3] == ("T",)]
    gates += [(check[:3], True) for check in checks if verify or recipe.precondition(check[3])]
    for (family, order, dim), checked in gates:
        equation = EQUATIONS[family]
        require_order(family, order)
        if checked:
            require_columns(dim, equation.staged(order)[0])
        else:
            ((in_legs, _), *_) = equation.signatures(order)
            require_columns(dim, in_legs, f"the {recipe.what} maps")


def cmd_gen_eq(args) -> int:
    n = args.n
    if n > GEN_EQ_MAX_N:
        raise UsageError(f"gen-eq is limited to n <= {GEN_EQ_MAX_N}")
    indices, line = EQUATIONS[args.family].written(n)
    matrices = {name: [list(row) for row in rows] for name, rows in indices.items()}
    if args.format == "json":
        print(json.dumps({"family": args.family, "n": n, "equation": line, "matrices": matrices}, sort_keys=True))
    else:
        print(line)
        for name, rows in matrices.items():
            print(f"{name} = {rows}")
    return 0


# -- compile -------------------------------------------------------------------


def cmd_compile(args) -> int:
    require_order(args.family, args.n)
    lhs, rhs = EQUATIONS[args.family].compile(args.n)
    if args.emit == "dot":
        print(program_to_dot(lhs, "lhs"))
        print(program_to_dot(rhs, "rhs"))
        return 0
    # JSON writes the tuples of faces and rows as lists.
    if args.emit == "placements":
        print(json.dumps({"lhs": flatten(lhs), "rhs": flatten(rhs)}, sort_keys=True))
        return 0
    data = {
        name: {
            "steps": [{"map": s.tag, "simplex": s.face, "inputs": s.inputs, "outputs": s.outputs} for s in side.steps],
            "free_inputs": side.free_inputs,
            "free_outputs": side.free_outputs,
        }
        for name, side in (("lhs", lhs), ("rhs", rhs))
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
    equation = EQUATIONS[args.family]
    paths = [path for path in (args.tensor, args.tensor2) if path]
    if len(paths) < len(equation.tags):
        raise UsageError(f"{args.family} verification needs --tensor2 for its second map")
    if len(paths) > len(equation.tags):
        raise UsageError(f"{args.family} verification takes one map; --tensor2 is not used")
    # A compiled family's order is --n, refused before any file is read; the
    # commutation's comes from its maps' legs, and the relations are all six.
    if (args.n is None) == bool(equation.compile):
        raise UsageError(f"{args.family} verification {'needs' if equation.compile else 'takes no'} --n")
    if equation.compile:
        require_order(args.family, args.n)
        equation.signatures(args.n)  # refuses an order at which the family has no equation
    maps = [read_input(path, "tensor")[1]() for path in paths]
    if args.tolerance is not None:
        maps = [_with_tolerance(f, args.tolerance) for f in maps]
    orders = equation.orders(args.n, *maps)
    for order in orders:
        require_order(args.family, order)
    return print_verdict(check_orders(args.family, orders, *maps), args.report)


def cmd_set_verify(args) -> int:
    require_order(args.family, args.n)
    fmap = read_json(args.map, FiniteMap.from_json_dict, "finite map")
    return print_verdict(check_set(args.family, args.n, fmap), args.report)


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


PARAM_TYPES = {int: "an integer", bool: "true or false", str: "a string"}


def recipe_params(name: str, recipe: C.Recipe, text: str | None) -> dict:
    """The recipe's defaults, overridden by the JSON object ``text``, each
    of its default's type (a bool is no integer) unless that is None."""
    with malformed("JSON", "--params"):
        given = json.loads(text) if text else {}
    if not isinstance(given, dict):
        raise UsageError("--params must be a JSON object")
    for key, value in given.items():
        if key not in recipe.params:
            raise UsageError(f"params.{key} is not a parameter of {name} ({', '.join(recipe.params) or 'none'})")
        default = recipe.params[key]
        if default is not None and type(value) is not type(default):
            raise UsageError(f"params.{key} must be {PARAM_TYPES[type(default)]}, got {value!r}")
    return {**recipe.params, **given}


def cmd_construct(args) -> int:
    """Parse the parameters, read each input's header, gate, and only then
    build: the groups on the running product of their orders, every name
    and group JSON header read before any Cayley table is built."""
    name, recipe = args.recipe, C.RECIPES[args.recipe]
    params = recipe_params(name, recipe, args.params)
    verify, ring = not args.no_verify, default_ring()
    (argument, kind), *_ = recipe.inputs.items()
    if kind in ("group", "groups"):  # a recipe over group algebras reads nothing else
        if kind == "group" and not args.group:
            raise UsageError(f"recipe {name} needs --group")
        specs = params.pop("groups") if kind == "groups" else [args.group]
        if not (isinstance(specs, list) and specs and all(isinstance(spec, str) for spec in specs)):
            raise UsageError(f"{name} needs params.groups, a list of group names")
        read, product = [read_group(spec) for spec in specs], 1
        for order, _ in read:
            product *= order
            require_recipe(recipe, verify, product, **params)
        algebras = [group_algebra(build(), ring) for _, build in read]
        arguments = {argument: algebras if kind == "groups" else algebras[0]}
    else:
        files = list(zip(recipe.inputs.values(), ("--input", "--input2"), (args.input, args.input2)))
        for kind, flag, path in files:
            if not path:
                raise UsageError(f"recipe {name} needs {flag} (a {kind} JSON)")
        read = [read_input(path, kind) for kind, _, path in files]
        require_recipe(recipe, verify, *(header for header, _ in read), **params)
        arguments = {argument: build() for argument, (_, build) in zip(recipe.inputs, read)}
    out = getattr(C, recipe.builder)(**arguments, **params, verify=verify)
    if isinstance(out, tuple):
        data = {"first": out[0].to_json_dict(), "second": out[1].to_json_dict()}
    else:
        data = out.to_json_dict()
    if args.out:
        write_json(args.out, data)
    else:
        print(json.dumps(data, sort_keys=True))
    return 0


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
    order, build = read_group(args.group)
    require_columns(order, 10)
    group = build()
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
        ("pentagon for T", check_equation("polygon", 5, t_desc.tensor)),
        ("dual pentagon for S", check_equation("dual-polygon", 5, s_desc.tensor)),
        ("relations (1)-(6)", check_relations_1_6(t_desc.tensor, s_desc.tensor)),
        ("mixed relation at 5", check_equation("mixed", 5, t_desc.tensor, s_desc.tensor)),
        ("4-simplex for R4", check_equation("simplex", 4, r4.tensor)),
        ("3-simplex for R3", check_equation("simplex", 3, r3_desc.tensor)),
        (
            "R3 equals left trace of R4",
            compare_sides("tensor equality", r3_desc.tensor, partial_trace_left(r4.tensor)),
        ),
        ("Yang-Baxter for S o T", check_equation("simplex", 2, yb.tensor)),
        ("Yang-Baxter for the four-factor map", check_equation("simplex", 2, yb4.tensor)),
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
    return {
        family: {str(n): equation.written(n)[1] for n in equation.catalog(max_n)}
        for family, equation in EQUATIONS.items()
        if equation.written
    }


def cmd_catalog(args) -> int:
    catalog = build_catalog(args.max_n)
    if args.format == "json":
        print(json.dumps(catalog, sort_keys=True))
        return 0
    for family, lines in catalog.items():
        for n, line in lines.items():
            print(f"{EQUATIONS[family].label.format(n)}: {line}")
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
    written = [family for family, equation in EQUATIONS.items() if equation.written]

    p = sub.add_parser("gen-eq", help="print index matrices and the rendered equation")
    p.add_argument("--family", required=True, choices=written)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_gen_eq)

    p = sub.add_parser("compile", help="compile an equation from simplex face combinatorics")
    p.add_argument("--family", required=True, choices=written)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", default="program", choices=["program", "placements", "dot"])
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check tensors against an equation family")
    p.add_argument("--family", required=True, choices=list(EQUATIONS))
    p.add_argument("--n", type=int)
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
    p.add_argument("--recipe", required=True, choices=list(C.RECIPES))
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
        for path in filter(None, (vars(args).get("out"), vars(args).get("report"))):
            require_writable(path)
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout early; point it at devnull so the
        # interpreter's final flush of what is buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return USAGE_ERROR
    except (
        UsageError,
        ShapeError,
        ProgramError,
        PreconditionFailed,
        NotInvertible,
        InvalidGroup,
        RingError,
        OSError,  # a file that cannot be read or written; BrokenPipeError is handled above
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SelfCheckFailed as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
