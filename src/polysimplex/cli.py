"""Command-line entry point.

Commands: gen-eq, compile, verify, set-verify, set-enumerate, construct,
demo, catalog.  Exit status: 0 success / equation holds, 1 verification
failure, 2 configuration or shape error.  The default scalar context comes
from the POLYSIMPLEX_SCALAR environment variable ("rational", "f64" or
"gfp:<p>").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product

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
from .tensor import NotInvertible, ShapeError, Tensor, compose, partial_trace_left
from .verify import (
    PreconditionFailed,
    VerificationReport,
    check_commutes,
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(ValueError):
    pass


def default_ring():
    return ring_from_tag(os.environ.get("POLYSIMPLEX_SCALAR", "rational"))


def load_group(spec: str) -> GroupTable:
    named = {"v4": lambda: direct_product(cyclic_group(2), cyclic_group(2))}
    if spec in named:
        return named[spec]()
    if spec.startswith("z") and spec[1:].isdigit():
        return cyclic_group(int(spec[1:]))
    if spec.startswith("s") and spec[1:].isdigit():
        return symmetric_group(int(spec[1:]))
    with open(spec, encoding="utf-8") as fh:
        return GroupTable.from_json_dict(json.load(fh))


def load_tensor(path: str) -> Tensor:
    with open(path, encoding="utf-8") as fh:
        return Tensor.from_json_dict(json.load(fh))


def load_descriptor(path: str) -> C.SolutionDescriptor:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "tensor" in data:
        return C.SolutionDescriptor.from_json_dict(data)
    raise UsageError(f"{path} does not contain a solution descriptor")


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(report: VerificationReport, path: str | None) -> None:
    if path:
        write_json(path, report.to_json_dict())


# -- gen-eq --------------------------------------------------------------------


def cmd_gen_eq(args) -> int:
    n = args.n
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
    if args.family in ("polygon", "dual-polygon"):
        report = check_polygon(first, args.n, dual=args.family == "dual-polygon")
    elif args.family == "simplex":
        report = check_simplex(first, args.n)
    elif args.family == "mixed":
        if second is None:
            raise UsageError("mixed verification needs --tensor2 for the dual solution")
        report = check_mixed(first, second, args.n)
    elif args.family == "commutes":
        if second is None:
            raise UsageError("commutation check needs --tensor2")
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
    with open(args.map, encoding="utf-8") as fh:
        fmap = FiniteMap.from_json_dict(json.load(fh))
    dual = args.family == "dual-polygon"
    report = check_polygon_set(fmap, args.n, dual)
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
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    verify = not args.no_verify
    ring = default_ring()
    recipe = args.recipe

    def hopf():
        if not args.group:
            raise UsageError(f"recipe {recipe} needs --group")
        return group_algebra(load_group(args.group), ring)

    if recipe == "hopf-pentagon-pair":
        return _descriptor_out(args, C.hopf_pentagon_pair(hopf(), verify))
    if recipe == "bialgebra-tower":
        out = C.bialgebra_tower(params.get("n", 5), hopf(), params.get("dual", False), verify)
        return _descriptor_out(args, out)
    if recipe == "multi-bialgebra-tower":
        groups = params.get("groups")
        if not groups:
            raise UsageError("multi-bialgebra-tower needs params.groups, a list of group names")
        instances = [group_algebra(load_group(g), ring) for g in groups]
        out = C.multi_bialgebra_tower(params.get("k", 2), instances, params.get("even", False), verify)
        return _descriptor_out(args, out)
    if recipe == "hopf-mixed-pair-antipode":
        return _descriptor_out(args, C.hopf_mixed_pair_antipode(params.get("k", 2), hopf(), verify))
    if recipe == "higher-mixed-pair":
        t = load_tensor(args.input)
        s = load_tensor(args.input2)
        return _descriptor_out(args, C.higher_mixed_pair(params.get("k", 2), t, s, verify))
    if recipe == "yang-baxter":
        t = load_tensor(args.input)
        s = load_tensor(args.input2)
        out = C.yang_baxter_from_pair(t, s, params.get("mode", "compose"), verify)
        return _descriptor_out(args, out)
    # descriptor-consuming transforms
    if not args.input:
        raise UsageError(f"recipe {recipe} needs --input (a descriptor JSON)")
    first = load_descriptor(args.input)
    if recipe == "invert-to-dual":
        return _descriptor_out(args, C.invert_to_dual(first, verify))
    if recipe == "conjugate":
        if not args.input2:
            raise UsageError("conjugate needs --input2 with the 1->1 map")
        return _descriptor_out(args, C.conjugate(first, load_tensor(args.input2), verify))
    if recipe == "bar-sigma-conjugate":
        return _descriptor_out(args, C.bar_sigma_conjugate(first, verify))
    if recipe == "trace-descend":
        return _descriptor_out(args, C.trace_descend(first, params.get("side", "left"), verify))
    if recipe == "trace-descend-mixed":
        second = load_descriptor(args.input2)
        out = C.trace_descend_mixed(first, second, params.get("side", "left"), verify)
        return _descriptor_out(args, out)
    if recipe == "stack":
        second = load_descriptor(args.input2)
        return _descriptor_out(args, C.stack(first, second, params.get("mode", "compose_left"), verify))
    if recipe == "simplex-from-mixed":
        second = load_descriptor(args.input2)
        out = C.simplex_from_mixed(first, second, params.get("drop", "one"), verify)
        return _descriptor_out(args, out)
    raise UsageError(f"unknown recipe {recipe!r}")


# -- demo ----------------------------------------------------------------------


def _basis_action_lines(name: str, t: Tensor) -> list[str]:
    lines = [f"{name} on basis vectors:"]
    for inp in product(range(t.dim), repeat=t.in_legs):
        terms = sorted(out for (out, i) in t.entries if i == inp)
        rendered = " + ".join(
            "(x)".join(f"e{d}" for d in out)
            + ("" if t.ring.eq(t.entry(out, inp), t.ring.one) else f" * {t.ring.format(t.entry(out, inp))}")
            for out in terms
        )
        lines.append("  " + "(x)".join(f"e{d}" for d in inp) + " -> " + (rendered or "0"))
    return lines


def cmd_demo(args) -> int:
    ring = default_ring()
    group = load_group(args.group)
    if group.order > 4:
        raise UsageError(
            "demo runs a 4-simplex check on V^(x)10; groups of order > 4 "
            "exceed desk scale"
        )
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
            _equality_report(r3_desc.tensor, partial_trace_left(r4.tensor)),
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


def _equality_report(a: Tensor, b: Tensor) -> VerificationReport:
    from .verify import compare_sides

    return compare_sides("tensor equality", a, b)


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


def make_parser() -> argparse.ArgumentParser:
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


if __name__ == "__main__":
    sys.exit(main())
