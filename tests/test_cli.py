"""CLI behaviour: command output, exit codes, and file round trips."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
import polysimplex
from polysimplex import cli, construct, simplicial, verify
from polysimplex import tensor as tensor_module
from polysimplex.cli import MAX_COLUMNS, MAX_ORDER, build_catalog, main
from polysimplex.hopf import GroupTable, cyclic_group, direct_product, group_algebra
from polysimplex.rings import F64, prime_field
from polysimplex.construct import hopf_pentagon_pair
from polysimplex.setmaps import FiniteMap, check_polygon_set
from polysimplex.simplicial import compile_polygon, pair_to_simplex_map
from polysimplex.tensor import ShapeError, Tensor, contract_staged, from_function, identity_tensor, rank_to_digits
from polysimplex.verify import EQUATIONS, Equation, SelfCheckFailed, check_polygon


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



def test_parser_outlives_a_usage_error(capsys, monkeypatch):
    """main builds its parser once per process; a usage error, a help
    request or a valid call leaves it as a fresh process finds it."""
    monkeypatch.setenv("COLUMNS", "80")  # the width of the help text
    calls = [
        ["gen-eq", "--family", "polygon"],
        ["gen-eq", "--family", "polygon", "--n", "5"],
        ["verify", "--family", "nonagon", "--tensor", "t.json"],
        ["catalog", "--max-n", "4"],
        ["set-enumerate", "--help"],
        ["set-enumerate", "--n", "3", "--base", "2"],
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    src = os.path.dirname(os.path.dirname(polysimplex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    separate = [
        (proc.returncode, proc.stdout)
        for proc in (
            subprocess.run([sys.executable, "-m", "polysimplex.cli", *argv], env=env, capture_output=True, text=True)
            for argv in calls
        )
    ]
    assert [code for code, _ in in_process] == [2, 0, 2, 0, 0, 0]
    assert cli.make_parser() is cli.make_parser()
    assert in_process == separate


class TestGenEq:
    def test_seven_gon_line(self, capsys):
        code, out, _ = run(capsys, "gen-eq", "--family", "polygon", "--n", "7")
        assert code == 0
        assert out.splitlines()[0] == "T_{123}T_{145}T_{246}T_{356}=T_{356}T_{245}T_{123}"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "gen-eq", "--family", "simplex", "--n", "2", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["equation"] == "R_{12}R_{13}R_{23}=R_{23}R_{13}R_{12}"
        assert data["matrices"]["A"] == [[1, 2], [1, 3], [2, 3]]

    def test_mixed_rejects_even_order(self, capsys):
        code, _, err = run(capsys, "gen-eq", "--family", "mixed", "--n", "4")
        assert code == 2
        assert "error" in err

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "gen-eq", "--family", "polygon", "--n", "2")
        assert code == 2

    def test_order_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "gen-eq", "--family", "simplex", "--n", "1000")
        assert code == 0
        assert out.splitlines()[0].count("R_{") == 2 * 1001

    def test_reader_closing_early_exits_two_without_a_traceback(self):
        # About 10 MB of output, far more than a pipe holds, so the write
        # after the reader has gone fails with EPIPE.
        src = os.path.dirname(os.path.dirname(polysimplex.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "polysimplex.cli", "gen-eq", "--family", "simplex", "--n", "1000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("family,n", [("simplex", 3000), ("polygon", 5000)])
    def test_huge_order_refused(self, capsys, family, n):
        code, out, err = run(capsys, "gen-eq", "--family", family, "--n", str(n))
        assert code == 2
        assert out == ""
        assert err.startswith("error: gen-eq is limited to n <= 1000")


class TestCompile:
    def test_placements_match_gen_eq(self, capsys):
        code, out, _ = run(
            capsys, "compile", "--family", "polygon", "--n", "5", "--emit", "placements"
        )
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] == [["T", [1, 2]], ["T", [1, 3]], ["T", [2, 3]]]
        assert data["rhs"] == [["T", [2, 3]], ["T", [1, 2]]]

    def test_program_emission(self, capsys):
        code, out, _ = run(capsys, "compile", "--family", "mixed", "--n", "4")
        data = json.loads(out)
        assert code == 0
        assert len(data["lhs"]["steps"]) == 4
        assert data["lhs"]["free_inputs"] == data["rhs"]["free_inputs"]

    def test_dot_emission(self, capsys):
        code, out, _ = run(capsys, "compile", "--family", "simplex", "--n", "2", "--emit", "dot")
        assert code == 0
        assert out.count("digraph") == 2


class TestVerify:
    def test_flip_solves_yang_baxter(self, capsys, tmp_path):
        path = tmp_path / "flip.json"
        path.write_text(oracle.flip(2).to_json())
        code, out, _ = run(capsys, "verify", "--family", "simplex", "--n", "2", "--tensor", str(path))
        assert code == 0
        assert "holds" in out

    def test_failing_tensor_exits_one_with_report(self, capsys, tmp_path):
        path = tmp_path / "flip.json"
        report_path = tmp_path / "report.json"
        path.write_text(oracle.flip(2).to_json())
        code, out, _ = run(
            capsys,
            "verify", "--family", "polygon", "--n", "5",
            "--tensor", str(path), "--report", str(report_path),
        )
        assert code == 1
        data = json.loads(report_path.read_text())
        assert data["holds"] is False
        assert "witness" in data

    def test_shape_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "flip.json"
        path.write_text(oracle.flip(2).to_json())
        code, _, err = run(capsys, "verify", "--family", "polygon", "--n", "7", "--tensor", str(path))
        assert code == 2 and "error" in err

    def test_mixed_needs_second_tensor(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(oracle.flip(2).to_json())
        code, _, err = run(capsys, "verify", "--family", "mixed", "--n", "5", "--tensor", str(path))
        assert code == 2

    def test_mixed_pair_passes(self, capsys, tmp_path):
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(2)), verify=False)
        t_path, s_path = tmp_path / "t.json", tmp_path / "s.json"
        t_path.write_text(t_desc.tensor.to_json())
        s_path.write_text(s_desc.tensor.to_json())
        code, _, _ = run(
            capsys,
            "verify", "--family", "mixed", "--n", "5",
            "--tensor", str(t_path), "--tensor2", str(s_path),
        )
        assert code == 0

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "simplex", "--n", "2", "--tensor", "no-such.json")
        assert code == 2

    def test_tolerance_flag_on_float_tensors(self, capsys, tmp_path):
        from polysimplex.rings import F64, prime_field

        noisy = dict(from_function(2, 2, 2, lambda x: (x[1], x[0]), F64).entries)
        noisy[((1, 0), (0, 1))] += 1e-7  # single perturbed entry
        from polysimplex.tensor import Tensor

        path = tmp_path / "noisy.json"
        path.write_text(Tensor(2, 2, 2, noisy, F64).to_json())
        loose = run(
            capsys, "verify", "--family", "simplex", "--n", "2",
            "--tensor", str(path), "--tolerance", "1e-3",
        )
        tight = run(
            capsys, "verify", "--family", "simplex", "--n", "2",
            "--tensor", str(path), "--tolerance", "1e-12",
        )
        assert loose[0] == 0 and tight[0] == 1

    def test_tolerance_rejected_for_exact_tensors(self, capsys, tmp_path):
        path = tmp_path / "flip.json"
        path.write_text(oracle.flip(2).to_json())
        code, _, err = run(
            capsys, "verify", "--family", "simplex", "--n", "2",
            "--tensor", str(path), "--tolerance", "1e-6",
        )
        assert code == 2 and "f64" in err


@pytest.mark.parametrize("case", ["tensor-is-directory", "params-not-object", "malformed-ring-tag", "missing-field"])
def test_malformed_input_exits_two(capsys, tmp_path, case):
    if case == "tensor-is-directory":
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", str(tmp_path)]
    elif case == "params-not-object":
        argv = ["construct", "--recipe", "bialgebra-tower", "--group", "z2", "--params", "[1]"]
    elif case == "missing-field":
        # A descriptor where a tensor is read: its fields are one level down.
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(hopf_pentagon_pair(group_algebra(cyclic_group(2)))[0].to_json_dict()))
        argv = ["construct", "--recipe", "yang-baxter", "--input", str(path), "--input2", str(path)]
    else:
        data = json.loads(oracle.flip(2).to_json())
        data["scalar"] = "gfp:x"
        path = tmp_path / "bad-ring.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error" in err
    if case == "missing-field":
        assert err == f"error: malformed tensor in {path}: missing field 'dim'\n"


@pytest.mark.parametrize("case", ["dim-true", "dim-float", "legs-true", "digit-true", "digit-float"])
def test_tensor_with_non_integer_shape_or_digit_exits_two(capsys, tmp_path, case):
    """Digits index rank-keyed tables, so a bool or float is no integer
    here, even where it equals one: ``"dim": true`` once verified as dim 1."""
    shaped = case.startswith(("dim", "legs"))
    data = json.loads((from_function(1, 1, 1, lambda x: x) if shaped else oracle.flip(2)).to_json())
    if case == "dim-true":
        data["dim"] = True
    elif case == "dim-float":
        data["dim"] = 1.0
    elif case == "legs-true":
        data["in_legs"] = data["out_legs"] = True
    else:
        data["entries"][-1][0][0] = True if case == "digit-true" else 1.0
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    argv = ["--family", "polygon", "--n", "3"] if shaped else ["--family", "simplex", "--n", "2"]
    code, out, err = run(capsys, "verify", *argv, "--tensor", str(path))
    assert (code, out) == (2, "") and err.startswith("error: malformed tensor")


# A prime above rings.PRIME_CAP (2^89 - 1), whose trial division never ended.
BIG_PRIME = "gfp:618970019642690137449562111"
SCALAR_SYNTAX = "must be an integer or a string of the form [-]digits[/nonzero digits]"
# Nested about 3000 deep, past the interpreter's recursion limit; argv
# bounds the size of a --params string.
DEEP_JSON = "[" * 3000 + "]" * 3000
DEEP = "maximum recursion depth exceeded"

OUTSIDE_INPUTS = {
    "rational-zero-denominator": SCALAR_SYNTAX,
    "rational-json-overflow": SCALAR_SYNTAX,
    "rational-huge-exponent": SCALAR_SYNTAX,
    "rational-exponent-past-the-digit-limit": SCALAR_SYNTAX,
    "rational-json-float": SCALAR_SYNTAX,
    "rational-json-bool": SCALAR_SYNTAX,
    "gfp-json-float": SCALAR_SYNTAX,
    "gfp-json-bool": SCALAR_SYNTAX,
    "f64-json-bool": "f64 scalar True must be a JSON number",
    "f64-padded-string": "f64 scalar ' 1 ' must be a JSON number",
    "f64-int-overflow": "f64 scalar integer is out of the binary64 range",
    "group-bool-table": "Cayley table entries must be integers",
    "group-float-order": "order 2.0 must be an integer",
    "conjugate-zero-denominator": SCALAR_SYNTAX,
    "higher-mixed-pair-zero-denominator": SCALAR_SYNTAX,
    "env-prime-over-the-cap": "over the cap of 3317044064679887385961981",
    "json-prime-over-the-cap": "over the cap of 3317044064679887385961981",
    "trace-descend-float-order": "order 5.0 must be an integer",
    "invert-to-dual-float-order": "order 5.0 must be an integer",
    "bar-sigma-conjugate-float-order": "order 5.0 must be an integer",
    "bool-order": "order True must be an integer",
    "provenance-string": "provenance 'abc' must be a list of strings",
    "map-key-empty-part": "table key '0,,1'",
    "stack-mode-list": "params.mode must be a string, got []",
    "hopf-mixed-pair-antipode-k-100": "equation order 201 is over the cap",
    "hopf-mixed-pair-antipode-k-40": "equation order 81 is over the cap",
    "higher-mixed-pair-k-100": "equation order 203 is over the cap",
    "rational-past-the-digit-limit": "scalar has 5001 digits, over the interpreter's int-string limit",
    "nan-tolerance-half-flip": "tolerance must be a number >= 0, got nan",
    "nan-tolerance-flip": "tolerance must be a number >= 0, got nan",
    "group-empty-table": "Cayley table is empty",
    "demo-z0": "Cayley table is empty",
    "bialgebra-tower-z0": "Cayley table is empty",
    "simplex-order-zero": "no 0-simplex equation; n must be >= 1",
    "trace-descend-sparse-order-17": "trace descent is stated for invertible solutions",
    "invert-to-dual-sparse-order-17": "tensor is singular",
    "invert-to-dual-dense-order-13": "inverting densely takes 729 columns, over the cap of 243",
    "conjugate-order-41": f"has 3^20 = {3**20} columns, over the cap of {MAX_COLUMNS}",
    "verify-deep-json": DEEP,
    "set-verify-deep-json": DEEP,
    "demo-deep-json": DEEP,
    "construct-deep-json": DEEP,
    "params-deep-json": DEEP,
    "tensor-3-to-the-10000": f"has 3^10000 columns, over the cap of {MAX_COLUMNS}",
    "tensor-huge-power": f"has 1000000000^30000000 columns, over the cap of {MAX_COLUMNS}",
    # A header is capped before the parse, which alone refused these: 0^-1
    # once ended in a traceback, (-10^9)^(3*10^7) in a hang.
    "tensor-zero-dim-negative-legs": "dim must be >= 1 and leg counts >= 0",
    "tensor-negative-huge-power": "dim must be >= 1 and leg counts >= 0",
    "descriptor-negative-huge-power": "dim must be >= 1 and leg counts >= 0",
    "map-huge-power": f"the finite map has 1000000000^30000000 columns, over the cap of {MAX_COLUMNS}",
    # Refused at the eighth group, which takes the product of the orders over the cap.
    "multi-bialgebra-tower-5000-groups": f"the check runs 256^3 = 16777216 columns, over the cap of {MAX_COLUMNS}",
    "demo-group-5000-digits": f"runs {'9' * 5000}^3 columns, over the cap of {MAX_COLUMNS}",
    "bialgebra-tower-group-5000-digits": f"runs {'9' * 5000}^3 columns, over the cap of {MAX_COLUMNS}",
}


def rank_descriptor(order, entries):
    """A d = 3 descriptor of the odd ``order``-gon whose tensor has the
    entries ``{(output rank, input rank): value}``."""
    k = (order - 1) // 2
    t = Tensor(3, k, k, {(rank_to_digits(o, 3, k), rank_to_digits(i, 3, k)): v for (o, i), v in entries.items()})
    return construct.SolutionDescriptor("polygon", order, t).to_json_dict()


def outside_input(tmp_path, case):
    """argv and environment of one malformed input from outside the program."""
    t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(2)))
    env = {}

    def write(data, name="input.json", value=None):
        # ``value`` is spliced in as raw JSON, so that it may be a literal JSON cannot write.
        path = tmp_path / name
        path.write_text(json.dumps(data).replace('"@value"', value or '"@value"'))
        return str(path)

    def tensor_with(value, t=oracle.flip(2), name="input.json"):
        data = t.to_json_dict()
        data["entries"][-1][2] = "@value"
        return write(data, name, value)

    def descriptor(**fields):
        return write(dict(t_desc.to_json_dict(), **fields))

    value = {
        "zero-denominator": '"1/0"', "json-overflow": "1e400", "huge-exponent": '"1e9999999"',
        "exponent-past-the-digit-limit": '"1e999999"', "json-float": "0.5", "json-bool": "true",
        "padded-string": '" 1 "', "int-overflow": "1" + "0" * 400, "past-the-digit-limit": '"1' + "0" * 5000 + '"',
    }
    if case.startswith("rational-"):
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", tensor_with(value[case[9:]])]
    elif case.startswith("gfp-"):
        t = oracle.flip(2, prime_field(5))
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", tensor_with(value[case[4:]], t)]
    elif case.startswith("f64-"):
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", tensor_with(value[case[4:]], oracle.flip(2, F64))]
    elif case.startswith("nan-tolerance"):
        t = oracle.flip(2, F64)
        path = write((t.scale(0.5) if case == "nan-tolerance-half-flip" else t).to_json_dict())
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", path, "--tolerance", "nan"]
    elif case == "group-empty-table":
        argv = ["demo", "--group", write({"table": []})]
    elif case == "demo-z0":
        argv = ["demo", "--group", "z0"]
    elif case == "bialgebra-tower-z0":
        argv = ["construct", "--recipe", "bialgebra-tower", "--group", "z0"]
    elif case == "simplex-order-zero":
        argv = ["verify", "--family", "simplex", "--n", "0", "--tensor", write(oracle.flip(2).to_json_dict())]
    elif case == "group-bool-table":
        argv = ["demo", "--group", write({"order": 2, "table": [[False, True], [True, False]]})]
    elif case == "group-float-order":
        argv = ["demo", "--group", write({"order": 2.0, "table": [[0, 1], [1, 0]]})]
    elif case == "conjugate-zero-denominator":
        phi = tensor_with('"1/0"', identity_tensor(2, 1), "phi.json")
        argv = ["construct", "--recipe", "conjugate", "--input", descriptor(), "--input2", phi]
    elif case == "higher-mixed-pair-zero-denominator":
        t = tensor_with('"1/0"', t_desc.tensor, "t.json")
        argv = ["construct", "--recipe", "higher-mixed-pair", "--input", t, "--input2", write(s_desc.tensor.to_json_dict())]
    elif case == "env-prime-over-the-cap":
        argv, env = ["demo", "--group", "z2"], {"POLYSIMPLEX_SCALAR": BIG_PRIME}
    elif case == "json-prime-over-the-cap":
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", write(dict(oracle.flip(2).to_json_dict(), scalar=BIG_PRIME))]
    elif case.endswith("-float-order"):
        argv = ["construct", "--recipe", case[: -len("-float-order")], "--input", descriptor(order=5.0)]
    elif case == "bool-order":
        simplex = construct.SolutionDescriptor("simplex", 1, identity_tensor(2, 1)).to_json_dict()
        argv = ["construct", "--recipe", "trace-descend", "--input", write(dict(simplex, order=True))]
    elif case.endswith("-sparse-order-17"):
        # Two entries of 3^8 columns, so singular; not a basis function, so
        # dense elimination once built the 6561-column matrix (6 s, 1 GB).
        # Unverified: with the self-check on, the 17-gon over d = 3 is refused first.
        path = write(rank_descriptor(17, {(0, 0): 2, (1, 1): 2}))
        argv = ["construct", "--recipe", case[: -len("-sparse-order-17")], "--input", path, "--no-verify"]
    elif case == "invert-to-dual-dense-order-13":
        # Two entries per column of 3^6: dense elimination once took 16 s and 325 MB.
        # Unverified: with the self-check on, the 13-gon over d = 3 is refused first.
        entries = {(o, i): 1 for i in range(729) for o in (i, (i + 1) % 729)}
        path = write(rank_descriptor(13, entries))
        argv = ["construct", "--recipe", "invert-to-dual", "--input", path, "--no-verify"]
    elif case == "conjugate-order-41":
        # One entry of 3^20 columns, each of which conjugation once ran.
        phi = write(identity_tensor(3, 1).to_json_dict(), "phi.json")
        argv = ["construct", "--recipe", "conjugate", "--input", write(rank_descriptor(41, {(0, 0): 1})), "--input2", phi]
    elif case == "provenance-string":
        argv = ["construct", "--recipe", "invert-to-dual", "--input", descriptor(provenance="abc")]
    elif case == "map-key-empty-part":
        data = FiniteMap.from_callable(2, 2, 2, lambda a: (a[0], (a[0] + a[1]) % 2)).to_json_dict()
        data["table"]["0,,1"] = data["table"].pop("0,1")
        argv = ["set-verify", "--n", "5", "--map", write(data)]
    elif case == "stack-mode-list":
        tower = write(construct.bialgebra_tower(5, group_algebra(cyclic_group(2))).to_json_dict())
        argv = ["construct", "--recipe", "stack", "--input", tower, "--input2", tower, "--params", '{"mode": []}']
    elif case.endswith("-deep-json"):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        argv = {
            "verify": ["verify", "--family", "simplex", "--n", "2", "--tensor", str(path)],
            "set-verify": ["set-verify", "--n", "5", "--map", str(path)],
            "demo": ["demo", "--group", str(path)],
            "construct": ["construct", "--recipe", "invert-to-dual", "--input", str(path)],
            "params": ["construct", "--recipe", "bialgebra-tower", "--group", "z2", "--params", DEEP_JSON],
        }[case[: -len("-deep-json")]]
    elif case.startswith(("tensor-", "descriptor-")):
        # 3^10000 once ended in the int-to-str limit, (10^9)^(3*10^7) in a hang.
        dim, legs = {"3-to-the-10000": (3, 10000), "zero-dim-negative-legs": (0, -1)}.get(
            case.split("-", 1)[1], (-(10**9) if "negative" in case else 10**9, 3 * 10**7))
        tensor = {"dim": dim, "in_legs": legs, "out_legs": 0, "scalar": "rational", "entries": []}
        if case.startswith("tensor-"):
            argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", write(tensor)]
        else:
            argv = ["construct", "--recipe", "invert-to-dual", "--input", write(dict(t_desc.to_json_dict(), tensor=tensor))]
    elif case == "map-huge-power":
        argv = ["set-verify", "--n", "5", "--map", write({"base": 10**9, "in": 3 * 10**7, "out": 1, "table": {}})]
    elif case == "multi-bialgebra-tower-5000-groups":
        params = json.dumps({"groups": ["z2"] * 5000, "k": 2})
        argv = ["construct", "--recipe", "multi-bialgebra-tower", "--params", params]
    elif case.endswith("-group-5000-digits"):
        # Past the int-to-str limit, so it once ended in a traceback from int().
        group = "z" + "9" * 5000
        argv = ["demo"] if case.startswith("demo") else ["construct", "--recipe", "bialgebra-tower"]
        argv += ["--group", group]
    elif case.startswith("hopf-mixed-pair-antipode"):
        argv = ["construct", "--recipe", "hopf-mixed-pair-antipode", "--group", "z2", "--no-verify",
                "--params", json.dumps({"k": int(case.rsplit("-", 1)[1])})]
    else:
        t, s = write(t_desc.tensor.to_json_dict(), "t.json"), write(s_desc.tensor.to_json_dict(), "s.json")
        argv = ["construct", "--recipe", "higher-mixed-pair", "--input", t, "--input2", s, "--no-verify",
                "--params", '{"k": 100}']
    return argv, env


def limit_memory():
    """A regression then fails its test with a MemoryError, not the machine exhausted."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("case", sorted(OUTSIDE_INPUTS))
def test_outside_input_exits_two_at_once(tmp_path, case):
    """Scalars, moduli, descriptor fields, map keys and recipe parameters
    from outside are refused with exit 2, each once a traceback, a hang or
    a build that ran out of memory, or read as something else."""
    argv, env = outside_input(tmp_path, case)
    proc = run_fresh(argv, env, keep_scalar=case == "env-prime-over-the-cap")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert OUTSIDE_INPUTS[case] in proc.stderr


def run_fresh(argv, env=None, keep_scalar=False, seconds=5):
    """The CLI on ``argv`` in a fresh interpreter, which must end within ``seconds``."""
    src = os.path.dirname(os.path.dirname(polysimplex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **(env or {}))
    if not keep_scalar:
        env.pop("POLYSIMPLEX_SCALAR", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "polysimplex.cli", *argv],
        env=env, capture_output=True, text=True, timeout=seconds, preexec_fn=limit_memory,
    )
    assert time.perf_counter() - start < seconds
    return proc


def identity_descriptor(order, dim, legs):
    """The JSON text of the identity polygon descriptor, written without building its tensor."""
    entries = [[list(t), list(t), "1"] for t in product(range(dim), repeat=legs)]
    tensor = {"dim": dim, "in_legs": legs, "out_legs": legs, "scalar": "rational", "entries": entries}
    return json.dumps({"family": "polygon", "order": order, "provenance": [], "tensor": tensor})


RECIPES_OVER_THE_CAPS = {
    # Each once built its map and then ran out of memory, or ran for
    # seconds to minutes, before the self-check was refused.
    "invert-to-dual-order-1001": ("invert-to-dual", "equation order 1001 is over the cap"),
    "bar-sigma-conjugate-order-1001": ("bar-sigma-conjugate", "equation order 1001 is over the cap"),
    "trace-descend-order-1001": ("trace-descend", "equation order 999 is over the cap"),
    "invert-to-dual-order-401": ("invert-to-dual", "equation order 401 is over the cap"),
    "conjugate-order-1001": ("conjugate", "equation order 1001 is over the cap"),
    "trace-descend-mixed-order-1001": ("trace-descend-mixed", "equation order 999 is over the cap"),
    "simplex-from-mixed-order-1001": ("simplex-from-mixed", "equation order 1000 is over the cap"),
    # Refused at its commutation, the first check of stack, on the 80-leg maps.
    "stack-tensor-order-161": ("stack", "commutation maps have up to 80 legs on a side, over the cap"),
    "yang-baxter-four-factor-d-24": ("yang-baxter", f"the check runs 576^3 = {576**3} columns"),
    "yang-baxter-four-factor-d-40": ("yang-baxter", f"the check runs 1600^3 = {1600**3} columns"),
    "invert-to-dual-identity-23-gon": ("invert-to-dual", f"the check runs 3^66 = {3**66} columns"),
    "bar-sigma-conjugate-identity-23-gon": ("bar-sigma-conjugate", f"the check runs 3^66 = {3**66} columns"),
    # Its mixed 5-gon self-check: z161 ran 7.5 s, 1.2 s of it validating the group.
    "hopf-pentagon-pair-z64": ("hopf-pentagon-pair", f"the check runs 64^4 = {64**4} columns"),
    "hopf-pentagon-pair-z161": ("hopf-pentagon-pair", f"the check runs 161^4 = {161**4} columns"),
    # Gated on the 13-gon (2^21), each ran its 13-gon and dual 13-gon checks,
    # about 3.3 s, before the mixed 13-gon was refused.
    "hopf-mixed-pair-antipode-z2-k6": ("hopf-mixed-pair-antipode", f"the check runs 2^36 = {2**36} columns"),
    "higher-mixed-pair-z2-k5": ("higher-mixed-pair", f"the check runs 2^36 = {2**36} columns"),
    # Each group was once built and validated before the product of the
    # orders was gated (6.9 s), later the first group still was (1.4 s); now
    # every name's order is gated before any group is built.
    "multi-bialgebra-tower-four-z161": ("multi-bialgebra-tower", f"the check runs 25921^3 = {25921**3} columns"),
    # Both 14 MB descriptors were built, 8.4 s and 298 MB, before the 45-gon
    # was refused; now the commutation of the two 11-leg maps is, first.
    "stack-tensor-identity-23-gon": ("stack", f"the check runs 3^121 = {3**121} columns"),
    # The second descriptor of a pair was built before the pair was refused.
    "trace-descend-mixed-second-identity-23-gon": ("trace-descend-mixed", f"the check runs 3^55 = {3**55} columns"),
    "simplex-from-mixed-second-identity-23-gon": ("simplex-from-mixed", f"the check runs 3^253 = {3**253} columns"),
}


@pytest.mark.parametrize("case", sorted(RECIPES_OVER_THE_CAPS))
def test_recipe_over_the_caps_exits_two_at_once(tmp_path, case):
    """Every recipe refuses its self-check over the order or column cap
    before it builds: at once (a named group before its Cayley table is
    built), or, for the 10 MB identity 23-gon, as soon as its header is
    read, before its tensor is built."""
    recipe, message = RECIPES_OVER_THE_CAPS[case]
    first, second, seconds = tmp_path / "first.json", tmp_path / "second.json", 1
    if recipe == "hopf-pentagon-pair":
        argv = ["--group", case.rsplit("-", 1)[1]]
    elif recipe == "hopf-mixed-pair-antipode":
        argv = ["--group", "z2", "--params", '{"k": 6}']
    elif recipe == "multi-bialgebra-tower":
        argv = ["--params", json.dumps({"groups": ["z161"] * 4})]
    elif recipe == "higher-mixed-pair":
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(2)))
        first.write_text(t_desc.tensor.to_json())
        second.write_text(s_desc.tensor.to_json())
        argv = ["--input", str(first), "--input2", str(second), "--params", '{"k": 5}']
    elif recipe == "yang-baxter":
        d = int(case.rsplit("-", 1)[1])
        first.write_text(identity_tensor(d, 2).to_json())
        argv = ["--input", str(first), "--input2", str(first), "--params", '{"mode": "four_factor"}']
    elif "second" in case:
        # The first descriptor is the pentagon of the z2 pair, the second the identity 23-gon.
        first.write_text(json.dumps(hopf_pentagon_pair(group_algebra(cyclic_group(2)))[0].to_json_dict()))
        second.write_text(identity_descriptor(23, 3, 11))
        argv, seconds = ["--input", str(first), "--input2", str(second)], 3
    else:
        if case.endswith("identity-23-gon"):
            # 10 MB, which takes about a second to read; building its tensor took 4 s more.
            first.write_text(identity_descriptor(23, 3, 11))
            seconds = 4 if recipe == "stack" else 3
        else:
            order = int(case.rsplit("-", 1)[1])
            first.write_text(identity_descriptor(order, 1, order // 2))
        # A recipe of two inputs reads the descriptor twice, or with conjugate the identity on V.
        second.write_text(identity_tensor(1, 1).to_json())
        argv = ["--input", str(first)]
        if len(construct.RECIPES[recipe].inputs) == 2:
            argv += ["--input2", str(second if recipe == "conjugate" else first)]
        if recipe == "stack":
            argv += ["--params", '{"mode": "tensor"}']
    proc = run_fresh(["construct", "--recipe", recipe, *argv], seconds=seconds)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr


@pytest.mark.parametrize("case", ["map", "group"])
def test_file_over_the_cap_is_not_called_malformed(capsys, tmp_path, case):
    """A well-formed file refused over a cap once read "malformed ... in PATH: ..."."""
    path = tmp_path / "input.json"
    if case == "map":
        path.write_text(json.dumps({"base": 10**9, "in": 3 * 10**7, "out": 1, "table": {}}))
        argv = ["set-verify", "--n", "5", "--map", str(path)]
        message = "the finite map has 1000000000^30000000 columns"
    else:
        path.write_text(json.dumps({"order": 200, "table": [[(a + b) % 200 for b in range(200)] for a in range(200)]}))
        argv = ["demo", "--group", str(path)]
        message = f"the associativity check of the group runs 200^3 = {200**3} columns"
    assert run(capsys, *argv) == (2, "", f"error: {message}, over the cap of {MAX_COLUMNS}\n")


def test_huge_exact_witness_printed_in_full(tmp_path):
    """A witness past the interpreter's int-to-str digit limit (4300) is
    printed in full, in the text output and the report, once a traceback."""
    big = "1" + "0" * 3000
    keys = [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1)), ((0, 0), (1, 1))]
    entries = [[list(out), list(inp), big] for out, inp in keys] + [[[1, 0], [0, 1], "2"]]
    path, report = tmp_path / "r.json", tmp_path / "report.json"
    path.write_text(json.dumps({"dim": 2, "in_legs": 2, "out_legs": 2, "scalar": "rational", "entries": entries}))
    proc = run_fresh(["verify", "--family", "simplex", "--n", "2", "--tensor", str(path), "--report", str(report)])
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
    head, witness_line = proc.stdout.splitlines()
    assert head == "2-simplex: FAILS" and witness_line.startswith("witness: ")
    witness, written = json.loads(witness_line[len("witness: "):]), json.loads(report.read_text())
    assert witness == written["witness"] and len(written["max_deviation"]) > 4300
    assert max(len(witness["lhs"]), len(witness["rhs"])) > 4300
    assert all(part.isdecimal() for side in ("lhs", "rhs") for part in witness[side].split("/"))


@pytest.mark.parametrize("family, n, legs", [("polygon", 13, 21), ("simplex", 6, 21), ("mixed", 13, 36)])
def test_verify_over_the_column_cap_refused(capsys, tmp_path, family, n, legs):
    path = tmp_path / "t.json"
    path.write_text(from_function(3, 6, 6, lambda x: x).to_json())
    argv = ["verify", "--family", family, "--n", str(n), "--tensor", str(path)]
    if family == "mixed":
        argv += ["--tensor2", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: the check runs 3^{legs} = {3**legs} columns, over the cap of {MAX_COLUMNS}\n"


def test_tensor_over_the_column_cap_refused_as_it_is_read(capsys, tmp_path):
    # Every use of a map runs at least its dim ** in_legs columns.
    path = tmp_path / "t.json"
    path.write_text(Tensor(2, 23, 23, {((0,) * 23, (0,) * 23): 1}).to_json())
    code, out, err = run(capsys, "verify", "--family", "polygon", "--n", "47", "--tensor", str(path))
    assert code == 2 and out == ""
    assert err == f"error: the tensor in {path} has 2^23 = {2**23} columns, over the cap of {MAX_COLUMNS}\n"


def test_verify_commutes_over_the_column_cap_refused(capsys, tmp_path):
    # f^(x)5 alone would hold 2^25 entries.
    path = tmp_path / "t.json"
    path.write_text(from_function(2, 5, 5, lambda x: x).to_json())
    argv = ["verify", "--family", "commutes", "--tensor", str(path), "--tensor2", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: the check runs 2^25 = {2**25} columns, over the cap of {MAX_COLUMNS}\n"


@pytest.mark.parametrize("legs", [MAX_ORDER, MAX_ORDER + 1])
def test_verify_commutes_wide_maps_at_the_order_cap(capsys, tmp_path, legs):
    """One column at any leg count, so only the leg cap stops a 1-dimensional map."""
    wide, narrow = tmp_path / "wide.json", tmp_path / "narrow.json"
    wide.write_text(from_function(1, legs, legs, lambda x: x).to_json())
    narrow.write_text(from_function(1, 1, 1, lambda x: x).to_json())
    argv = ["verify", "--family", "commutes", "--tensor", str(narrow), "--tensor2", str(wide)]
    code, out, err = run(capsys, *argv)
    if legs <= MAX_ORDER:
        assert (code, out, err) == (0, "commutation: holds\n", "")
    else:
        assert code == 2 and out == ""
        assert err == f"error: commutation maps have up to {legs} legs on a side, over the cap of {MAX_ORDER}\n"


def one_point_inputs(tmp_path, family, n):
    """argv tails of verify and set-verify on 1-dimensional maps of the (dual) n-gon."""
    from polysimplex.verify import polygon_signature

    def tensor(k, l, name):
        path = tmp_path / name
        path.write_text(from_function(1, k, l, lambda x: (0,) * l).to_json())
        return str(path)

    if family == "simplex":
        return ["--tensor", tensor(n, n, "r.json")]
    if family == "mixed":
        return ["--tensor", tensor(*polygon_signature(n, False), "t.json"),
                "--tensor2", tensor(*polygon_signature(n, True), "s.json")]
    return ["--tensor", tensor(*polygon_signature(n, family == "dual-polygon"), "t.json")]


def refuse_compiling(monkeypatch):
    """Make every compile fail the test: each family's compiler in the
    equation table, and the one compiler behind them, for any order not
    compiled before."""

    def refuse(*args, **kwargs):
        raise AssertionError("compiled")

    for family, equation in EQUATIONS.items():
        monkeypatch.setitem(EQUATIONS, family, Equation(**dict(vars(equation), compile=refuse)))
    monkeypatch.setattr(simplicial, "_compile", refuse)


def refuse_reading(*args, **kwargs):
    """Stands in for the parse of every input file, to show none is read."""
    raise AssertionError("read")


def test_family_choices_are_the_equation_table():
    """verify offers every check of the table; gen-eq, compile and the
    catalog the families the table gives index matrices."""
    commands = next(action for action in cli.make_parser()._actions if action.dest == "command").choices
    written = [name for name, equation in EQUATIONS.items() if equation.written]
    assert written == ["polygon", "dual-polygon", "simplex", "mixed"]
    assert list(build_catalog(3)) == written
    for command in ("gen-eq", "compile", "verify"):
        family = next(action for action in commands[command]._actions if action.dest == "family")
        assert family.choices == (list(EQUATIONS) if command == "verify" else written)
    assert list(EQUATIONS)[len(written):] == ["commutes", "relations"]


def test_unverified_pair_refused_on_its_input_legs():
    """With its self-check off, hopf-pentagon-pair is gated on the two
    input legs of its maps, |G|^2 columns."""
    recipe = construct.RECIPES["hopf-pentagon-pair"]
    cli.require_recipe(recipe, False, 2048)
    with pytest.raises(ShapeError, match=f"^the pair maps 2049\\^2 = {2049**2} columns, over the cap"):
        cli.require_recipe(recipe, False, 2049)


class TestOrderCap:
    """A 1-dimensional map has one column at every order: the order cap
    refuses what the column cap cannot, before anything is compiled."""

    def test_at_the_cap(self, capsys, tmp_path):
        n = str(MAX_ORDER)
        code, out, _ = run(capsys, "compile", "--family", "polygon", "--n", n, "--emit", "placements")
        assert code == 0 and json.loads(out)["lhs"]
        argv = ["verify", "--family", "polygon", "--n", n, *one_point_inputs(tmp_path, "polygon", MAX_ORDER)]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, f"{n}-gon: holds\n")
        path = tmp_path / "map.json"
        path.write_text(json.dumps(FiniteMap.from_callable(1, 29, 30, lambda a: (0,) * 30).to_json_dict()))
        code, out, _ = run(capsys, "set-verify", "--family", "polygon", "--n", n, "--map", str(path))
        assert (code, out) == (0, f"set-theoretic {n}-gon: holds\n")

    @pytest.mark.parametrize("family", ["polygon", "dual-polygon", "simplex", "mixed"])
    def test_over_the_cap_refused_before_compiling(self, capsys, tmp_path, monkeypatch, family):
        n = MAX_ORDER + 1

        refuse_compiling(monkeypatch)
        expect = f"error: equation order {n} is over the cap of {MAX_ORDER}\n"
        commands = [
            ["compile", "--family", family, "--n", str(n), "--emit", emit] for emit in ("program", "placements", "dot")
        ]
        commands.append(["verify", "--family", family, "--n", str(n), *one_point_inputs(tmp_path, family, n)])
        if family in ("polygon", "dual-polygon"):
            path = tmp_path / "map.json"
            path.write_text(json.dumps(FiniteMap.from_callable(1, 30, 30, lambda a: a).to_json_dict()))
            commands.append(["set-verify", "--family", family, "--n", str(n), "--map", str(path)])
        for argv in commands:
            assert run(capsys, *argv) == (2, "", expect)

    @pytest.mark.parametrize("family", ["polygon", "dual-polygon", "simplex", "mixed"])
    def test_over_the_cap_refused_before_reading(self, capsys, tmp_path, monkeypatch, family):
        """The order --n gives is refused before an input file is parsed: a
        large map once took seconds and gigabytes to be refused."""
        n = MAX_ORDER + 1
        inputs = one_point_inputs(tmp_path, family, 3)
        monkeypatch.setattr(cli, "read_json", refuse_reading)
        commands = [["verify", "--family", family, "--n", str(n), *inputs]]
        if family in ("polygon", "dual-polygon"):
            commands.append(["set-verify", "--family", family, "--n", str(n), "--map", inputs[1]])
        for argv in commands:
            assert run(capsys, *argv) == (2, "", f"error: equation order {n} is over the cap of {MAX_ORDER}\n")


@pytest.mark.parametrize("family", ["polygon", "dual-polygon", "simplex"])
def test_surplus_tensor2_refused_before_reading(capsys, tmp_path, monkeypatch, family):
    """A one-map family once read, built and then ignored --tensor2."""
    path = tmp_path / "t.json"
    path.write_text(identity_tensor(2, 2).to_json())
    monkeypatch.setattr(cli, "read_json", refuse_reading)
    argv = ["verify", "--family", family, "--n", "3", "--tensor", str(path), "--tensor2", str(path)]
    expect = f"error: {family} verification takes one map; --tensor2 is not used\n"
    assert run(capsys, *argv) == (2, "", expect)


@pytest.mark.parametrize(
    "family, n, refusal",
    [
        ("commutes", "999", "commutes verification takes no --n"),
        ("relations", "-4", "relations verification takes no --n"),
        ("polygon", None, "polygon verification needs --n"),
        ("mixed", None, "mixed verification needs --n"),
        ("polygon", "-4", "no -4-gon equation; n must be >= 3"),
        ("simplex", "0", "no 0-simplex equation; n must be >= 1"),
    ],
)
def test_unusable_order_refused_before_reading(capsys, tmp_path, monkeypatch, family, n, refusal):
    """--n is the order of a compiled family and of nothing else: it was
    once ignored by the fixed words, and a missing one (read as 0) or one
    at which the family has no equation was refused after the tensor was read."""
    path = tmp_path / "t.json"
    path.write_text(identity_tensor(2, 2).to_json())
    monkeypatch.setattr(cli, "read_json", refuse_reading)
    argv = ["verify", "--family", family, "--tensor", str(path)]
    argv += ["--tensor2", str(path)] if len(EQUATIONS[family].tags) == 2 else []
    argv += ["--n", n] if n else []
    assert run(capsys, *argv) == (2, "", f"error: {refusal}\n")


class TestSetCommands:
    def test_set_verify(self, capsys, tmp_path):
        fmap = FiniteMap.from_callable(2, 2, 2, lambda a: (a[0], (a[0] + a[1]) % 2))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(fmap.to_json_dict()))
        code, out, _ = run(capsys, "set-verify", "--family", "polygon", "--n", "5", "--map", str(path))
        assert code == 0 and "holds" in out

    @pytest.mark.parametrize("family", ["polygon", "dual-polygon"])
    def test_set_verify_past_the_block_limit(self, capsys, tmp_path, family):
        # The 15-gon has 28 free legs, more loops than CPython nests statically.
        fmap = FiniteMap.from_callable(1, 7, 7, lambda a: a)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(fmap.to_json_dict()))
        code, out, err = run(capsys, "set-verify", "--family", family, "--n", "15", "--map", str(path))
        assert code == 0 and out.endswith("15-gon: holds\n") and err == ""

    @pytest.mark.parametrize("family", ["polygon", "dual-polygon"])
    def test_set_verify_over_the_column_cap_refused(self, capsys, tmp_path, family):
        fmap = FiniteMap.from_callable(2, 7, 7, lambda a: a)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(fmap.to_json_dict()))
        code, out, err = run(capsys, "set-verify", "--family", family, "--n", "15", "--map", str(path))
        assert code == 2 and out == ""
        assert err == f"error: the check runs 2^28 = {2**28} columns, over the cap of {MAX_COLUMNS}\n"

    def test_set_verify_wrong_arity_reported_before_the_cap(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(FiniteMap.from_callable(2, 2, 2, lambda a: a).to_json_dict()))
        code, _, err = run(capsys, "set-verify", "--family", "polygon", "--n", "15", "--map", str(path))
        assert code == 2 and "arity" in err

    @pytest.mark.parametrize("case", ["base-true", "arity-true", "arity-float", "value-true", "value-float",
                                      "value-negative", "key-outside", "key-negative", "key-short",
                                      "key-collision"])
    def test_set_verify_malformed_map_exits_two(self, capsys, tmp_path, case):
        """Values index rank-keyed tables, so a bool or float is no integer
        here and a negative one is out of range; a key outside the domain,
        or a second spelling of an input, is no row of the table."""
        n, data = "5", FiniteMap.from_callable(2, 2, 2, lambda a: (a[0], (a[0] + a[1]) % 2)).to_json_dict()
        if case == "base-true":
            n, data = "3", {"base": True, "in": 1, "out": 1, "table": {"0": [0]}}
        elif case == "arity-true":
            n, data = "3", {"base": 2, "in": True, "out": True, "table": {"0": [0], "1": [1]}}
        elif case == "arity-float":
            n, data = "3", {"base": 2, "in": 1.0, "out": 1, "table": {"0": [0], "1": [1]}}
        elif case.startswith("value"):
            data["table"]["1,0"] = {"value-true": [True, True], "value-float": [1.0, 1], "value-negative": [-1, 0]}[case]
        elif case == "key-outside":
            data["table"]["5,5"] = [0, 0]
        elif case == "key-negative":
            data["table"]["-1,0"] = [0, 0]
        elif case == "key-short":
            data["table"]["1"] = [0, 0]
        else:
            data["table"]["01,1"] = data["table"]["1,1"]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "set-verify", "--family", "polygon", "--n", n, "--map", str(path))
        assert (code, out) == (2, "") and err.startswith("error: malformed finite map")

    def test_set_enumerate_counts(self, capsys):
        code, out, _ = run(capsys, "set-enumerate", "--family", "polygon", "--n", "3", "--base", "2")
        assert code == 0
        assert out.splitlines()[0] == "3 solution(s)"

    def test_set_enumerate_base3_pentagon(self, capsys):
        code, out, _ = run(capsys, "set-enumerate", "--family", "polygon", "--n", "5", "--base", "3")
        assert code == 0
        assert out.splitlines()[0] == "1115 solution(s)"

    def test_set_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "set-enumerate", "--family", "polygon", "--n", "3", "--base", "2", "--format", "json")
        found = json.loads(out)
        assert code == 0 and len(found) == 3
        assert all(FiniteMap.from_json_dict(data).in_arity == 1 for data in found)

    def test_set_enumerate_cap(self, capsys):
        code, _, _ = run(capsys, "set-enumerate", "--family", "polygon", "--n", "7", "--base", "2")
        assert code == 2


@pytest.fixture(scope="module")
def recipe_argv(tmp_path_factory):
    """A small valid input of every recipe, as its argv after the recipe name."""
    root = tmp_path_factory.mktemp("recipes")
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    (t2, s2), (t3, s3) = hopf_pentagon_pair(z2), hopf_pentagon_pair(z3)
    documents = {
        "T2": t2.tensor.to_json_dict(), "S2": s2.tensor.to_json_dict(),
        "T3": t3.tensor.to_json_dict(), "S3": s3.tensor.to_json_dict(),
        "T2d": t2.to_json_dict(), "S2d": s2.to_json_dict(), "T3d": t3.to_json_dict(), "S3d": s3.to_json_dict(),
        "tower5": construct.bialgebra_tower(5, z2).to_json_dict(),
        "tower7": construct.bialgebra_tower(7, z3).to_json_dict(),
        "phi": from_function(2, 1, 1, lambda x: (1 - x[0],)).to_json_dict(),
    }
    for name, data in documents.items():
        (root / f"{name}.json").write_text(json.dumps(data))

    def inputs(*names):
        return [arg for flag, name in zip(("--input", "--input2"), names) for arg in (flag, str(root / f"{name}.json"))]

    return {
        "hopf-pentagon-pair": ["--group", "z3"],
        "bialgebra-tower": ["--group", "z2", "--params", '{"n": 6, "dual": true}'],
        "multi-bialgebra-tower": ["--params", '{"groups": ["z2", "z3"]}'],
        "hopf-mixed-pair-antipode": ["--group", "z2", "--params", '{"k": 3}'],
        "higher-mixed-pair": inputs("T2", "S2"),
        "invert-to-dual": inputs("T3d"),
        "conjugate": inputs("T2d", "phi"),
        "bar-sigma-conjugate": inputs("S3d"),
        "trace-descend": inputs("tower7"),
        "trace-descend-mixed": inputs("T3d", "S3d"),
        "stack": inputs("tower5", "tower5"),
        "simplex-from-mixed": [*inputs("T2d", "S2d"), "--params", '{"drop": "two"}'],
        "yang-baxter": [*inputs("T3", "S3"), "--params", '{"mode": "four_factor"}'],
    }


class TestConstruct:
    def test_self_check_failure_exits_one(self, capsys, monkeypatch):
        def broken_recipe(h, verify=True):
            raise SelfCheckFailed("hopf pair fails the mixed relation")

        monkeypatch.setattr(construct, "hopf_pentagon_pair", broken_recipe)
        code, out, err = run(capsys, "construct", "--recipe", "hopf-pentagon-pair", "--group", "z2")
        assert code == 1
        assert out == ""
        assert err == "error: internal self-check failed: hopf pair fails the mixed relation\n"

    def test_pentagon_pair_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "pair.json"
        code, _, _ = run(
            capsys,
            "construct", "--recipe", "hopf-pentagon-pair", "--group", "z2", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["first"]["family"] == "polygon"
        assert data["second"]["family"] == "dual-polygon"

    def test_chain_tower_then_trace(self, capsys, tmp_path):
        tower_path = tmp_path / "tower7.json"
        code, _, _ = run(
            capsys,
            "construct", "--recipe", "bialgebra-tower", "--group", "z2",
            "--params", '{"n": 7}', "--out", str(tower_path),
        )
        assert code == 0
        traced_path = tmp_path / "tower5.json"
        code, _, _ = run(
            capsys,
            "construct", "--recipe", "trace-descend",
            "--input", str(tower_path), "--out", str(traced_path),
        )
        assert code == 0
        data = json.loads(traced_path.read_text())
        assert data["order"] == 5

    def test_simplex_from_mixed_recipe(self, capsys, tmp_path):
        pair_path = tmp_path / "pair.json"
        run(capsys, "construct", "--recipe", "hopf-pentagon-pair", "--group", "z2", "--out", str(pair_path))
        pair = json.loads(pair_path.read_text())
        t_path, s_path = tmp_path / "t.json", tmp_path / "s.json"
        t_path.write_text(json.dumps(pair["first"]))
        s_path.write_text(json.dumps(pair["second"]))
        out_path = tmp_path / "r3.json"
        code, _, _ = run(
            capsys,
            "construct", "--recipe", "simplex-from-mixed",
            "--input", str(t_path), "--input2", str(s_path),
            "--params", '{"drop": "two"}', "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["family"] == "simplex" and data["order"] == 3

    @pytest.mark.parametrize("k", [2, 3])
    def test_even_multi_bialgebra_tower(self, capsys, k):
        # Two factors are k factors at k = 2 and k - 1 factors at k = 3.
        params = json.dumps({"groups": ["z2", "z2"], "k": k, "even": True})
        code, out, _ = run(capsys, "construct", "--recipe", "multi-bialgebra-tower", "--params", params)
        assert code == 0
        data = json.loads(out)
        assert (data["family"], data["order"], data["tensor"]["dim"]) == ("polygon", 2 * k, 4)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bialgebra-tower", "--group", "z3", "--params", '{"n": 11}'], "3^15 = 14348907 columns"),
            (["bialgebra-tower", "--group", "z2", "--params", '{"n": 61}'], "order 61 is over the cap"),
            (["bialgebra-tower", "--group", "z2", "--params", '{"n": "x"}'], "params.n must be an integer"),
            (["multi-bialgebra-tower", "--params", '{"groups": [1]}'], "a list of group names"),
            (
                ["multi-bialgebra-tower", "--params", '{"groups": ["z3", "z3", "z3"], "k": 3}'],
                "27^6 = 387420489 columns",
            ),
        ],
    )
    def test_tower_over_the_caps_or_malformed_refused_before_building(self, capsys, monkeypatch, argv, message):
        for recipe in ("bialgebra_tower", "multi_bialgebra_tower"):
            monkeypatch.setattr(construct, recipe, lambda *args: pytest.fail("tower was built"))
        code, out, err = run(capsys, "construct", "--recipe", *argv)
        assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize(
        "recipe, group, params, legs",
        [
            ("higher-mixed-pair", "z3", {"k": 3}, 16),
            ("higher-mixed-pair", "z2", {"k": 8}, 45),
            ("stack", "z3", {"mode": "tensor"}, 15),
        ],
    )
    def test_recipe_self_check_over_the_column_cap_refused(self, capsys, tmp_path, recipe, group, params, legs):
        # The self-checks of these recipes once ran for minutes: the (2k+3)-gon
        # of a stacked pair, and the 11-gon of a 5-gon and a 7-gon tower.
        h = group_algebra(cyclic_group(int(group[1:])))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        if recipe == "stack":
            first.write_text(json.dumps(construct.bialgebra_tower(5, h).to_json_dict()))
            second.write_text(json.dumps(construct.bialgebra_tower(7, h).to_json_dict()))
        else:
            t_desc, s_desc = hopf_pentagon_pair(h)
            first.write_text(t_desc.tensor.to_json())
            second.write_text(s_desc.tensor.to_json())
        argv = ["construct", "--recipe", recipe, "--input", str(first), "--input2", str(second)]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--params", json.dumps(params))
        assert time.perf_counter() - start < 1
        d = int(group[1:])
        assert (code, out) == (2, "")
        assert err == f"error: the check runs {d}^{legs} = {d**legs} columns, over the cap of {MAX_COLUMNS}\n"

    @pytest.mark.parametrize("n, flags", [(9, ()), (11, ("--no-verify",))])
    def test_admitted_z3_tower(self, capsys, n, flags):
        # --no-verify builds without the self-check, so no cap applies.
        code, out, _ = run(
            capsys, "construct", "--recipe", "bialgebra-tower", "--group", "z3", "--params", json.dumps({"n": n}), *flags
        )
        assert code == 0
        data = json.loads(out)
        assert (data["family"], data["order"], data["tensor"]["dim"]) == ("polygon", n, 3)

    @pytest.mark.parametrize(
        "recipe, group, params, message",
        [
            ("bialgebra-tower", "z3", {"n": 29}, f"the tower maps 3^14 = 4782969 columns, over the cap of {MAX_COLUMNS}"),
            (
                "multi-bialgebra-tower",
                "z3",
                {"groups": ["z3", "z3"], "k": 15, "even": True},
                # refused at the first group, whose order alone is over the cap
                f"the tower maps 3^14 = 4782969 columns, over the cap of {MAX_COLUMNS}",
            ),
            # One column at every order; the 1601-gon took 18 s to build.
            ("bialgebra-tower", "z1", {"n": 1601}, f"equation order 1601 is over the cap of {MAX_ORDER}"),
        ],
    )
    def test_unverified_tower_over_the_caps_refused_before_building(
        self, capsys, monkeypatch, recipe, group, params, message
    ):
        for name in ("bialgebra_tower", "multi_bialgebra_tower"):
            monkeypatch.setattr(construct, name, lambda *args: pytest.fail("tower was built"))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "construct", "--recipe", recipe, "--group", group, "--params", json.dumps(params), "--no-verify"
        )
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unverified_tower_under_the_column_cap_admitted(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--recipe", "bialgebra-tower", "--group", "z3", "--params", '{"n": 21}', "--no-verify"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["order"], data["tensor"]["in_legs"]) == (21, 10)

    @pytest.mark.parametrize(
        "recipe, params",
        [
            ("bialgebra-tower", {"n": 7, "dual": "no"}),
            ("bialgebra-tower", {"n": 7, "dual": 0}),
            ("multi-bialgebra-tower", {"groups": ["z2", "z2"], "even": "false"}),
        ],
    )
    def test_tower_flags_must_be_booleans(self, capsys, monkeypatch, recipe, params):
        """A string flag was once read by its truthiness, so "no" built the dual tower."""
        for name in ("bialgebra_tower", "multi_bialgebra_tower"):
            monkeypatch.setattr(construct, name, lambda *args: pytest.fail("tower was built"))
        code, out, err = run(capsys, "construct", "--recipe", recipe, "--group", "z2", "--params", json.dumps(params))
        flag = "dual" if "dual" in params else "even"
        assert (code, out) == (2, "")
        assert err == f"error: params.{flag} must be true or false, got {params[flag]!r}\n"

    @pytest.mark.parametrize("recipe, message", [
        ("bialgebra-tower", "recipe bialgebra-tower needs --group"),
        ("invert-to-dual", "recipe invert-to-dual needs --input (a descriptor JSON)"),
        ("yang-baxter", "recipe yang-baxter needs --input (a tensor JSON)"),
    ])
    def test_missing_input_refused(self, capsys, recipe, message):
        assert run(capsys, "construct", "--recipe", recipe) == (2, "", f"error: {message}\n")

    def test_order_without_an_equation_left_to_the_recipe(self, capsys):
        """The gate passes an order at which the family has no equation on
        to the builder, which refuses it."""
        code, out, err = run(capsys, "construct", "--recipe", "bialgebra-tower", "--group", "z2", "--params", '{"n": 2}')
        assert (code, out, err) == (2, "", "error: no 2-gon equation\n")

    def test_unknown_recipe(self, capsys):
        code, _, err = run(capsys, "construct", "--recipe", "frobnicate")
        assert code == 2

    def test_unknown_recipe_refused_before_its_input_is_read(self, capsys, tmp_path):
        """The recipe was once looked up after its --input had been read."""
        code, out, err = run(capsys, "construct", "--recipe", "frobnicate", "--input", str(tmp_path / "missing.json"))
        assert (code, out) == (2, "") and "invalid choice: 'frobnicate'" in err

    @pytest.mark.parametrize(
        "recipe, argv, names",
        [
            ("bialgebra-tower", ["--group", "z2"], "n, dual"),
            ("multi-bialgebra-tower", [], "groups, k, even"),
            ("invert-to-dual", ["--input", "unread.json"], "none"),
        ],
    )
    def test_unknown_parameter_refused(self, capsys, monkeypatch, recipe, argv, names):
        """``{"nn": 9}`` once built the default 5-gon tower and exited 0."""
        monkeypatch.setattr(construct, construct.RECIPES[recipe].builder, lambda **kwargs: pytest.fail("built"))
        code, out, err = run(capsys, "construct", "--recipe", recipe, *argv, "--params", '{"nn": 9}')
        assert (code, out, err) == (2, "", f"error: params.nn is not a parameter of {recipe} ({names})\n")

    @pytest.mark.parametrize("recipe", ["trace-descend-mixed", "simplex-from-mixed", "yang-baxter"])
    @pytest.mark.parametrize("flags", [[], ["--no-verify"]])
    def test_mixed_pair_precondition_gated_before_building(self, capsys, monkeypatch, tmp_path, recipe, flags):
        """Each of these checks the mixed relation of its input pair first,
        with the self-check off too: on a z64 pentagon pair the mixed 5-gon
        (64^4) was refused only once both inputs and their maps were built.
        Unchecked, the 4-simplex map of ``simplex-from-mixed`` is refused
        first, as large as that check."""
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(64)), verify=False)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        tensors = recipe == "yang-baxter"
        first.write_text(t_desc.tensor.to_json() if tensors else json.dumps(t_desc.to_json_dict()))
        second.write_text(s_desc.tensor.to_json() if tensors else json.dumps(s_desc.to_json_dict()))
        monkeypatch.setattr(construct, construct.RECIPES[recipe].builder, lambda **kwargs: pytest.fail("built"))
        argv = ["construct", "--recipe", recipe, "--input", str(first), "--input2", str(second), *flags]
        code, out, err = run(capsys, *argv)
        subject = "the recipe maps" if recipe == "simplex-from-mixed" and flags else "the check runs"
        assert (code, out, err) == (2, "", f"error: {subject} 64^4 = {64**4} columns, over the cap of {MAX_COLUMNS}\n")

    @pytest.mark.parametrize("flags", [[], ["--no-verify"]])
    def test_relations_precondition_gated_before_building(self, capsys, monkeypatch, tmp_path, flags):
        """higher-mixed-pair checks relations (1)-(6) of its input pair first
        when k >= 2, with the self-check off too: on a z46 pentagon pair
        relation (4) (46^4) was refused only once both tensors were built."""
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(46)), verify=False)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(t_desc.tensor.to_json())
        second.write_text(s_desc.tensor.to_json())
        monkeypatch.setattr(construct, "higher_mixed_pair", lambda **kwargs: pytest.fail("built"))
        what, _, header = cli.INPUTS["tensor"]
        monkeypatch.setitem(cli.INPUTS, "tensor", (what, lambda data: pytest.fail("tensor built"), header))
        argv = ["construct", "--recipe", "higher-mixed-pair", "--input", str(first), "--input2", str(second)]
        code, out, err = run(capsys, *argv, "--params", '{"k": 2}', *flags)
        assert (code, out, err) == (2, "", f"error: the check runs 46^4 = {46**4} columns, over the cap of {MAX_COLUMNS}\n")

    @pytest.mark.parametrize("flags", [[], ["--no-verify"]])
    @pytest.mark.parametrize("recipe", list(construct.RECIPES))
    def test_recipe_table_lists_the_checks_that_run(self, capsys, monkeypatch, recipe_argv, recipe, flags):
        """Every check a recipe runs on a small valid input is listed in its
        record, in the order it runs, and with --no-verify exactly the
        preconditions run.  The Hopf laws, no checks of the table, run
        through hopf's own name for the comparator and are not counted."""
        ran, gated = [], []
        check_sides, require_recipe = verify._check_sides, cli.require_recipe

        def record_check(equation, sides, legs, d, *rest):
            ran.append((equation, d))
            return check_sides(equation, sides, legs, d, *rest)

        def record_gate(*args, **params):
            gated.append((args[2:], params))
            return require_recipe(*args, **params)

        monkeypatch.setattr(verify, "_check_sides", record_check)
        monkeypatch.setattr(cli, "require_recipe", record_gate)
        code, _, err = run(capsys, "construct", "--recipe", recipe, *recipe_argv[recipe], *flags)
        assert (code, err) == (0, "")
        headers, params = gated[-1]
        listed = construct.RECIPES[recipe].checks(*headers, **params)
        inputs = set(construct.RECIPES[recipe].inputs)
        preconditions = [check for check in listed if set(check[3]) <= inputs]  # the checks that name inputs only
        assert ran == [(EQUATIONS[family].name.format(order), dim) for family, order, dim, _ in (preconditions if flags else listed)]
        assert ran or flags

    @staticmethod
    def fail_checks(monkeypatch, family):
        """Make every check of ``family`` the recipes run fail."""
        check_equation = construct.check_equation

        def failing(name, *args):
            report = check_equation(name, *args)
            report.holds = report.holds and name != family
            return report

        monkeypatch.setattr(construct, "check_equation", failing)

    @pytest.mark.parametrize("flags", [[], ["--no-verify"]])
    def test_failing_precondition_exits_two(self, capsys, monkeypatch, recipe_argv, flags):
        self.fail_checks(monkeypatch, "commutes")
        code, out, err = run(capsys, "construct", "--recipe", "stack", *recipe_argv["stack"], *flags)
        assert (code, out) == (2, "") and err.startswith("error: stack: the inputs fail ['commutation'] (witness ")

    def test_failing_self_check_exits_one(self, capsys, monkeypatch, recipe_argv):
        self.fail_checks(monkeypatch, "mixed")
        code, out, err = run(capsys, "construct", "--recipe", "hopf-pentagon-pair", "--group", "z2")
        assert (code, out) == (1, "")
        assert err == "error: internal self-check failed: hopf-pentagon-pair: the built maps fail ['5-gon mixed relation'] (witness None)\n"
        assert run(capsys, "construct", "--recipe", "hopf-pentagon-pair", "--group", "z2", "--no-verify")[0] == 0

    def test_twisted_relations_are_a_self_check(self, capsys, monkeypatch):
        """The relations of hopf-mixed-pair-antipode's twisted blocks, once
        refused as a precondition (exit 2), are checked on what it builds."""
        self.fail_checks(monkeypatch, "relations")
        argv = ["construct", "--recipe", "hopf-mixed-pair-antipode", "--group", "z2", "--params", '{"k": 2}']
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "relation (1)" in err and "relation (6)" in err
        assert run(capsys, *argv, "--no-verify")[0] == 0

    def test_single_copy_needs_relations_one_to_three(self, capsys, tmp_path):
        """higher-mixed-pair at k = 1 checks the relations it needs, (1)-(3),
        and no longer refuses a z46 pair on relation (4) (46^4) unchecked;
        checked, its mixed 5-gon refuses it."""
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(46)), verify=False)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(t_desc.tensor.to_json())
        second.write_text(s_desc.tensor.to_json())
        argv = ["construct", "--recipe", "higher-mixed-pair", "--input", str(first), "--input2", str(second)]
        code, out, _ = run(capsys, *argv, "--params", '{"k": 1}', "--no-verify")
        assert code == 0 and json.loads(out)["first"]["order"] == 5
        code, out, err = run(capsys, *argv, "--params", '{"k": 1}')
        assert (code, out, err) == (2, "", f"error: the check runs 46^4 = {46**4} columns, over the cap of {MAX_COLUMNS}\n")

    def test_yang_baxter_checks_its_pentagons_unchecked_too(self, capsys, tmp_path):
        """2T and 2S satisfy the mixed 5-gon relation, which has three T and
        two S on one side and two T and three S on the other, but not the
        pentagon equations; with --no-verify they were once admitted."""
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(2)))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(t_desc.tensor.scale(2).to_json())
        second.write_text(s_desc.tensor.scale(2).to_json())
        argv = ["construct", "--recipe", "yang-baxter", "--input", str(first), "--input2", str(second), "--no-verify"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: yang-baxter: the inputs fail ['5-gon', 'dual 5-gon'] ")

    def test_readme_lists_the_recipe_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme.split("Construct recipes:", 1)[1].split(".\n", 1)[0]
        assert re.findall(r"`([a-z0-9-]+)`", listed) == list(construct.RECIPES)

    def test_singular_input_exits_two(self, capsys, tmp_path):
        from polysimplex.construct import SolutionDescriptor

        diag = SolutionDescriptor("polygon", 5, from_function(2, 2, 2, lambda x: (x[0], x[0])))
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(diag.to_json_dict()))
        code, _, _ = run(capsys, "construct", "--recipe", "invert-to-dual", "--input", str(path))
        assert code == 2


# A fresh interpreter runs the CLI and reports its exit code and peak RSS
# (kB).  A child spawned from the test process itself would report the
# test process's peak: Linux keeps the old address space's high-water mark
# across exec.
MEASURE_CLI = """
import os, resource, sys
# A regression then fails its test with the child killed, not the machine exhausted.
for limit, value in ((resource.RLIMIT_AS, 2 << 30), (resource.RLIMIT_CPU, 120)):
    resource.setrlimit(limit, (value, value))
argv = [sys.executable, "-m", "polysimplex.cli", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def measure_cli(*argv):
    """Exit code, peak RSS (kB) and wall seconds of the CLI run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(polysimplex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("POLYSIMPLEX_SCALAR", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", MEASURE_CLI, *argv], env=env, capture_output=True, text=True, check=True)
    seconds = time.perf_counter() - start
    code, maxrss_kb = map(int, proc.stderr.split())
    return code, maxrss_kb, seconds


def swap_two_outputs(t):
    """``t`` with the outputs of two of its columns swapped."""
    swapped = dict(t.entries)
    (a, ia), (b, ib) = sorted(swapped)[1], sorted(swapped)[7]
    del swapped[(a, ia)], swapped[(b, ib)]
    swapped.update({(b, ia): t.ring.one, (a, ib): t.ring.one})
    return Tensor(t.dim, t.in_legs, t.out_legs, swapped, t.ring)


class TestDemoAndCatalog:
    def test_demo_z2(self, capsys, tmp_path):
        report_path = tmp_path / "demo.json"
        code, out, _ = run(capsys, "demo", "--group", "z2", "--report", str(report_path))
        assert code == 0
        assert out.count("PASS") == 10
        assert "FAIL" not in out
        data = json.loads(report_path.read_text())
        assert data["4-simplex for R4"]["holds"] is True

    def test_demo_derives_each_table_once(self, capsys, monkeypatch):
        """Every check reads a map's rank table and output masks from the
        map; over k[Z3] they were once derived anew by each check, 187 table
        scans for about 12 maps."""
        tables, masks = [], []
        table_of, derive_masks = vars(Tensor)["_table"], tensor_module._output_masks
        monkeypatch.setattr(table_of, "func", lambda f, derive=table_of.func: tables.append(f) or derive(f))
        monkeypatch.setattr(tensor_module, "_output_masks", lambda table, *shape: masks.append(table) or derive_masks(table, *shape))
        assert run(capsys, "demo", "--group", "z3")[0] == 0
        for derived in (tables, masks):
            assert derived and len(set(map(id, derived))) == len(derived)

    def test_demo_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "demo", "--group", "z2")
        code2, out2, _ = run(capsys, "demo", "--group", "z2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_demo_over_the_column_cap_refused(self, capsys):
        code, out, err = run(capsys, "demo", "--group", "z5")
        assert code == 2 and out == ""
        assert err == f"error: the check runs 5^10 = {5**10} columns, over the cap of {MAX_COLUMNS}\n"

    @pytest.mark.parametrize("group", ["z161", "s5"])
    def test_demo_over_the_column_cap_refused_before_the_table_is_built(self, capsys, monkeypatch, group):
        """z161 once spent 1.2-1.8 s, and s5 about 1 s, validating its
        Cayley table before the 4-simplex cap refused it."""
        order = {"z161": 161, "s5": 120}[group]

        def refuse(self):
            raise AssertionError("a Cayley table was built")

        monkeypatch.setattr(GroupTable, "__post_init__", refuse)
        code, out, err = run(capsys, "demo", "--group", group)
        assert code == 2 and out == ""
        assert err == f"error: the check runs {order}^10 = {order**10} columns, over the cap of {MAX_COLUMNS}\n"

    @pytest.mark.parametrize("group", ["z200", "z5000", "s6", "s10", "json"])
    def test_oversized_group_refused_before_it_is_built(self, capsys, tmp_path, group):
        """Validating a Cayley table checks order^3 products, and s_n lists
        n! permutations first: z200 once took 3.7 s to be refused, s6 more
        than 100 s."""
        order = {"z200": 200, "z5000": 5000, "s6": 720, "s10": 3628800, "json": 200}[group]
        subject = f"the associativity check of {group} runs"
        if group == "json":
            group = str(tmp_path / "z200.json")
            table = [[(a + b) % order for b in range(order)] for a in range(order)]
            (tmp_path / "z200.json").write_text(json.dumps({"order": order, "table": table}))
            subject = "the associativity check of the group runs"
        start = time.perf_counter()
        code, out, err = run(capsys, "demo", "--group", group)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.endswith(f"{subject} {order}^3 = {order**3} columns, over the cap of {MAX_COLUMNS}\n")

    def test_hopf_pentagon_pair_z100_in_bounded_time_and_memory(self, tmp_path):
        """The bialgebra axioms of k[Z100] once built placed factors of
        d^4 = 10^8 entries: the build ran for more than 120 s."""
        path = tmp_path / "pair.json"
        code, maxrss_kb, seconds = measure_cli(
            "construct", "--recipe", "hopf-pentagon-pair", "--group", "z100", "--no-verify", "--out", str(path)
        )
        data = json.loads(path.read_text())
        assert code == 0
        assert (data["first"]["family"], data["first"]["tensor"]["dim"]) == ("polygon", 100)
        assert seconds < 15
        assert maxrss_kb < 60 * 1024

    def test_demo_v4_in_bounded_memory(self):
        """Both 4^10-column sides of the 4-simplex check were once built (781 MB)."""
        src = os.path.dirname(os.path.dirname(polysimplex.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("POLYSIMPLEX_SCALAR", None)
        proc = subprocess.run(
            [sys.executable, "-c", MEASURE_CLI, "demo", "--group", "v4"],
            env=env, capture_output=True, text=True, check=True,
        )
        code, maxrss_kb = map(int, proc.stderr.split())
        checks = [line for line in proc.stdout.splitlines() if line.startswith("check ")]
        assert code == 0
        assert len(checks) == 10 and all(line.endswith(": PASS") for line in checks)
        assert maxrss_kb < 100 * 1024

    @pytest.mark.parametrize("dual", [False, True], ids=["polygon", "dual-polygon"])
    def test_z2_tower_13_gon_in_bounded_time(self, dual):
        """The tensor and set checks of the z2 tower 13-gon, 2^21 columns
        each, run only the dependency cones of their legs; over every
        column they took about 3 s each."""
        tower = construct.bialgebra_tower(13, group_algebra(cyclic_group(2)), dual=dual, verify=False).tensor
        image = {inp: out for out, inp in tower.entries}
        fmap = FiniteMap.from_callable(2, tower.in_legs, tower.out_legs, image.__getitem__)
        for check in (lambda: check_polygon(tower, 13, dual), lambda: check_polygon_set(fmap, 13, dual)):
            start = time.perf_counter()
            assert check().holds
            assert time.perf_counter() - start < 1

    def test_trace_descend_v4_in_bounded_memory(self, tmp_path):
        """The self-check of the descended v4 7-gon, whose maps are no basis
        functions, once built both of its sides (151 MB, 10.5 s)."""
        src = os.path.dirname(os.path.dirname(polysimplex.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("POLYSIMPLEX_SCALAR", None)
        tower, descended = tmp_path / "tower.json", tmp_path / "descended.json"
        subprocess.run(
            [sys.executable, "-m", "polysimplex.cli", "construct", "--recipe", "bialgebra-tower", "--group", "v4",
             "--params", '{"n": 9}', "--no-verify", "--out", str(tower)],
            env=env, check=True,
        )
        proc = subprocess.run(
            [sys.executable, "-c", MEASURE_CLI, "construct", "--recipe", "trace-descend",
             "--input", str(tower), "--out", str(descended)],
            env=env, capture_output=True, text=True, check=True,
        )
        code, maxrss_kb = map(int, proc.stderr.split())
        data = json.loads(descended.read_text())
        assert code == 0
        assert (data["family"], data["order"], data["tensor"]["dim"]) == ("polygon", 7, 4)
        assert maxrss_kb < 60 * 1024

    def test_failing_z3_tower_9_gon_in_bounded_memory(self, tmp_path):
        """A failing check on total basis functions streams both sides; it
        once contracted them (70 MB) after the dependency cones found the
        difference.  The report is the one of the built sides."""
        tower = construct.bialgebra_tower(9, group_algebra(cyclic_group(3)), verify=False).tensor
        t = swap_two_outputs(tower)
        path, report = tmp_path / "t.json", tmp_path / "report.json"
        path.write_text(t.to_json())
        code, maxrss_kb, _ = measure_cli("verify", "--family", "polygon", "--n", "9", "--tensor", str(path), "--report", str(report))
        sides = (
            contract_staged([(t, p) for _, p in side.gather_positions()], len(side.free_inputs), 3, t.ring)
            for side in compile_polygon(9)
        )
        assert code == 1
        assert json.loads(report.read_text()) == oracle.compare_sides("9-gon", *sides).to_json_dict()
        assert maxrss_kb < 40 * 1024

    def test_failing_f64_z3_tower_9_gon_in_bounded_memory(self, tmp_path):
        """The f64 check once contracted both sides (66-71 MB) after the
        dependency cones found the difference."""
        tower = construct.bialgebra_tower(9, group_algebra(cyclic_group(3), F64), verify=False).tensor
        t = swap_two_outputs(tower)
        path, report = tmp_path / "t.json", tmp_path / "report.json"
        path.write_text(t.to_json())
        code, maxrss_kb, _ = measure_cli("verify", "--family", "polygon", "--n", "9", "--tensor", str(path), "--report", str(report))
        sides = (
            contract_staged([(t, p) for _, p in side.gather_positions()], len(side.free_inputs), 3, t.ring)
            for side in compile_polygon(9)
        )
        assert code == 1
        assert json.loads(report.read_text()) == oracle.compare_sides("9-gon", *sides).to_json_dict()
        assert maxrss_kb < 30 * 1024

    def test_failing_v4_4_simplex_in_bounded_time_and_memory(self, tmp_path):
        """The v4 4-simplex map with two outputs swapped: once all 4^10
        columns of both sides were pushed (18-22 s), and before that
        contracted (973 MB)."""
        g = direct_product(cyclic_group(2), cyclic_group(2))
        t_desc, s_desc = hopf_pentagon_pair(group_algebra(g), verify=False)
        r = swap_two_outputs(pair_to_simplex_map(t_desc.tensor, s_desc.tensor))
        path, report = tmp_path / "r.json", tmp_path / "report.json"
        path.write_text(r.to_json())
        code, maxrss_kb, seconds = measure_cli(
            "verify", "--family", "simplex", "--n", "4", "--tensor", str(path), "--report", str(report)
        )
        # compare_sides of the two built sides, which take about 1 GB.
        witness = {"out": [0] * 8 + [1, 0], "in": [0] * 8 + [1, 0], "lhs": "1/1", "rhs": "0/1"}
        expect = {"equation": "4-simplex", "holds": False, "max_deviation": "1",
                  "lhs_dims": [4, 10, 10], "rhs_dims": [4, 10, 10], "witness": witness}
        assert code == 1
        assert json.loads(report.read_text()) == expect
        assert seconds < 6
        assert maxrss_kb < 40 * 1024

    def test_catalog_contains_ten_gon_rhs(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-n", "10")
        assert code == 0
        assert "T_{59,12,14}T_{48,11,13}T_{37,10,11}T_{2678}T_{1234}" in out

    def test_catalog_idempotent(self, capsys):
        _, out1, _ = run(capsys, "catalog", "--max-n", "10", "--format", "json")
        _, out2, _ = run(capsys, "catalog", "--max-n", "10", "--format", "json")
        assert out1 == out2

    def test_catalog_three(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-n", "3")
        lines = [l for l in out.splitlines() if l]
        assert code == 0
        # one line per family; the 3-gon and dual 3-gon render identically,
        # so only three distinct equations appear
        assert len(lines) == 4
        assert len({l.split(": ", 1)[1] for l in lines}) == 3

    def test_catalog_bounds(self, capsys):
        assert run(capsys, "catalog", "--max-n", "13")[0] == 2

    def test_build_catalog_simplex_range(self):
        cat = build_catalog(10)
        assert set(cat["simplex"]) == {"1", "2", "3", "4"}
        assert set(cat["mixed"]) == {"3", "5", "7", "9"}


class TestScalarContextEnv:
    def test_env_var_selects_ring(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYSIMPLEX_SCALAR", "gfp:5")
        out_path = tmp_path / "pair.json"
        code, _, _ = run(
            capsys,
            "construct", "--recipe", "hopf-pentagon-pair", "--group", "z3", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["first"]["tensor"]["scalar"] == "gfp:5"

    def test_invalid_env_ring(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYSIMPLEX_SCALAR", "gfp:6")
        code, _, _ = run(capsys, "demo", "--group", "z2")
        assert code == 2


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Well-formed, malformed and unreadable input files for the CLI fuzz test."""
    root = tmp_path_factory.mktemp("fuzz")
    t_desc, s_desc = hopf_pentagon_pair(group_algebra(cyclic_group(2)))
    tensor = t_desc.tensor.to_json_dict()
    documents = {
        "tensor": tensor,
        "tensor2": s_desc.tensor.to_json_dict(),
        "descriptor": t_desc.to_json_dict(),
        "map": FiniteMap.from_callable(2, 1, 1, lambda a: a).to_json_dict(),
        "list": [1, 2],
        "number": 3,
        "empty": {},
        "bad-entries": dict(tensor, entries=[[1]]),
        "entries-not-list": dict(tensor, entries=5),
        "dim-is-text": dict(tensor, dim="2"),
        "bad-ring": dict(tensor, scalar="gfp:x"),
        "map-table-list": {"base": 2, "in": 1, "out": 1, "table": [1]},
        "map-base-text": {"base": "2", "in": 1, "out": 1, "table": {}},
        "group-table-number": {"table": 3},
        "descriptor-tensor-number": {"tensor": 1},
    }
    paths = []
    for name, data in documents.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    (root / "junk.json").write_text("{not json")
    (root / "binary.json").write_bytes(b"\xff\xfe\x00\x81")
    (root / "out").mkdir()
    paths += [str(root / "junk.json"), str(root / "binary.json"), str(root), str(root / "missing.json")]
    return paths, [str(root / "out" / "written.json"), str(root)]


COMMANDS = {
    "gen-eq": ("--family", "--n", "--format"),
    "compile": ("--family", "--n", "--emit"),
    "verify": ("--family", "--n", "--tensor", "--tensor2", "--tolerance", "--report"),
    "set-verify": ("--family", "--n", "--map", "--report"),
    "set-enumerate": ("--family", "--n", "--base", "--format"),
    "construct": ("--recipe", "--group", "--input", "--input2", "--params", "--out", "--no-verify"),
    "demo": ("--group", "--out", "--report"),
    "catalog": ("--max-n", "--format"),
    "frobnicate": (),
}
RECIPES = [*construct.RECIPES, "frobnicate"]


@st.composite
def fuzz_argv(draw, paths, outputs):
    """A subcommand with mostly its own flags, small orders and bases only
    (base-3 5-gon enumeration and the v4 demo are not desk scale)."""
    values = {
        "--family": st.sampled_from(["polygon", "dual-polygon", "simplex", "mixed", "commutes", "relations", "x"]),
        "--n": st.sampled_from(["-1", "0", "2", "3", "4", "5", "x"]),
        "--format": st.sampled_from(["text", "json", "x"]),
        "--emit": st.sampled_from(["program", "placements", "dot", "x"]),
        "--tolerance": st.sampled_from(["0", "-1", "1e-9", "nan", "x"]),
        "--base": st.sampled_from(["-1", "0", "1", "2", "x"]),
        "--recipe": st.sampled_from(RECIPES),
        "--group": st.sampled_from(["z1", "z2", "s2", "z0", "s0", "x"] + paths),
        "--params": st.sampled_from(["{}", "[1]", "x", '{"n": 4}', '{"k": 1}', '{"n": "x"}', '{"k": 0}',
                                     '{"mode": "x"}', '{"groups": ["z2"]}', '{"groups": "z2"}', '{"side": "x"}']),
        "--max-n": st.sampled_from(["-1", "2", "5", "13", "x"]),
        "--no-verify": st.none(),
        **{flag: st.sampled_from(paths) for flag in ("--tensor", "--tensor2", "--map", "--input", "--input2")},
        **{flag: st.sampled_from(outputs) for flag in ("--report", "--out")},
    }
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = draw(st.lists(st.sampled_from(COMMANDS[command] or ("--n",)), unique=True))
    flags += draw(st.lists(st.sampled_from(sorted(values)), max_size=1))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        value = draw(values[flag])
        if value is not None:
            argv.append(value)
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_contract_code(fuzz_files, data):
    argv = data.draw(fuzz_argv(*fuzz_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


# Commands that read or write a path under a regular file ("{bad}"), which
# fails with NotADirectoryError even for root; "{map}" is a valid finite map.
OS_ERRORS = {
    "set-verify read": ["set-verify", "--n", "3", "--map", "{bad}"],
    "verify read": ["verify", "--family", "polygon", "--n", "3", "--tensor", "{bad}"],
    "demo out": ["demo", "--group", "z2", "--out", "{bad}"],
    "demo report": ["demo", "--group", "z2", "--report", "{bad}"],
    "set-verify report": ["set-verify", "--n", "3", "--map", "{map}", "--report", "{bad}"],
    "construct out": ["construct", "--recipe", "hopf-pentagon-pair", "--group", "z2", "--out", "{bad}"],
}


@pytest.mark.parametrize("name", list(OS_ERRORS))
def test_os_errors_are_usage_errors(capsys, tmp_path, name):
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory")
    fmap = tmp_path / "map.json"
    fmap.write_text(json.dumps(FiniteMap.from_callable(2, 1, 1, lambda a: a).to_json_dict()))
    argv = [arg.format(bad=plain / "x", map=fmap) for arg in OS_ERRORS[name]]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
