"""CLI behaviour: command output, exit codes, and file round trips."""

import json

import pytest

from polysimplex import construct
from polysimplex.cli import build_catalog, main
from polysimplex.hopf import cyclic_group, group_algebra
from polysimplex.construct import hopf_pentagon_pair
from polysimplex.setmaps import FiniteMap
from polysimplex.tensor import flip, from_function
from polysimplex.verify import SelfCheckFailed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        path.write_text(flip(2).to_json())
        code, out, _ = run(capsys, "verify", "--family", "simplex", "--n", "2", "--tensor", str(path))
        assert code == 0
        assert "holds" in out

    def test_failing_tensor_exits_one_with_report(self, capsys, tmp_path):
        path = tmp_path / "flip.json"
        report_path = tmp_path / "report.json"
        path.write_text(flip(2).to_json())
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
        path.write_text(flip(2).to_json())
        code, _, err = run(capsys, "verify", "--family", "polygon", "--n", "7", "--tensor", str(path))
        assert code == 2 and "error" in err

    def test_mixed_needs_second_tensor(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(flip(2).to_json())
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
        from polysimplex.rings import F64

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
        path.write_text(flip(2).to_json())
        code, _, err = run(
            capsys, "verify", "--family", "simplex", "--n", "2",
            "--tensor", str(path), "--tolerance", "1e-6",
        )
        assert code == 2 and "f64" in err


@pytest.mark.parametrize("case", ["tensor-is-directory", "params-not-object", "malformed-ring-tag"])
def test_malformed_input_exits_two(capsys, tmp_path, case):
    if case == "tensor-is-directory":
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", str(tmp_path)]
    elif case == "params-not-object":
        argv = ["construct", "--recipe", "bialgebra-tower", "--group", "z2", "--params", "[1]"]
    else:
        data = json.loads(flip(2).to_json())
        data["scalar"] = "gfp:x"
        path = tmp_path / "bad-ring.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--family", "simplex", "--n", "2", "--tensor", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error" in err


class TestSetCommands:
    def test_set_verify(self, capsys, tmp_path):
        fmap = FiniteMap.from_callable(2, 2, 2, lambda a: (a[0], (a[0] + a[1]) % 2))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(fmap.to_json_dict()))
        code, out, _ = run(capsys, "set-verify", "--family", "polygon", "--n", "5", "--map", str(path))
        assert code == 0 and "holds" in out

    def test_set_enumerate_counts(self, capsys):
        code, out, _ = run(capsys, "set-enumerate", "--family", "polygon", "--n", "3", "--base", "2")
        assert code == 0
        assert out.splitlines()[0] == "3 solution(s)"

    def test_set_enumerate_cap(self, capsys):
        code, _, _ = run(capsys, "set-enumerate", "--family", "polygon", "--n", "7", "--base", "2")
        assert code == 2


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

    def test_unknown_recipe(self, capsys):
        code, _, err = run(capsys, "construct", "--recipe", "frobnicate")
        assert code == 2

    def test_singular_input_exits_two(self, capsys, tmp_path):
        from polysimplex.construct import SolutionDescriptor

        diag = SolutionDescriptor("polygon", 5, from_function(2, 2, 2, lambda x: (x[0], x[0])))
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(diag.to_json_dict()))
        code, _, _ = run(capsys, "construct", "--recipe", "invert-to-dual", "--input", str(path))
        assert code == 2


class TestDemoAndCatalog:
    def test_demo_z2(self, capsys, tmp_path):
        report_path = tmp_path / "demo.json"
        code, out, _ = run(capsys, "demo", "--group", "z2", "--report", str(report_path))
        assert code == 0
        assert out.count("PASS") == 10
        assert "FAIL" not in out
        data = json.loads(report_path.read_text())
        assert data["4-simplex for R4"]["holds"] is True

    def test_demo_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "demo", "--group", "z2")
        code2, out2, _ = run(capsys, "demo", "--group", "z2")
        assert code1 == code2 == 0
        assert out1 == out2

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
