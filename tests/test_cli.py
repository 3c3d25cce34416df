import argparse
import json
import math

import pytest

from slicebound import bodies, bounds, decomp, oracle
from slicebound.errors import StructuralError
from slicebound.bounds import ALL_BOUNDS
from slicebound.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def cube3(tmp_path, capsys):
    path = tmp_path / "cube3.json"
    code, out, _ = run(capsys, "construct", "cube", "--n", "3",
                       "--output", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def cube3_one_sided(tmp_path, capsys):
    path = tmp_path / "cube3os.json"
    code, _, _ = run(capsys, "construct", "cube", "--n", "3", "--one-sided",
                     "--output", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def b1_ball(tmp_path, cube3_one_sided):
    with open(cube3_one_sided) as fh:
        inner = json.load(fh)
    path = tmp_path / "b1.json"
    path.write_text(json.dumps(
        {"p": 1.0, "alphas": [1.0, 1.0, 1.0], "decomp": inner}))
    return str(path)


@pytest.fixture
def b101_ball(tmp_path, cube3_one_sided):
    # p = 1.01 lies below gamma_p's domain, so kp_lower raises there
    with open(cube3_one_sided) as fh:
        inner = json.load(fh)
    path = tmp_path / "b101.json"
    path.write_text(json.dumps(
        {"p": 1.01, "alphas": [1.0, 1.0, 1.0], "decomp": inner}))
    return str(path)


class TestConstruct:
    def test_cube_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "cube", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 2
        assert len(data["vectors"]) == 4

    def test_hadamard(self, capsys):
        code, out, _ = run(capsys, "construct", "hadamard", "--k", "2",
                           "--n", "3")
        assert code == 0
        assert len(json.loads(out)["weights"]) == 4

    def test_bad_regime_exit1(self, capsys):
        code, _, err = run(capsys, "construct", "hadamard", "--k", "2",
                           "--n", "9")
        assert code == 1
        assert "error" in err

    def test_simplex(self, capsys):
        code, out, _ = run(capsys, "construct", "simplex", "--n", "3")
        assert code == 0
        assert json.loads(out)["centered"]


class TestValidate:
    def test_ok(self, capsys, cube3):
        code, out, _ = run(capsys, "validate", "--input", cube3)
        assert code == 0
        assert json.loads(out)["passed"]

    def test_broken_system_exit1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dim": 2, "vectors": [[1.0, 0.0], [0.0, 2.0]],
            "weights": [1.0, 1.0],
        }))
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert not json.loads(out)["passed"]

    def test_malformed_json_exit1(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 1

    def test_missing_file_exit1(self, capsys):
        code, _, _ = run(capsys, "validate", "--input", "/no/such/file.json")
        assert code == 1

    def test_missing_input_exit1(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 1
        assert "--input" in err

    def test_missing_field_exit1(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"dim": 2}))
        code, _, _ = run(capsys, "validate", "--input", str(path))
        assert code == 1


class TestProject:
    def test_coordinate(self, capsys, cube3):
        code, out, _ = run(capsys, "project", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}')
        assert code == 0
        data = json.loads(out)
        assert data["support"] == [0, 1, 3, 4]
        assert data["identity_residual"] < 1e-10

    def test_missing_subspace_exit1(self, capsys, cube3):
        code, _, err = run(capsys, "project", "--input", cube3)
        assert code == 1
        assert "--subspace" in err
        code, _, err = run(capsys, "verify", "--input", cube3)
        assert code == 1
        assert "--subspace" in err
        code, out, err = run(capsys, "bound", "--input", cube3)
        assert code == 1
        assert out == ""
        assert "--subspace" in err

    @pytest.mark.parametrize("indices", ["[-1]", "[5]", "[0.5]"])
    def test_bad_coordinate_exit1(self, capsys, cube3, indices):
        code, out, err = run(capsys, "project", "--input", cube3,
                             "--subspace", f'{{"coordinate": {indices}}}')
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "coordinate index" in err

    def test_inline_basis(self, capsys, cube3):
        code, out, _ = run(capsys, "project", "--input", cube3,
                           "--subspace", '{"basis": [[1.0, 1.0, 0.0]]}')
        assert code == 0
        assert len(json.loads(out)["tilde_weights"]) == 4


class TestBound:
    def test_all_bounds_json(self, capsys, cube3_one_sided):
        code, out, _ = run(capsys, "bound", "--input", cube3_one_sided,
                           "--subspace", '{"coordinate": [0, 1]}')
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"entries"}
        names = {e["name"] for e in data["entries"]}
        assert "symmetric_case1" in names and "mean_width" in names
        by_name = {e["name"]: e["value"] for e in data["entries"]}
        assert by_name["symmetric_case1"] == pytest.approx(4.0)

    def test_gate_exit2_value_null(self, capsys, cube3):
        # the entry is still reported: no value, the formula's value beside
        code, out, _ = run(capsys, "bound", "--input", cube3,
                           "--subspace", '{"basis": [[1.0, 1.0, 1.0]]}',
                           "--bounds", "symmetric_case1")
        assert code == 2
        entry = json.loads(out)["entries"][0]
        assert entry["value"] is None
        assert entry["formula_value"] > 0
        assert not entry["gate"]["satisfied"]

    def test_one_centering_test(self, capsys, tmp_path, monkeypatch):
        # cmd_bound, bodies.nonsym_section_polytope and
        # decomp.lift_nonsymmetric share one centering test that reads
        # decomp.TOL_IDENTITY.  Shifting every simplex vector by s moves
        # sum c_j v_j to (sum c_j) s, here 1e-10, and the identity by ~1e-20.
        simplex = bodies.simplex_decomposition(3)
        shift = 1e-10 / (simplex.weights.sum() * math.sqrt(3.0))
        system = decomp.JohnDecomposition(3, simplex.vectors + shift,
                                          simplex.weights, centered=True)
        assert system.centering_residual() == pytest.approx(1e-10, rel=1e-3)
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(system.to_dict()))
        argv = ("bound", "--input", str(path),
                "--subspace", '{"coordinate": [0, 1, 2]}')
        nonsym = {"nonsym_fourier", "nonsym_hyperplane"}
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert nonsym <= {e["name"] for e in json.loads(out)["entries"]}
        monkeypatch.setattr(decomp, "TOL_IDENTITY", 1e-11)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert not nonsym & {e["name"] for e in json.loads(out)["entries"]}
        F = decomp.Subspace.coordinate(3, range(3))
        with pytest.raises(StructuralError, match="centered"):
            bodies.nonsym_section_polytope(system, F)
        with pytest.raises(StructuralError, match="centered"):
            decomp.lift_nonsymmetric(system, F)

    def test_wills_functional_at_large_p(self, capsys, cube3_one_sided):
        # p_j = 401 here, beyond the Wills factor's quadrature range
        plane = '{"basis": [[1, 0, 0.05], [0, 1, 0]]}'
        code, out, _ = run(capsys, "bound", "--input", cube3_one_sided,
                           "--subspace", plane, "--bounds", "wills_functional")
        assert code == 0
        value = json.loads(out)["entries"][0]["value"]
        assert math.isfinite(value) and value > 0

    def test_unknown_bound_exit1(self, capsys, cube3):
        code, _, err = run(capsys, "bound", "--input", cube3,
                           "--subspace", '{"coordinate": [0]}',
                           "--bounds", "bogus_name")
        assert code == 1
        assert "valid names" in err

    def test_help_lists_every_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ALL_BOUNDS:
            assert name in text

    def test_kp_ball_bounds(self, capsys, b1_ball):
        code, out, _ = run(capsys, "bound", "--input", b1_ball,
                           "--subspace", '{"basis": [[1.0, 1.0, 0.0]]}')
        assert code == 0
        names = {e["name"] for e in json.loads(out)["entries"]}
        assert "k1_upper" in names and "kp_lower" in names

    def test_kp_lower_outside_gamma_p_domain(self, capsys, b101_ball):
        argv = ("bound", "--input", b101_ball,
                "--subspace", '{"basis": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}')
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [e["name"] for e in json.loads(out)["entries"]] == ["kp_upper"]
        code, out, err = run(capsys, *argv, "--bounds", "kp_lower")
        assert code == 1
        assert out == ""
        assert "supported p" in err

    def test_centered_all_hits_nonsym_gate(self, capsys, cube3):
        # a centered system also evaluates the nonsymmetric bounds, whose
        # kappa >= 1/2 gate fails on coordinate sections of the cube; every
        # entry is still reported, the failed ones with a null value
        code, out, _ = run(capsys, "bound", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}')
        assert code == 2
        entries = {e["name"]: e for e in json.loads(out)["entries"]}
        assert list(entries) == [
            "symmetric_case1", "symmetric_case1_coarse", "ab_old",
            "wills_volume", "wills_functional", "mean_width",
            "nonsym_fourier", "nonsym_hyperplane"]
        for name, e in entries.items():
            failed = name.startswith("nonsym")
            assert e["gate"]["satisfied"] is not failed
            assert (e["value"] is None) is failed
            assert ("formula_value" in e) is failed
        assert entries["nonsym_fourier"]["formula_value"] > 0
        code, out, _ = run(capsys, "bound", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--bounds", "symmetric_case1,mean_width")
        assert code == 0
        by_name = {e["name"]: e["value"] for e in json.loads(out)["entries"]}
        assert by_name["symmetric_case1"] == pytest.approx(4.0)

    def test_csv_format(self, capsys, cube3_one_sided):
        code, out, _ = run(capsys, "bound", "--input", cube3_one_sided,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value,gate_condition,gate_satisfied"
        assert any(line.startswith("symmetric_case1,") for line in lines)

    def test_csv_null_value_empty_cell(self, capsys, cube3):
        code, out, _ = run(capsys, "bound", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--bounds", "ab_old,nonsym_fourier",
                           "--format", "csv")
        assert code == 2
        assert out.strip().splitlines()[1:] == [
            "ab_old,4,none,True", "nonsym_fourier,,all kappa >= 1/2,False"]


class TestVerify:
    def test_section(self, capsys, cube3):
        code, out, _ = run(capsys, "verify", "section", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--samples", "20000", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["exact"] == pytest.approx(4.0)
        assert abs(data["mc_mean"] - 4.0) <= 3 * data["mc_std_error"] + 1e-12
        # the square is its own envelope
        assert data["mc_hit_rate"] == 1.0

    def test_section_gate_fails_exit2(self, capsys, cube3):
        # the (1, 1, 0) line: tc = 1/4 on e_1 and e_2, so case 1's gate fails;
        # both oracles and every bound are still reported
        code, out, _ = run(capsys, "verify", "section", "--input", cube3,
                           "--subspace", '{"basis": [[1, 1, 0]]}',
                           "--samples", "5000", "--seed", "7")
        assert code == 2
        data = json.loads(out)
        assert data["exact"] == pytest.approx(2.0 * math.sqrt(2.0))
        assert data["mc_mean"] > 0
        entries = {e["name"]: e for e in data["bounds"]}
        assert entries["symmetric_case1"]["value"] is None
        assert entries["symmetric_case1"]["formula_value"] > 0
        assert entries["ab_old"]["value"] >= data["exact"]

    def test_section_bounds_selection(self, capsys, cube3):
        code, out, _ = run(capsys, "verify", "section", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--samples", "5000", "--bounds", "ab_old")
        assert code == 0
        assert [e["name"] for e in json.loads(out)["bounds"]] == ["ab_old"]

    def test_section_exact_above_limit(self, capsys, tmp_path):
        # above oracle.EXACT_MAX_K the Monte-Carlo oracle stands alone
        path = str(tmp_path / "cube4.json")
        code, _, _ = run(capsys, "construct", "cube", "--n", "4",
                         "--output", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "section", "--input", path,
                           "--subspace", '{"coordinate": [0, 1, 2, 3]}',
                           "--samples", "5000", "--bounds", "ab_old")
        assert code == 0
        data = json.loads(out)
        assert "exact" not in data
        assert data["mc_mean"] > 0

    @pytest.mark.parametrize("what", ["parseval", "wills"])
    def test_ball_unchecked_exit1(self, capsys, b1_ball, what):
        code, out, err = run(capsys, "verify", what, "--input", b1_ball,
                             "--subspace", '{"coordinate": [0, 1]}',
                             "--samples", "5000")
        assert code == 1
        assert out == ""
        assert "l_p ball" in err

    def test_ball_section_mc_only(self, capsys, b1_ball):
        # l_p balls have no exact oracle, at any k
        code, out, _ = run(capsys, "verify", "section", "--input", b1_ball,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--samples", "5000", "--bounds", "k1_upper")
        assert code == 0
        data = json.loads(out)
        assert "exact" not in data
        assert data["mc_mean"] > 0

    def test_ball_section_m0_equals_k(self, capsys, b1_ball):
        # the lower bounds degenerate on a coordinate section (m0 = k), so
        # "all" leaves them out; asked for by name they still fail
        argv = ("verify", "section", "--input", b1_ball,
                "--subspace", '{"coordinate": [0, 1]}', "--samples", "5000")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        names = {e["name"] for e in json.loads(out)["bounds"]}
        assert {"k1_upper", "k1_intermediate", "kp_upper"} <= names
        assert not names & {"k1_lower", "kp_lower"}
        code, out, err = run(capsys, *argv, "--bounds", "kp_lower")
        assert code == 1
        assert out == ""
        assert "m0 = k" in err

    def test_parseval(self, capsys, cube3_one_sided):
        code, out, _ = run(capsys, "verify", "parseval",
                           "--input", cube3_one_sided,
                           "--subspace", '{"basis": [[1.0, 1.0, 0.0]]}')
        assert code == 0
        data = json.loads(out)
        assert data["agree"]
        assert data["lhs"] == pytest.approx(2.0 * math.sqrt(2.0))

    def test_parseval_d2(self, capsys, cube3_one_sided):
        # a line in R^3: complement dimension 2, held to the rhs's 1e-8
        code, out, _ = run(capsys, "verify", "parseval",
                           "--input", cube3_one_sided,
                           "--subspace", '{"basis": [[1.0, 2.0, 3.0]]}')
        assert code == 0
        data = json.loads(out)
        assert data["agree"] and not data["gates"]["mc_rhs"]
        assert data["abs_difference"] <= 1e-8

    def test_parseval_d2_quadrature_failure_exit1(self, capsys,
                                                  cube3_one_sided,
                                                  monkeypatch):
        # QUADPACK's failure message (a fourth value) is an error, not a
        # warning beside "agree"
        monkeypatch.setattr(
            oracle.integrate, "quad",
            lambda *args, **kw: (1.0, 1.0, {}, "The algorithm does not "
                                 "converge."))
        code, out, err = run(capsys, "verify", "parseval",
                             "--input", cube3_one_sided,
                             "--subspace", '{"basis": [[1.0, 2.0, 3.0]]}')
        assert code == 1
        assert out == ""
        assert "does not converge" in err

    def test_parseval_trivial_factor(self, capsys, cube3_one_sided):
        # e_1 lies in H, so its factor is trivial (tc_1 = 1) and enters the
        # rhs as a constant; the section is [-1, 1] x [-sqrt 2, sqrt 2]
        code, out, _ = run(capsys, "verify", "parseval",
                           "--input", cube3_one_sided,
                           "--subspace",
                           '{"basis": [[1, 0, 0], [0, 1, 1]]}')
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True
        assert data["lhs"] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
        assert data["rhs"] == pytest.approx(data["lhs"], rel=1e-8)

    def test_parseval_full_space_mc(self, capsys, tmp_path):
        # k = 4: the lhs is Monte-Carlo and agrees within its error bar
        path = str(tmp_path / "simplex4.json")
        code, _, _ = run(capsys, "construct", "simplex", "--n", "4",
                         "--output", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "parseval", "--input", path,
                           "--subspace", '{"coordinate": [0, 1, 2, 3]}',
                           "--seed", "0")
        data = json.loads(out)
        assert code == 0
        assert data["agree"] is True
        assert data["gates"]["lhs_std_error"] > 0

    def test_parseval_full_space_parallelotope(self, capsys, tmp_path):
        # the full-space Hadamard(2, 4) body is a parallelotope, its own
        # Monte-Carlo envelope: every sample hits, the lhs is 16 and its
        # error the Wilson half-width at hit rate 1
        path = str(tmp_path / "had24.json")
        code, _, _ = run(capsys, "construct", "hadamard", "--k", "2",
                         "--n", "4", "--output", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "parseval", "--input", path,
                           "--subspace", '{"coordinate": [0, 1, 2, 3]}')
        data = json.loads(out)
        assert code == 0
        assert data["agree"] is True
        assert data["lhs"] == pytest.approx(16.0, rel=1e-12)
        assert data["gates"]["lhs_std_error"] > 0

    def test_wills(self, capsys, cube3):
        code, out, _ = run(capsys, "verify", "wills", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--samples", "50000", "--seed", "3")
        assert code == 0
        data = json.loads(out)
        assert data["dominates"]
        assert data["bound"] == pytest.approx(9.0, rel=1e-9)
        assert data["distances"] == "exact"

    def test_wills_full_space(self, capsys, cube3):
        # the bound is sharp here: it equals W(cube) = 27
        code, out, _ = run(capsys, "verify", "wills", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1, 2]}',
                           "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["dominates"]
        assert data["bound"] == pytest.approx(27.0, rel=1e-9)

    def test_wills_k4_dykstra(self, capsys, tmp_path):
        # above oracle.EXACT_MAX_K the distances come from Dykstra's scheme
        path = str(tmp_path / "cube4.json")
        assert run(capsys, "construct", "cube", "--n", "4",
                   "--output", path)[0] == 0
        code, out, _ = run(capsys, "verify", "wills", "--input", path,
                           "--subspace", '{"coordinate": [0, 1, 2, 3]}',
                           "--samples", "20000", "--seed", "2")
        assert code == 0
        data = json.loads(out)
        assert data["distances"] == "dykstra"
        assert data["bound"] == pytest.approx(81.0, rel=1e-9)

    def test_wills_not_dominating_exit2(self, capsys, cube3, monkeypatch):
        monkeypatch.setattr(bounds, "bound_wills_functional",
                            lambda proj, lam: 1e-3)
        code, out, _ = run(capsys, "verify", "wills", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--samples", "5000", "--seed", "3")
        assert code == 2
        assert json.loads(out)["dominates"] is False

    def test_seed_env(self, capsys, cube3, monkeypatch):
        # seeds come from --seed alone: the environment is not read
        monkeypatch.setenv("SLICEBOUND_SEED", "17")
        code, out, _ = run(capsys, "verify", "section", "--input", cube3,
                           "--subspace", '{"coordinate": [0, 1]}',
                           "--samples", "5000")
        assert code == 0
        assert json.loads(out)["seed"] == 0

    def test_deterministic(self, capsys, cube3):
        argv = ("verify", "section", "--input", cube3,
                "--subspace", '{"basis": [[1.0, 0.5, 0.0]]}',
                "--samples", "20000", "--seed", "5")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestSweep:
    def test_csv_rows(self, capsys, cube3):
        code, out, _ = run(capsys, "sweep", "--input", cube3, "--count", "3",
                           "--k", "2", "--samples", "5000", "--seed", "2",
                           "--bounds", "ab_old,mean_width", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["row", "inputs_digest", "k"]
        assert "ab_old" in lines[0]
        assert len(lines) == 4

    @pytest.mark.parametrize("names, expected", [("all", 2), ("ab_old", 0)])
    def test_rows_whole(self, capsys, cube3, names, expected):
        # random planes of the two-sided cube(3) fail case 1's gate: each
        # such cell is null, and exit 2 says so; the exact volume fills its
        # column at k = 2
        argv = ("sweep", "--input", cube3, "--count", "3", "--k", "2",
                "--samples", "5000", "--seed", "4", "--bounds", names)
        code, out, _ = run(capsys, *argv)
        assert code == expected
        data = json.loads(out)
        cols = data["columns"]
        assert cols[-3:] == ["oracle_mean", "oracle_std_error", "exact"]
        assert len(data["rows"]) == 3
        for row in data["rows"]:
            cell = dict(zip(cols, row))
            assert abs(cell["exact"] - cell["oracle_mean"]) <= (
                5 * cell["oracle_std_error"])
            assert cell["ab_old"] >= cell["exact"]
            if names == "all":
                assert cell["symmetric_case1"] is None
                assert cell["wills_volume"] >= cell["exact"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == expected
        lines = out.strip().splitlines()
        assert len(lines) == 4
        if names == "all":
            assert lines[0].startswith("row,inputs_digest,k,symmetric_case1,")
            assert all(line.split(",")[3] == "" for line in lines[1:])

    def test_empty_sweep_header_only(self, capsys, cube3):
        code, out, _ = run(capsys, "sweep", "--input", cube3, "--count", "0",
                           "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    @pytest.mark.parametrize("k", ["0", "4"])
    def test_k_outside_dimension_exit1(self, capsys, cube3, k):
        # k = 4 in R^3 would sweep the whole space and report it as k = 4
        code, out, err = run(capsys, "sweep", "--input", cube3, "--k", k,
                             "--samples", "1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "1 <= k <= 3" in err

    def test_negative_count_exit1(self, capsys, cube3):
        code, out, err = run(capsys, "sweep", "--input", cube3,
                             "--count", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--count" in err

    def test_deterministic(self, capsys, cube3):
        argv = ("sweep", "--input", cube3, "--count", "2", "--k", "1",
                "--samples", "5000", "--seed", "9",
                "--bounds", "ab_old")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestOutputFile:
    def test_written_to_path(self, tmp_path, capsys, cube3_one_sided):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "bound", "--input", cube3_one_sided,
                           "--subspace", '{"coordinate": [0]}',
                           "--output", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["entries"]


SUB = '{"coordinate": [0, 1]}'
# the options each subcommand reads, 34 settable values in all; nothing
# else is accepted
SURFACE = {
    "validate": {"--input", "--output", "--format"},
    "project": {"--input", "--subspace", "--output", "--format"},
    "bound": {"--input", "--subspace", "--bounds", "--output", "--format"},
    "verify": {"what", "--input", "--subspace", "--bounds", "--samples",
               "--seed", "--output", "--format"},
    "construct": {"body", "--k", "--n", "--one-sided", "--output",
                  "--format"},
    "sweep": {"--input", "--count", "--k", "--bounds", "--samples",
              "--seed", "--output", "--format"},
}
# a value for each option; None for flags.  Four are retired, and no
# subcommand accepts them: --tol-identity and --tol-proj (the tolerances are
# fixed constants), --oracle (sections get every oracle that exists) and
# --force (a failed gate is reported as a null value)
VALUES = {
    "--input": "cube3.json", "--subspace": SUB,
    "--bounds": "ab_old", "--oracle": "mc", "--force": None,
    "--samples": "5000", "--seed": "1", "--tol-identity": "1e-8",
    "--tol-proj": "1e-9", "--count": "1", "--k": "1", "--n": "3",
    "--one-sided": None, "--output": "out.json", "--format": "json",
}
# an invocation of each subcommand that succeeds; CUBE3 stands for the
# cube3 fixture's path
BASE = {
    "validate": ["validate", "--input", "CUBE3"],
    "project": ["project", "--input", "CUBE3", "--subspace", SUB],
    "bound": ["bound", "--input", "CUBE3", "--subspace", SUB,
              "--bounds", "ab_old"],
    "verify": ["verify", "section", "--input", "CUBE3", "--subspace", SUB,
               "--samples", "5000", "--bounds", "ab_old"],
    "construct": ["construct", "cube", "--n", "3"],
    "sweep": ["sweep", "--input", "CUBE3", "--count", "1",
              "--samples", "5000", "--bounds", "ab_old"],
}
UNREAD = ([(cmd, opt) for cmd in SURFACE for opt in VALUES
           if opt not in SURFACE[cmd]]
          + [(f"verify {what}", opt) for what in ("parseval", "wills")
             for opt in ("--bounds", "--oracle", "--force")])


class TestParserCache:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_between_calls(self, capsys, cube3):
        argv = ("verify", "wills", "--input", cube3,
                "--subspace", '{"coordinate": [0, 1]}', "--seed", "3")
        code, out, _ = run(capsys, *argv, "--samples", "2000")
        assert code == 0
        assert json.loads(out)["samples"] == 2000
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["samples"] == 10 ** 5


class TestOptionSurface:
    def test_options_per_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {a.option_strings[0] if a.option_strings else a.dest
                   for a in p._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()}
        assert found == SURFACE

    @pytest.mark.parametrize("cmd, option", UNREAD)
    def test_unread_option_exit1(self, capsys, cube3, cmd, option):
        name, _, what = cmd.partition(" ")
        argv = [cube3 if a == "CUBE3" else a for a in BASE[name]]
        if what:
            argv[1] = what
        argv.append(option)
        if VALUES[option] is not None:
            argv.append(VALUES[option])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert option in err

    @pytest.mark.parametrize("argv", [
        ["construct"], ["sweep", "--count", "many"], [],
        ["validate", "--format", "xml"]])
    def test_usage_error_exit1(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err

    def test_verify_unknown_option_named(self, capsys, cube3):
        code, out, err = run(capsys, "verify", "--input", cube3,
                             "--subspace", SUB, "--n", "3")
        assert code == 1
        assert out == ""
        assert "--n" in err

    def test_verify_unknown_mode(self, capsys, cube3):
        code, out, err = run(capsys, "verify", "bogus", "--input", cube3,
                             "--subspace", SUB)
        assert code == 1
        assert out == ""
        assert "section, parseval, wills" in err
