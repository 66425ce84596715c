import csv
import io
import json
from fractions import Fraction

import pytest

from rqclattice.cli import main
from rqclattice.montecarlo import estimate_frame_potential
from rqclattice.perms import haar_frame_potential


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestEnvelope:
    def test_shape_and_round_trip(self, capsys):
        env = run_json(capsys, "framepotential", "exact-transfer",
                       "--n", "4", "--q", "2", "--t", "2", "--k", "2")
        assert set(env) == {"command", "parameters", "result", "provenance"}
        assert env["provenance"]["version"]
        assert env["provenance"]["method"] == "transfer"
        # round trip: parse -> dump -> parse is stable
        assert json.loads(json.dumps(env)) == env

    def test_exact_values_are_fraction_strings(self, capsys):
        env = run_json(capsys, "framepotential", "exact-direct",
                       "--n", "4", "--q", "2", "--t", "2", "--k", "2")
        assert env["result"]["value"] == "66/25"
        assert env["result"]["value_float"] == pytest.approx(2.64)


class TestPlaquettesCommand:
    def test_k2_at_q2_contains_single_wall_value(self, capsys):
        env = run_json(capsys, "plaquettes", "--k", "2", "--q", "2")
        values = {row["value_at_q"] for row in env["result"]}
        assert "2/5" in values and "1" in values and "0" in values

    def test_k1_single_row(self, capsys):
        env = run_json(capsys, "plaquettes", "--k", "1")
        assert len(env["result"]) == 1
        assert env["result"][0]["weight"] == "1"

    def test_csv_json_numeric_parity(self, capsys):
        env = run_json(capsys, "plaquettes", "--k", "2", "--q", "3")
        code, out, _ = run_cli(capsys, "plaquettes", "--k", "2", "--q", "3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(env["result"])
        for csv_row, json_row in zip(rows, env["result"]):
            for field in ("key_left", "key_right", "weight_num", "weight_den", "value_at_q"):
                assert csv_row[field] == str(json_row[field])

    def test_k6_requires_key(self, capsys):
        code, _, err = run_cli(capsys, "plaquettes", "--k", "6")
        assert code == 4
        env = run_json(capsys, "plaquettes", "--k", "6", "--key", "213456", "123456", "--q", "2")
        assert env["result"][0]["weight"] == "(q) / (q^2 + 1)"


class TestWeingartenCommand:
    def test_k2_dump(self, capsys):
        env = run_json(capsys, "weingarten", "--k", "2", "--d", "4")
        by_ct = {row["cycle_type"]: row for row in env["result"]}
        assert by_ct["1,1"]["value_at_d"] == "1/15"
        assert by_ct["2"]["value_at_d"] == "-1/60"

    def test_pole_marked(self, capsys):
        env = run_json(capsys, "weingarten", "--k", "3", "--d", "2")
        values = {row["value_at_d"] for row in env["result"]}
        assert "pole" in values


class TestFramePotentialCommand:
    def test_exact_transfer_t1(self, capsys):
        env = run_json(capsys, "framepotential", "exact-transfer",
                       "--n", "6", "--q", "2", "--t", "1", "--k", "2")
        assert env["result"]["value"] == "8"

    def test_k1_exact_direct(self, capsys):
        env = run_json(capsys, "framepotential", "exact-direct",
                       "--n", "4", "--q", "2", "--t", "2", "--k", "1")
        assert env["result"]["value"] == "1"

    def test_montecarlo_seeded(self, capsys):
        env = run_json(capsys, "framepotential", "montecarlo",
                       "--n", "4", "--q", "2", "--t", "2", "--k", "1",
                       "--samples", "500", "--seed", "7")
        assert env["parameters"]["seed"] == 7
        assert env["result"]["samples"] == 500
        assert abs(env["result"]["mean"] - 1.0) < 5 * env["result"]["std_error"]
        # determinism
        env2 = run_json(capsys, "framepotential", "montecarlo",
                        "--n", "4", "--q", "2", "--t", "2", "--k", "1",
                        "--samples", "500", "--seed", "7")
        assert env2["result"]["mean"] == env["result"]["mean"]

    def test_samples_flag_requires_montecarlo(self, capsys):
        code, _, err = run_cli(capsys, "framepotential", "exact-direct",
                               "--n", "4", "--q", "2", "--t", "2", "--k", "2",
                               "--samples", "10")
        assert code == 4

    def test_threads_flag_requires_montecarlo(self, capsys):
        code, _, _ = run_cli(capsys, "framepotential", "exact-transfer",
                             "--n", "4", "--q", "2", "--t", "2", "--k", "2",
                             "--threads", "2")
        assert code == 4
        code, _, _ = run_cli(capsys, "plaquettes", "--k", "2", "--threads", "2")
        assert code == 4

    def test_montecarlo_rejects_threads_below_one(self, capsys):
        code, _, err = run_cli(capsys, "framepotential", "montecarlo",
                               "--n", "4", "--q", "2", "--t", "2", "--k", "2",
                               "--samples", "10", "--threads", "-3")
        assert code == 4
        assert "threads" in err

    def test_montecarlo_single_sided_t1_rejected(self, capsys):
        code, _, err = run_cli(capsys, "framepotential", "montecarlo",
                               "--n", "4", "--q", "2", "--t", "1", "--k", "2")
        assert code == 4
        assert "--two-sided" in err

    def test_montecarlo_honours_bc(self, capsys):
        env = run_json(capsys, "framepotential", "montecarlo", "--bc", "periodic",
                       "--n", "4", "--q", "2", "--t", "2", "--k", "2",
                       "--samples", "200", "--seed", "3", "--threads", "2")
        est = estimate_frame_potential(4, 2, 2, 2, samples=200, seed=3, bc="periodic")
        assert env["result"]["mean"] == est.mean
        assert "jackknife_error" not in env["result"]

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "framepotential", "exact-transfer",
                               "--n", "20", "--q", "2", "--t", "6", "--k", "3")
        assert code == 2
        assert "budget" in err.lower()

    def test_direct_k6_through_gram_oracle(self, capsys):
        # d = q^2 = 9 >= k sends the direct route to the Gram oracle; the one
        # gate is a Haar unitary on U(9), whose frame potential is 6! = 720
        env = run_json(capsys, "framepotential", "exact-direct",
                       "--n", "2", "--q", "3", "--t", "2", "--k", "6")
        assert env["result"]["value"] == str(haar_frame_potential(6, 9)) == "720"


class TestBoundsCommand:
    def test_fp2_substitution(self, capsys):
        env = run_json(capsys, "bounds", "--n", "4", "--q", "2", "--k", "2", "--t", "3")
        by_name = {row["name"]: row for row in env["result"]}
        assert by_name["fp2_upper_bound"]["value"] == pytest.approx(2.8192)

    def test_design_depth(self, capsys):
        env = run_json(capsys, "bounds", "--n", "10", "--q", "2", "--k", "2",
                       "--epsilon", "0.01")
        by_name = {row["name"]: row for row in env["result"]}
        import math
        c = 1 / math.log(5 / 4)
        assert by_name["t2_design_depth"]["constant"] == pytest.approx(c)

    def test_lower_bound(self, capsys):
        env = run_json(capsys, "bounds", "--n", "100", "--q", "2", "--k", "10")
        by_name = {row["name"]: row for row in env["result"]}
        assert by_name["tk_lower_bound"]["value"] == pytest.approx(1.81, abs=0.01)


class TestVerifyCommand:
    def test_k2_passes(self, capsys):
        env = run_json(capsys, "verify", "--k", "2", "--q", "2")
        assert env["result"]["ok"] is True
        sections = {s["section"] for s in env["result"]["sections"]}
        assert {"plaquette_rules", "pole_freeness", "weingarten_cross_oracle",
                "evaluator_equivalence"} <= sections

    def test_k3_includes_pole_section(self, capsys):
        env = run_json(capsys, "verify", "--k", "3", "--q", "2")
        assert env["result"]["ok"] is True
        assert any(s["section"] == "pole_freeness" and s["ok"] for s in env["result"]["sections"])

    def test_k6_runs_every_section(self, capsys):
        env = run_json(capsys, "verify", "--k", "6", "--q", "2")
        assert env["result"]["ok"] is True
        sections = env["result"]["sections"]
        assert [s["section"] for s in sections] == [
            "plaquette_rules", "asymptotic_orders", "pole_freeness",
            "weingarten_cross_oracle", "evaluator_equivalence"]
        assert all(s["ok"] for s in sections)
        assert "225991 checks" in sections[1]["detail"]
        assert "35 checks" in sections[2]["detail"]


class TestGeometryCommand:
    def test_dump(self, capsys):
        env = run_json(capsys, "geometry", "--n", "4", "--t", "2", "--bc", "periodic")
        assert env["result"]["layers"] == [[[1, 2], [3, 4]], [[2, 3], [4, 1]]]


class TestExitCodes:
    def test_surfaced_pole_is_invariant_violation(self, capsys):
        # the direct route at k=5, q=2 hits the genuine Weingarten pole at d=4
        code, _, err = run_cli(capsys, "framepotential", "exact-direct",
                               "--n", "4", "--q", "2", "--t", "2", "--k", "5")
        assert code == 3
        assert "pole" in err.lower()

    def test_bad_subcommand(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 4

    def test_bad_flag_value(self, capsys):
        assert run_cli(capsys, "framepotential", "exact-direct",
                       "--n", "1", "--q", "2", "--t", "2", "--k", "2")[0] == 4

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "plaquettes")[0] == 4
