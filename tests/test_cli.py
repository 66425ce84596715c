import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from rqclattice import cli, perms, plaquette
from rqclattice.cli import main
from rqclattice.montecarlo import estimate_frame_potential
from rqclattice.perms import SymmetricGroupTable, group_table, haar_frame_potential


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

    @pytest.mark.parametrize("argv, digest", [
        ("--k 4 --q 3 --format csv", "27d81bb3fa0ab4ae"),
        ("--k 4 --nonzero-only --q 2", "e6b1d0c38db10087"),
        ("--k 3 --nonzero-only --format csv", "5251d5edffa202a7"),
        ("--k 5 --q 2", "ab4e81154f57437c"),
    ])
    def test_dump_bytes_pinned(self, capsys, argv, digest):
        # sha256 prefixes of the whole stdout, frozen from the per-key renderer
        code, out, _ = run_cli(capsys, "plaquettes", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("q", ["1", "0", "-3"])
    def test_q_below_two_refused(self, capsys, q):
        code, out, err = run_cli(capsys, "plaquettes", "--k", "2", "--q", q)
        assert code == 4 and out == ""
        assert "--q" in err

    def test_k6_requires_key(self, capsys):
        code, _, err = run_cli(capsys, "plaquettes", "--k", "6")
        assert code == 4
        env = run_json(capsys, "plaquettes", "--k", "6", "--key", "213456", "123456", "--q", "2")
        assert env["result"][0]["weight"] == "(q) / (q^2 + 1)"


def plaquette_rows(monkeypatch, argv) -> dict:
    """Each row of a plaquettes command as the bytes its dump writes, by key."""
    envelopes = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda envelope, *args: envelopes.append(envelope))
        assert main(argv.split()) == 0
    rows = envelopes[0]["result"]
    keys = [(rows.names[a], rows.names[b]) for a, b, _ in rows.cells]
    return dict(zip(keys, rows.encoded()))


# the option sets every single-key row is checked under
KEY_OPTIONS = ["", "--q 3", "--nonzero-only", "--q 2 --nonzero-only"]


class TestSingleKey:
    """`plaquettes --key` renders one key from two columns of rel, without the
    class map: its row must be the full dump's row for that key, byte for byte."""

    @staticmethod
    def _check_keys(monkeypatch, k, options, keys):
        full = plaquette_rows(monkeypatch, f"plaquettes --k {k} {options}")
        for a, b in keys:
            single = plaquette_rows(monkeypatch, f"plaquettes --k {k} --key {a} {b} {options}")
            # --nonzero-only drops a zero weight from both
            assert single == ({(a, b): full[a, b]} if (a, b) in full else {}), (a, b)

    @pytest.mark.parametrize("options", KEY_OPTIONS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_key_small_k(self, monkeypatch, k, options):
        names = ["".join(map(str, p.images)) for p in group_table(k).perms]
        self._check_keys(monkeypatch, k, options, [(a, b) for a in names for b in names])

    @pytest.mark.parametrize("options", KEY_OPTIONS)
    def test_seeded_keys_k5(self, monkeypatch, options):
        names = ["".join(map(str, p.images)) for p in group_table(5).perms]
        rng = random.Random(5)
        keys = [(rng.choice(names), rng.choice(names)) for _ in range(500)]
        self._check_keys(monkeypatch, 5, options, keys)

    def test_seeded_keys_k6_against_the_class_table(self, monkeypatch):
        table = plaquette.build_table(6)
        gt = group_table(6)
        # a fresh group table, so the columns come from the image codes, not rel
        fresh = SymmetricGroupTable(6)
        rng = random.Random(6)
        for _ in range(20):
            ia, ib = rng.randrange(720), rng.randrange(720)
            sig = table.class_signature(table._cls[ia, ib])
            w = table._weight_by_index(ia, ib)
            assert plaquette.key_weight(fresh, ia, ib) == w
            assert plaquette.key_signature(fresh, ia, ib) == sig
            a, b = ("".join(map(str, gt.perms[i].images)) for i in (ia, ib))
            expected = {"key_left": a, "key_right": b, **cli._plaquette_fields(sig, w, 2)}
            rows = plaquette_rows(monkeypatch, f"plaquettes --k 6 --key {a} {b} --q 2")
            assert list(rows) == [(a, b)] and json.loads(rows[a, b]) == expected
        assert "rel" not in vars(fresh) and "mul" not in vars(fresh)

    def test_moment_cap_checked_before_any_work(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("work before the moment cap")

        for module, name in [(perms, "enumerate_sk"), (plaquette, "key_weight"),
                             (plaquette, "key_signature"), (plaquette, "build_table")]:
            monkeypatch.setattr(module, name, never)
        code, out, err = run_cli(capsys, "plaquettes", "--k", "7", "--key", "2134567", "1234567")
        assert code == 2 and out == ""


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

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_d_below_one_refused(self, capsys, d):
        code, out, err = run_cli(capsys, "weingarten", "--k", "2", "--d", d)
        assert code == 4 and out == ""
        assert "--d" in err

    def test_d_one_accepted(self, capsys):
        env = run_json(capsys, "weingarten", "--k", "1", "--d", "1")
        assert env["result"][0]["value_at_d"] == "1"

    @pytest.mark.parametrize("argv, digest", [
        ("--k 5 --d 3", "98f95c5b6796a4c9"),
        ("--k 6 --format csv", "d44dfb20c8234a2e"),
    ])
    def test_dump_bytes_pinned(self, capsys, argv, digest):
        # sha256 prefixes of the whole stdout, frozen from the Fraction-coefficient renderer
        code, out, _ = run_cli(capsys, "weingarten", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestFramePotentialCommand:
    def test_exact_transfer_t1(self, capsys):
        env = run_json(capsys, "framepotential", "exact-transfer",
                       "--n", "6", "--q", "2", "--t", "1", "--k", "2")
        assert env["result"]["value"] == "8"

    def test_float_t1_overflow_is_strict_json_infinity(self, capsys):
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        code, out, _ = run_cli(capsys, "framepotential", "exact-transfer", "--n", "1000", "--q", "3",
                               "--t", "1", "--k", "6", "--backend", "float")
        assert code == 0
        assert json.loads(out, parse_constant=refuse)["result"]["value_float"] == "Infinity"

    def test_exact_t1_overflow_is_strict_json_infinity(self, capsys):
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        code, out, _ = run_cli(capsys, "framepotential", "exact-transfer", "--n", "1000", "--q", "3",
                               "--t", "1", "--k", "6")
        assert code == 0
        result = json.loads(out, parse_constant=refuse)["result"]
        assert result["value_float"] == "Infinity"
        value = Fraction(result["value"])
        assert value.denominator == 1 and value > 10**400

    def test_montecarlo_overflow_is_strict_json(self, capsys):
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        code, out, _ = run_cli(capsys, "framepotential", "montecarlo", "--n", "4", "--q", "2",
                               "--t", "2", "--k", "2000", "--samples", "20", "--seed", "0")
        assert code == 0
        result = json.loads(out, parse_constant=refuse)["result"]
        assert (result["mean"], result["std_error"], result["max_sample"]) == ("Infinity", "NaN", "Infinity")

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

    @pytest.mark.parametrize("method,flags", [
        ("montecarlo", ["--gauge-fix"]),
        ("montecarlo", ["--backend", "exact"]),
        ("exact-transfer", ["--two-sided"]),
        ("exact-direct", ["--two-sided"]),
        ("exact-direct", ["--backend", "float"]),
    ])
    def test_ignored_flag_rejected(self, capsys, method, flags):
        code, out, err = run_cli(capsys, "framepotential", method,
                                 "--n", "4", "--q", "2", "--t", "2", "--k", "2", *flags)
        assert code == 4
        assert out == "" and flags[0] in err

    @pytest.mark.parametrize("method,flags", [
        ("exact-transfer", ["--k", "3"]),
        ("exact-transfer", ["--k", "2", "--backend", "float", "--bc", "periodic"]),
        ("exact-direct", ["--k", "3"]),
        ("exact-transfer", ["--k", "3", "--t", "1"]),
    ])
    def test_gauge_fix_changes_no_output(self, capsys, method, flags):
        # every sweep pins; the flag is accepted with a note on stderr
        argv = ["framepotential", method, "--n", "4", "--q", "2", "--t", "3", *flags]
        code, out, err = run_cli(capsys, *argv)
        fixed_code, fixed_out, fixed_err = run_cli(capsys, *argv, "--gauge-fix")
        assert code == fixed_code == 0
        assert fixed_out == out
        assert err == "" and fixed_err.count("\n") == 1 and "--gauge-fix" in fixed_err

    def test_backend_defaults_to_exact(self, capsys):
        for method in ("exact-direct", "exact-transfer"):
            env = run_json(capsys, "framepotential", method,
                           "--n", "4", "--q", "2", "--t", "2", "--k", "2")
            assert env["parameters"]["backend"] == "exact"
        env = run_json(capsys, "framepotential", "exact-direct", "--backend", "exact",
                       "--n", "4", "--q", "2", "--t", "2", "--k", "2")
        assert env["result"]["value"] == "66/25"

    def test_montecarlo_rejects_threads_below_one(self, capsys):
        code, _, err = run_cli(capsys, "framepotential", "montecarlo",
                               "--n", "4", "--q", "2", "--t", "2", "--k", "2",
                               "--samples", "10", "--threads", "-3")
        assert code == 4
        assert "threads" in err

    @pytest.mark.parametrize("change", [
        ("--k", "-1"), ("--k", "0"), ("--n", "1"), ("--q", "1"),
        ("--t", "-1", "--two-sided"), ("--seed", "-3"), ("--seed", str(2**64)),
    ])
    def test_montecarlo_refuses_what_the_exact_routes_refuse(self, capsys, change):
        args = {"--n": "4", "--q": "2", "--t": "2", "--k": "2", "--samples": "10"}
        code, out, err = run_cli(capsys, "framepotential", "montecarlo", *change,
                                 *(x for name, value in args.items() if name not in change
                                   for x in (name, value)))
        assert (code, out) == (4, "")
        assert err.startswith("error: ")

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


class TestParser:
    def test_built_once_and_reused(self, capsys):
        from rqclattice import cli

        assert cli._build_parser() is cli._build_parser()
        # a flag of one call does not carry into the next
        args = ["framepotential", "montecarlo", "--n", "4", "--q", "2", "--t", "2", "--k", "1",
                "--samples", "4", "--seed", "3"]
        assert run_json(capsys, *args, "--two-sided")["parameters"]["two_sided"] is True
        assert run_json(capsys, *args)["parameters"]["two_sided"] is False


class TestBoundsCommand:
    def test_fp2_substitution(self, capsys):
        env = run_json(capsys, "bounds", "--n", "4", "--q", "2", "--k", "2", "--t", "3")
        by_name = {row["name"]: row for row in env["result"]}
        assert by_name["fp2_upper_bound"]["value"] == pytest.approx(2.8192)

    def test_fp2_overflow_prints_infinity(self, capsys):
        env = run_json(capsys, "bounds", "--n", "100000", "--q", "2", "--k", "2", "--t", "3")
        by_name = {row["name"]: row for row in env["result"]}
        assert by_name["fp2_upper_bound"]["value"] == "Infinity"
        assert float(by_name["fp2_upper_bound"]["value"]) == math.inf

    def test_overflow_envelope_is_strict_json(self, capsys):
        # no bare Infinity or NaN token: a strict parser reads the envelope
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        for fmt in ("json", "csv"):
            code, out, _ = run_cli(capsys, "bounds", "--n", "100000", "--q", "2", "--k", "2",
                                   "--t", "3", "--format", fmt)
            assert code == 0
            if fmt == "json":
                json.loads(out, parse_constant=refuse)
            else:
                assert "fp2_upper_bound,Infinity" in out

    def test_t_capped_before_any_work(self, capsys, monkeypatch):
        from rqclattice import bounds

        def never(*args):
            raise AssertionError("a bound was computed")

        for name in ("fp2_upper_bound", "single_wall_bound_k", "fp_k_leading", "c1_images"):
            monkeypatch.setattr(bounds, name, never)
        code, out, err = run_cli(capsys, "bounds", "--n", "4", "--q", "2", "--k", "2",
                                 "--t", str(bounds.T_CAP + 1))
        assert (code, out) == (2, "")
        assert "t <= 40000" in err

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

    @pytest.mark.parametrize("nqk", [("1", "2", "2"), ("4", "1", "2"), ("4", "2", "0"),
                                     ("0", "2", "1"), ("4", "-2", "2"), ("4", "2", "-1")])
    @pytest.mark.parametrize("extra", [(), ("--t", "3"), ("--epsilon", "0.01"),
                                       ("--t", "3", "--epsilon", "0.01")])
    def test_out_of_range_refused_whatever_the_other_flags(self, capsys, nqk, extra):
        n, q, k = nqk
        code, out, err = run_cli(capsys, "bounds", "--n", n, "--q", q, "--k", k, *extra)
        assert code == 4 and out == ""
        assert err.startswith("error:")

    def test_smallest_valid_parameters_accepted(self, capsys):
        env = run_json(capsys, "bounds", "--n", "2", "--q", "2", "--k", "1")
        assert [row["name"] for row in env["result"]] == ["tk_lower_bound"]


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

    @pytest.mark.parametrize("q", ["1", "0"])
    def test_q_below_two_refused_before_any_section(self, capsys, q):
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--q", q)
        assert code == 4 and out == ""
        assert "[verify]" not in err and "--q must be >= 2" in err

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
