"""Command-line surface: table dumps, evaluations, estimates, bounds, verification.

Every command prints a JSON envelope {command, parameters, result, provenance}
to stdout (or bare CSV rows with --format csv); diagnostics go to stderr.
Exact rationals are serialized as "p/q" strings, never floats.  Exit codes:
0 success, 2 budget exceeded (including a moment k outside 1..6), 3 invariant
violation (including surfaced poles), 4 bad arguments.  `verify` runs every
section at every k <= 6.

Environment knob: RQCLATTICE_STATE_BUDGET (contraction state budget, default
4e6).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import BudgetExceededError, PoleError, VerificationError
from .perms import Perm, group_table
from .plaquette import (
    asymptotic_check,
    build_table,
    pole_free_report,
    verify_rules,
)
from .weingarten import weingarten_table, wg_gram, wg_symbolic
from .lattice import (
    build_geometry,
    frame_potential_direct,
    frame_potential_transfer,
)
from .montecarlo import estimate_frame_potential
from . import bounds as bounds_mod

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVARIANT = 3
EXIT_BAD_ARGS = 4

# An output-size guard, not a moment cap: a full dump prints (k!)^2 rows,
# 14 400 at k=5 and 518 400 at k=6.
FULL_DUMP_MAX_K = 5


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _frac(x) -> str:
    return str(Fraction(x))


def _envelope(command: str, parameters: dict, result, provenance: dict | None = None) -> dict:
    prov = {"version": __version__}
    if provenance:
        prov.update(provenance)
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "provenance": prov,
    }


def _emit(envelope: dict, fmt: str, csv_rows: list[dict] | None = None) -> None:
    if fmt == "json":
        print(json.dumps(envelope, indent=2, sort_keys=True))
        return
    rows = csv_rows if csv_rows is not None else [_flatten(envelope["result"])]
    buf = io.StringIO()
    if rows:
        fieldnames: list[str] = []
        for row in rows:
            for name in row:
                if name not in fieldnames:
                    fieldnames.append(name)
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            name = f"{prefix}{key}"
            if isinstance(val, (dict, list)):
                flat[name] = json.dumps(val)
            else:
                flat[name] = val
    else:
        flat[f"{prefix}value"] = obj
    return flat


def _parse_perm(text: str, k: int) -> Perm:
    digits = [c for c in text if c.isdigit()]
    if len(digits) != k:
        raise _ArgumentError(f"permutation {text!r} must list {k} images, e.g. '213'")
    return Perm(int(c) for c in digits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_plaquettes(args) -> int:
    k = args.k
    if k > FULL_DUMP_MAX_K and not args.key:
        raise _ArgumentError(
            f"full plaquette dumps are capped at k={FULL_DUMP_MAX_K}; "
            "pass --key SIGMA12 SIGMA13 for k=6"
        )
    table = build_table(k)
    rows = []
    if args.key:
        a = _parse_perm(args.key[0], k)
        b = _parse_perm(args.key[1], k)
        gt = group_table(k)
        entries = [
            (a, b, table._signature_by_index(gt.idx(a), gt.idx(b)), table.weight_by_key(a, b))
        ]
    else:
        entries = table.entries()
    for a, b, sig, w in entries:
        if args.nonzero_only and w.is_zero():
            continue
        row = {
            "key_left": "".join(map(str, a.images)),
            "key_right": "".join(map(str, b.images)),
            "in_left": sig.in_left,
            "in_right": sig.in_right,
            "across": sig.across,
            "weight_num": ";".join(w.num.coeff_strings()),
            "weight_den": ";".join(w.den.coeff_strings()),
            "weight": w.format("q"),
        }
        if args.q is not None:
            try:
                row["value_at_q"] = _frac(w.evaluate(args.q))
            except PoleError:
                row["value_at_q"] = "pole"
        rows.append(row)
    env = _envelope(
        "plaquettes",
        {"k": k, "q": args.q, "nonzero_only": args.nonzero_only},
        rows,
        {"method": "symbolic", "backend": "exact"},
    )
    _emit(env, args.format, csv_rows=rows)
    return EXIT_OK


def _cmd_weingarten(args) -> int:
    table = weingarten_table(args.k)
    rows = []
    for ct, rf in sorted(table.items(), reverse=True):
        row = {
            "cycle_type": ",".join(map(str, ct)),
            "wg_num": ";".join(rf.num.coeff_strings()),
            "wg_den": ";".join(rf.den.coeff_strings()),
            "wg": rf.format("d"),
        }
        if args.d is not None:
            try:
                row["value_at_d"] = _frac(rf.evaluate(args.d))
            except PoleError:
                row["value_at_d"] = "pole"
        rows.append(row)
    env = _envelope(
        "weingarten",
        {"k": args.k, "d": args.d},
        rows,
        {"method": "character-expansion", "backend": "exact"},
    )
    _emit(env, args.format, csv_rows=rows)
    return EXIT_OK


def _cmd_framepotential(args) -> int:
    if args.method != "montecarlo" and any(
        v is not None for v in (args.samples, args.seed, args.threads)
    ):
        raise _ArgumentError("--samples/--seed/--threads only apply to the montecarlo method")
    params = {
        "method": args.method,
        "n": args.n,
        "q": args.q,
        "t": args.t,
        "k": args.k,
        "bc": args.bc,
    }
    if args.method == "montecarlo":
        samples = 10_000 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        est = estimate_frame_potential(
            args.n, args.q, args.t, args.k, samples=samples, seed=seed,
            threads=1 if args.threads is None else args.threads,
            two_sided=args.two_sided, bc=args.bc,
        )
        params.update({"samples": samples, "seed": seed, "two_sided": args.two_sided})
        result = est.to_json_dict()
        result["precision"] = "float64 sample mean; see std_error"
        env = _envelope("framepotential", params, result,
                        {"seed": seed, "method": "montecarlo", "backend": "float"})
        _emit(env, args.format)
        return EXIT_OK

    geom = build_geometry(args.n, args.q, args.t, args.bc)
    if args.method == "exact-direct":
        res = frame_potential_direct(geom, args.k, gauge_fix=args.gauge_fix)
    else:
        res = frame_potential_transfer(
            geom, args.k, backend=args.backend, gauge_fix=args.gauge_fix
        )
    params.update({"backend": res.backend, "gauge_fix": args.gauge_fix})
    if res.backend == "exact":
        result = {"value": _frac(res.value), "value_float": float(res.value)}
    else:
        result = {"value_float": res.value, "precision": "float64 contraction"}
    env = _envelope("framepotential", params, result,
                    {"method": res.method, "backend": res.backend})
    _emit(env, args.format)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rows = []
    if args.t is not None:
        rows.append({"name": "fp2_upper_bound", "value": bounds_mod.fp2_upper_bound(args.n, args.q, args.t)})
        if args.k >= 2:
            rows.append({"name": "single_wall_bound_k",
                         "value": bounds_mod.single_wall_bound_k(args.n, args.q, args.t, args.k)})
        rows.append({"name": "fp_k_leading",
                     "value": bounds_mod.fp_k_leading(args.n, args.q, args.t, args.k)})
        if args.n >= 4 and args.t >= 2:
            rows.append({"name": "c1_images",
                         "value": bounds_mod.c1_images(args.n, args.t),
                         "convention": "offset_scale=1, full series"})
    if args.epsilon is not None:
        t2 = bounds_mod.t2_design_depth(args.n, args.q, args.epsilon)
        rows.append({"name": "t2_design_depth", "value": t2.t, "constant": t2.constant})
        if args.q >= 3:
            tk = bounds_mod.tk_design_depth_largeq(args.n, args.q, args.k, args.epsilon)
            rows.append({"name": "tk_design_depth_largeq", "value": tk.t, "constant": tk.constant})
    if args.n * args.k >= 2:
        low = bounds_mod.tk_lower_bound(args.n, args.q, args.k, args.epsilon)
        row = {"name": "tk_lower_bound", "value": low.t}
        if low.caveats:
            row["caveats"] = json.dumps(low.caveats)
        rows.append(row)
    env = _envelope(
        "bounds",
        {"n": args.n, "q": args.q, "k": args.k, "t": args.t, "epsilon": args.epsilon},
        rows,
        {"method": "closed-form", "backend": "float"},
    )
    _emit(env, args.format, csv_rows=[{k: v for k, v in r.items()} for r in rows])
    return EXIT_OK


def _cmd_verify(args) -> int:
    k, q = args.k, args.q
    sections = []
    ok = True

    def add(name: str, passed: bool, detail: str):
        nonlocal ok
        sections.append({"section": name, "ok": passed, "detail": detail})
        ok = ok and passed
        print(f"[verify] {name}: {'pass' if passed else 'FAIL'} ({detail})", file=sys.stderr)

    rep = verify_rules(k)
    add("plaquette_rules", rep.ok, rep.summary())
    rep = asymptotic_check(k)
    add("asymptotic_orders", rep.ok, rep.summary())
    rep = pole_free_report(k)
    add("pole_freeness", rep.ok, rep.summary())

    mismatches = 0
    checks = 0
    for d in (k, k + 1):
        gram = wg_gram(k, d)
        for p, val in gram.items():
            checks += 1
            if wg_symbolic(p, k).evaluate(d) != val:
                mismatches += 1
    add("weingarten_cross_oracle", mismatches == 0, f"{checks} values at d in {{{k}, {k+1}}}")

    k_eval = min(k, 3)
    eq_fail = 0
    eq_checks = 0
    for bc in ("open", "periodic"):
        for n, t in ((4, 2), (5, 2)):
            geom = build_geometry(n, q, t, bc)
            dv = frame_potential_direct(geom, k_eval).value
            tv = frame_potential_transfer(geom, k_eval).value
            eq_checks += 1
            if dv != tv:
                eq_fail += 1
    add("evaluator_equivalence", eq_fail == 0, f"{eq_checks} geometries at k={k_eval}, q={q}")

    env = _envelope("verify", {"k": k, "q": q}, {"ok": ok, "sections": sections})
    _emit(env, args.format, csv_rows=sections)
    if not ok:
        raise VerificationError("verification suite reported failures")
    return EXIT_OK


def _cmd_geometry(args) -> int:
    geom = build_geometry(args.n, args.q, args.t, args.bc)
    env = _envelope(
        "geometry",
        {"n": args.n, "q": args.q, "t": args.t, "bc": args.bc},
        geom.to_json_dict(),
    )
    _emit(env, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rqclattice",
        description="Exact lattice engine for random-quantum-circuit moments",
        epilog="Moments k <= 6.  Env: RQCLATTICE_STATE_BUDGET overrides the "
        "contraction state budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("plaquettes", help="dump plaquette weight table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--nonzero-only", action="store_true")
    p.add_argument("--key", nargs=2, metavar=("SIGMA12", "SIGMA13"),
                   help="single key as image strings, e.g. --key 213 132")
    common(p)
    p.set_defaults(func=_cmd_plaquettes)

    p = sub.add_parser("weingarten", help="dump Weingarten table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int)
    common(p)
    p.set_defaults(func=_cmd_weingarten)

    p = sub.add_parser("framepotential", help="evaluate or estimate the frame potential")
    p.add_argument("method", choices=("exact-direct", "exact-transfer", "montecarlo"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bc", choices=("open", "periodic"), default="open")
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--gauge-fix", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_framepotential)

    p = sub.add_parser("bounds", help="evaluate closed-form bounds and design depths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--epsilon", type=float)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the structural invariant suite")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("geometry", help="dump brickwork geometry as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bc", choices=("open", "periodic"), default="open")
    common(p)
    p.set_defaults(func=_cmd_geometry)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationError, PoleError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
