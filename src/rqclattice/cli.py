"""Command-line surface: table dumps, evaluations, estimates, bounds, verification.

Every command prints a JSON envelope {command, parameters, result, provenance}
to stdout (or bare CSV rows with --format csv); diagnostics go to stderr.
Exact rationals are serialized as "p/q" strings, never floats.  A float that
is not finite (a `bounds` value past the largest double, say) is written as
the string "Infinity", "-Infinity" or "NaN", so the envelope is strict JSON;
Python's float() and JavaScript's Number() read those strings back.  Exit
codes: 0 success, 2 budget exceeded (a moment k outside 1..6, a brickwork
past `geometry.GATE_CAP` gates, `bounds --t` past `bounds.T_CAP`), 3
invariant violation (including surfaced poles), 4 bad arguments.  `verify`
runs every section at every k <= 6.

A process imports only what its subcommand uses: each `_cmd_*` imports its own
modules, so `weingarten`, `bounds` and `geometry` run without numpy, and
`plaquettes` without the lattice, Monte Carlo and bounds modules.  The JSON
output is the indented dump `json.dumps(envelope, indent=2, sort_keys=True)`.
A plaquette dump's rows alone are encoded through the C JSON encoder, one
class of keys at a time, byte for byte that dump, and reach stdout a few rows
at a time.

Environment knob: RQCLATTICE_STATE_BUDGET (contraction state budget, default
4e6 states exact, 1.28e8 float).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterator
from fractions import Fraction

from . import __version__
from .errors import BudgetExceededError, PoleError, VerificationError

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


def _strict(row: dict) -> dict:
    """The row with each non-finite float as the string "Infinity", "-Infinity" or "NaN"."""
    return {
        key: ("NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity")
        if type(value) is float and not math.isfinite(value) else value
        for key, value in row.items()
    }


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


# One flat row of a list result at the depth the indented dump puts it: its
# fields on lines of their own, six spaces in.
_ROW_SEP = ",\n      "
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(_ROW_SEP, ": "))
_SCALARS = frozenset({str, int, float, bool, type(None)})
# Rows per piece of a list result on stdout: a full k=5 plaquette dump of
# 14 400 rows is written in 113 pieces of about 36 kB, never held as one
# string (pieces of 1024 rows, about 290 kB, left the process's peak RSS
# 1.6 MB higher, at the same speed).
_CHUNK_ROWS = 128


class _KeyedRows(list):
    """The rows {"key_left": names[a], "key_right": names[b], **fields[c]} of
    `cells` (a, b, c), made one by one as the list is read; a class no cell
    names may have None for its fields.

    json and csv read it as the list of those rows, by iterating it and taking
    its length, the only reads it serves (its list storage stays empty).  It
    holds only the cells and one dict of fields per class c, so `_dumps`
    encodes each class's fields once and splices the key names in.  No field
    name may sort between the two key names, and every field is a scalar.
    """

    def __init__(self, names: list[str], cells: list[tuple[int, int, int]], fields: list[dict]):
        super().__init__()
        for row in filter(None, fields):  # the splice is byte-exact only for these
            if any("key_left" <= name <= "key_right" for name in row):
                raise ValueError("a field name sorts between key_left and key_right")
            if not _SCALARS.issuperset(map(type, row.values())):
                raise ValueError("a field value is not a scalar")
        self.names, self.cells, self.fields = names, cells, fields

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        names, fields = self.names, self.fields
        return ({"key_left": names[a], "key_right": names[b], **fields[c]} for a, b, c in self.cells)

    def encoded(self) -> Iterator[str]:
        """Each row as `_dumps` writes it: the fields of a class encoded once, around
        its keys, which sort between the fields before and after them."""
        encode = _ROW_ENCODER.encode
        names = [encode(name) for name in self.names]
        heads, tails = [], []
        for fields in self.fields:
            fields = fields or {}
            before = encode({k: v for k, v in fields.items() if k < "key_left"})[1:-1]
            after = encode({k: v for k, v in fields.items() if k > "key_right"})[1:-1]
            heads.append("{\n      " + (before + _ROW_SEP if before else "") + '"key_left": ')
            tails.append((_ROW_SEP + after if after else "") + "\n    }")
        middle = _ROW_SEP + '"key_right": '
        return (heads[c] + names[a] + middle + names[b] + tails[c] for a, b, c in self.cells)


def _pieces(envelope: dict) -> Iterator[str]:
    """`json.dumps(envelope, indent=2, sort_keys=True)` in pieces, joined byte for byte.

    Python's indented dump runs its pure-Python encoder.  A `_KeyedRows` result
    is encoded class by class by the C encoder instead, and its rows are
    spliced into the indented envelope, in which `result` sorts last, one piece
    per `_CHUNK_ROWS` rows; any other result is one piece, the indented dump.
    """
    rows = envelope["result"]
    if type(rows) is _KeyedRows and len(rows):
        head = json.dumps({**envelope, "result": None}, indent=2, sort_keys=True)
        if head.endswith('"result": null\n}'):
            encoded = rows.encoded()
            opening = head[: -len("null\n}")] + "[\n    "
            while batch := list(itertools.islice(encoded, _CHUNK_ROWS)):
                yield opening + ",\n    ".join(batch)
                opening = ",\n    "
            yield "\n  ]\n}"
            return
    yield json.dumps(envelope, indent=2, sort_keys=True)


def _dumps(envelope: dict) -> str:
    """`json.dumps(envelope, indent=2, sort_keys=True)`, byte for byte: the
    pieces `_emit` writes, joined."""
    return "".join(_pieces(envelope))


def _emit(envelope: dict, fmt: str, csv_rows: list[dict] | None = None) -> None:
    """Print the envelope as JSON, or as CSV rows: `csv_rows`, else a list result's
    rows, else the flattened result.  A `_KeyedRows` result reaches stdout
    `_CHUNK_ROWS` JSON rows at a time, and a list result one CSV row at a
    time, never as one string."""
    if fmt == "json":
        write = sys.stdout.write
        for piece in _pieces(envelope):
            write(piece)
        write("\n")
        return
    rows = csv_rows
    if rows is None:
        result = envelope["result"]
        rows = result if isinstance(result, list) else [_flatten(result)]
    if not rows:
        return
    # a first pass for the field names, in order of first appearance; a
    # `_KeyedRows` result makes its rows again for the second, which the
    # writer hands to stdout row by row
    fieldnames = list(dict.fromkeys(name for row in rows for name in row))
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)


def _flatten(obj) -> dict:
    if not isinstance(obj, dict):
        return {"value": obj}
    return {key: json.dumps(val) if isinstance(val, (dict, list)) else val for key, val in obj.items()}


def _parse_perm(text: str, k: int):
    from .perms import Perm

    digits = [c for c in text if c.isdigit()]
    if len(digits) != k:
        raise _ArgumentError(f"permutation {text!r} must list {k} images, e.g. '213'")
    return Perm(int(c) for c in digits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _rational_fields(rf, name: str, var: str, at) -> dict:
    """The columns of a rational function: num and den coefficients, its formula
    in `var`, and, when `at` is given, its value at var = at or "pole"."""
    from .exact import _format_monic

    num, den = rf.monic()
    fields = {
        f"{name}_num": ";".join(map(str, num)),
        f"{name}_den": ";".join(map(str, den)),
        name: _format_monic(num, den, var),
    }
    if at is not None:
        try:
            fields[f"value_at_{var}"] = _frac(rf.evaluate(at))
        except PoleError:
            fields[f"value_at_{var}"] = "pole"
    return fields


def _plaquette_fields(sig, w, q) -> dict:
    """The columns of a plaquette row after its key, from the key's class."""
    return {
        "in_left": sig.in_left,
        "in_right": sig.in_right,
        "across": sig.across,
        **_rational_fields(w, "weight", "q", q),
    }


def _cmd_plaquettes(args) -> int:
    from .perms import group_table
    from .plaquette import build_table, key_signature, key_weight

    k = args.k
    if k > FULL_DUMP_MAX_K and not args.key:
        raise _ArgumentError(
            f"full plaquette dumps are capped at k={FULL_DUMP_MAX_K}; "
            "pass --key SIGMA12 SIGMA13 for k=6"
        )
    if args.q is not None and args.q < 2:
        raise _ArgumentError(f"--q must be >= 2, got {args.q}")
    gt = group_table(k)  # checks the moment cap
    if args.key:
        # one tau-sum over two columns of rel: no class map, no (k!)^2 table
        ia, ib = (gt.idx(_parse_perm(text, k)) for text in args.key)
        weights = [key_weight(gt, ia, ib)]
        signatures = [key_signature(gt, ia, ib)]
        cells = [(ia, ib, 0)]
    else:
        table = build_table(k)
        weights, classes = table.key_classes()
        signatures = [table.class_signature(c) for c in range(len(weights))]
        cells = [(ia, ib, c) for ia, row in enumerate(classes.tolist()) for ib, c in enumerate(row)]
    # each class is rendered once; its keys share the rendered fields
    fields = [
        None if args.nonzero_only and w.is_zero() else _plaquette_fields(sig, w, args.q)
        for sig, w in zip(signatures, weights)
    ]
    names = ["".join(map(str, p.images)) for p in gt.perms]
    rows = _KeyedRows(names, [cell for cell in cells if fields[cell[2]] is not None], fields)
    env = _envelope(
        "plaquettes",
        {"k": k, "q": args.q, "nonzero_only": args.nonzero_only},
        rows,
        {"method": "symbolic", "backend": "exact"},
    )
    _emit(env, args.format)
    return EXIT_OK


def _cmd_weingarten(args) -> int:
    from .weingarten import weingarten_table

    if args.d is not None and args.d < 1:
        raise _ArgumentError(f"--d must be >= 1, got {args.d}")
    table = weingarten_table(args.k)
    rows = [
        {"cycle_type": ",".join(map(str, ct)), **_rational_fields(rf, "wg", "d", args.d)}
        for ct, rf in sorted(table.items(), reverse=True)
    ]
    env = _envelope(
        "weingarten",
        {"k": args.k, "d": args.d},
        rows,
        {"method": "character-expansion", "backend": "exact"},
    )
    _emit(env, args.format)
    return EXIT_OK


def _cmd_framepotential(args) -> int:
    if args.method != "montecarlo" and any(
        v is not None for v in (args.samples, args.seed, args.threads)
    ):
        raise _ArgumentError("--samples/--seed/--threads only apply to the montecarlo method")
    if args.method != "montecarlo" and args.two_sided:
        raise _ArgumentError("--two-sided only applies to the montecarlo method")
    if args.method == "montecarlo" and (args.gauge_fix or args.backend is not None):
        raise _ArgumentError("--gauge-fix/--backend only apply to the exact methods")
    if args.method == "exact-direct" and args.backend == "float":
        raise _ArgumentError("--backend float only applies to exact-transfer")
    params = {
        "method": args.method,
        "n": args.n,
        "q": args.q,
        "t": args.t,
        "k": args.k,
        "bc": args.bc,
    }
    if args.method == "montecarlo":
        from .montecarlo import estimate_frame_potential

        samples = 10_000 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        est = estimate_frame_potential(
            args.n, args.q, args.t, args.k, samples=samples, seed=seed,
            threads=1 if args.threads is None else args.threads,
            two_sided=args.two_sided, bc=args.bc,
        )
        params.update({"samples": samples, "seed": seed, "two_sided": args.two_sided})
        result = _strict(est.to_json_dict())
        result["precision"] = "float64 sample mean; see std_error"
        env = _envelope("framepotential", params, result,
                        {"seed": seed, "method": "montecarlo", "backend": "float"})
        _emit(env, args.format)
        return EXIT_OK

    from .lattice import build_geometry, frame_potential_direct, frame_potential_transfer

    if args.gauge_fix:
        print("note: --gauge-fix has no effect (every sweep pins one spin) "
              "and will be removed", file=sys.stderr)
    geom = build_geometry(args.n, args.q, args.t, args.bc)
    if args.method == "exact-direct":
        res = frame_potential_direct(geom, args.k)
    else:
        res = frame_potential_transfer(geom, args.k, backend=args.backend or "exact")
    params.update({"backend": res.backend, "gauge_fix": res.gauge_fixed})
    if res.backend == "exact":
        try:
            value_float = float(res.value)
        except OverflowError:  # an exact value past the largest double
            value_float = math.inf if res.value > 0 else -math.inf
        result = _strict({"value": _frac(res.value), "value_float": value_float})
    else:
        result = _strict({"value_float": res.value, "precision": "float64 contraction"})
    env = _envelope("framepotential", params, result,
                    {"method": res.method, "backend": res.backend})
    _emit(env, args.format)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    if args.n < 2 or args.q < 2 or args.k < 1:
        raise _ArgumentError(
            f"bounds need --n >= 2, --q >= 2 and --k >= 1, got n={args.n}, q={args.q}, k={args.k}"
        )
    rows = []
    if args.t is not None:
        bounds_mod._check_t(args.t)
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
    low = bounds_mod.tk_lower_bound(args.n, args.q, args.k, args.epsilon)
    row = {"name": "tk_lower_bound", "value": low.t}
    if low.caveats:
        row["caveats"] = json.dumps(low.caveats)
    rows.append(row)
    env = _envelope(
        "bounds",
        {"n": args.n, "q": args.q, "k": args.k, "t": args.t, "epsilon": args.epsilon},
        [_strict(row) for row in rows],
        {"method": "closed-form", "backend": "float"},
    )
    _emit(env, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .lattice import build_geometry, frame_potential_direct, frame_potential_transfer
    from .plaquette import asymptotic_check, pole_free_report, verify_rules
    from .weingarten import wg_gram, wg_symbolic

    k, q = args.k, args.q
    if q < 2:  # before any section runs
        raise _ArgumentError(f"--q must be >= 2, got {q}")
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
    from .geometry import CircuitGeometry

    geom = CircuitGeometry(args.n, args.q, args.t, args.bc)
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


@functools.cache  # one parser per process: parsing leaves it as it was
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
    p.add_argument("--backend", choices=("exact", "float"),
                   help="exact-transfer number ring (default exact); exact-direct is exact only")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--gauge-fix", action="store_true",
                   help="no effect: every exact sweep pins one spin to the identity; "
                   "accepted for now and will be removed")
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
