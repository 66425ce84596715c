"""Regenerate bench/references.json, the frozen reference values of the benchmark.

    PYTHONPATH=src python3 bench/make_references.py

Exact frame potentials come from the transfer route and are cross-checked
against the direct route wherever that is cheap, and gauge-fixed against
unfixed values where both are requested.  CLI results are the outputs of the
commands themselves; large ones are stored as a SHA-256 of their canonical
JSON.  The references are meant to be computed once and then kept: a later
change that alters any of these values fails the benchmark's checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
DIGEST_ABOVE_BYTES = 20_000
DIRECT_CROSSCHECK = {2: (8, 3), 3: (5, 2)}  # k -> (max n, max t) for the direct route


def _has_float(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        return any(_has_float(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_float(v) for v in obj)
    return False


def exact_value(R, route, k, n, q, t, bc, gf) -> Fraction:
    geom = R.build_geometry(n, q, t, bc)
    if route == "direct":
        return R.frame_potential_direct(geom, k, gauge_fix=gf).value
    return R.frame_potential_transfer(geom, k, gauge_fix=gf).value


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import rqclattice as R

    exact: dict[str, Fraction] = {}
    for route, _backend, k, n, q, t, bc, gf in W.exact_grid_configs():
        key = W.exact_key(k, n, q, t, bc, gf)
        if key not in exact:
            exact[key] = exact_value(R, "transfer", k, n, q, t, bc, gf)
        if route == "direct" or (k in DIRECT_CROSSCHECK and n <= DIRECT_CROSSCHECK[k][0]
                                 and t <= DIRECT_CROSSCHECK[k][1]):
            direct = exact_value(R, "direct", k, n, q, t, bc, gf)
            assert direct == exact[key], (key, direct, exact[key])
        other = W.exact_key(k, n, q, t, bc, not gf)
        if other in exact:
            assert exact[other] == exact[key], (key, other)

    mc = {}
    for n, t, k, bc, two_sided, *_ in W.MC_POINTS:
        mc[W.mc_point_key(n, t, k, bc, two_sided)] = exact_value(R, "transfer", k, n, W.MC_Q, t, bc, False)

    cli = {}
    env = W.child_env(ROOT)
    for cmd in W.COLD_CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "rqclattice.cli", *cmd.split()],
                              cwd=ROOT, env=env, capture_output=True, check=True)
        result = json.loads(proc.stdout)["result"]
        if cmd.startswith("framepotential") and "value" in result:
            p = json.loads(proc.stdout)["parameters"]
            route = "direct" if p["method"] == "exact-direct" else "transfer"
            ref = exact_value(R, route, p["k"], p["n"], p["q"], p["t"], p["bc"], p["gauge_fix"])
            assert Fraction(result["value"]) == ref, (cmd, result, ref)
        if len(W.canonical(result)) > DIGEST_ABOVE_BYTES:
            # a digest compares exactly, so it may only cover exact values
            assert isinstance(result, list) and not _has_float(result), cmd
            result = {"sha256": W.digest(result), "rows": len(result)}
        cli[cmd] = result

    out = {
        "exact": {k: str(v) for k, v in sorted(exact.items())},
        "mc": {k: str(v) for k, v in sorted(mc.items())},
        "cli": cli,
    }
    with open(W.REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(exact)} exact, {len(mc)} Monte Carlo and {len(cli)} CLI references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
