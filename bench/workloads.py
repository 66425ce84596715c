"""The benchmark's three workloads: request lists, execution and output checks.

Every workload is a closed loop with one client: the next request goes out
when the previous one has returned.  The workload seed fixes the request order
and the Monte Carlo seeds; the set of requests is the same for every seed, so
a single pass always does the same work and its counts repeat exactly.

* exact-grid  in-process exact and float frame potentials on warm tables.
* cold-cli    fresh `python -m rqclattice.cli` processes, cold tables each time.
* montecarlo  in-process Monte Carlo estimates, checked by pooled z-scores;
              untimed check requests top the pooled samples up after timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from stats import pooled_mean_and_error, relative_error

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

FLOAT_REL_TOL = 1e-9  # float backend against the exact value; doubles carry ~1e-13 here
MC_Z_BOUND = 5.0  # pooled |mean - exact| / std_error per Monte Carlo point
CLI_TIMEOUT_S = 120.0

# Monte Carlo points whose check fails at the seed commit because the Monte
# Carlo route ignores periodic boundaries (it always samples an open chain).
# Their failures are counted in fail_frac and reported, but they do not make
# the run incorrect; once the defect is fixed the checks pass and the entries
# should be removed so that the points become ordinary checks.
KNOWN_DEFECTS = {
    "mc|n=4|t=2|k=2|bc=periodic|two_sided=0": "Monte Carlo ignores --bc periodic",
    "mc|n=4|t=2|k=3|bc=periodic|two_sided=0": "Monte Carlo ignores --bc periodic",
}


@dataclass(frozen=True)
class Request:
    rid: str  # identity of the request, the same for every workload seed
    kind: str
    params: tuple  # sorted (name, value) pairs

    @property
    def p(self) -> dict:
        return dict(self.params)


def _request(rid: str, kind: str, **params) -> Request:
    return Request(rid, kind, tuple(sorted(params.items())))


@dataclass
class Checks:
    """Correctness bookkeeping: every check attempted, every one that failed."""

    attempted: int = 0
    failed: int = 0
    known_defect_failed: int = 0
    failures: list = field(default_factory=list)
    float_rel_err_max: float = 0.0

    def check(self, ok: bool, what: str, known_defect: str | None = None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_defect is not None:
            self.known_defect_failed += 1
            what = f"{what} [known defect: {known_defect}]"
        self.failures.append(what)

    @property
    def unexpected_failed(self) -> int:
        return self.failed - self.known_defect_failed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _seeded_order(requests: list[Request], seed: int) -> list[Request]:
    order = list(requests)
    random.Random(f"order:{seed}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# exact-grid
# ---------------------------------------------------------------------------


def exact_key(k: int, n: int, q: int, t: int, bc: str, gauge_fix: bool) -> str:
    """Reference key of an exact frame potential; both routes share it."""
    return f"exact|k={k}|n={n}|q={q}|t={t}|bc={bc}|gf={int(gauge_fix)}"


def exact_grid_configs() -> list[tuple]:
    """(route, backend, k, n, q, t, bc, gauge_fix) of every exact-grid request.

    Every instance is within the default state budget at the seed commit.
    """
    configs = []
    k2 = []
    for n in (4, 8, 12):
        for t in (2, 3, 4, 5):
            for bc in ("open", "periodic"):
                k2.append((n, 2, t, bc))
    k2 += [(16, 2, 2, "open"), (16, 2, 2, "periodic"), (16, 2, 3, "open"),
           (18, 2, 2, "open"), (18, 2, 3, "open")]
    for t in (2, 3, 4):
        for bc in ("open", "periodic"):
            k2.append((4, 3, t, bc))
    k2 += [(6, 3, 3, "open"), (6, 3, 3, "periodic")]
    for t in (2, 3):
        for bc in ("open", "periodic"):
            k2.append((4, 5, t, bc))
    k2.append((6, 5, 2, "open"))
    for n, q, t, bc in k2:
        for backend in ("exact", "float"):
            configs.append(("transfer", backend, 2, n, q, t, bc, False))
    for n in (4, 5, 6):
        for t in (2, 3):
            for gf in (False, True):
                configs.append(("transfer", "exact", 3, n, 2, t, "open", gf))
    configs += [
        ("transfer", "exact", 3, 4, 2, 2, "periodic", True),
        ("transfer", "exact", 3, 6, 2, 2, "periodic", True),
        ("transfer", "exact", 4, 4, 2, 2, "open", True),
        ("transfer", "exact", 4, 4, 3, 2, "open", True),
        ("transfer", "exact", 4, 4, 2, 3, "open", True),
        ("transfer", "exact", 5, 4, 2, 2, "open", True),
    ]
    for n, q, t, bc in ((4, 2, 2, "open"), (6, 2, 2, "open"), (8, 2, 2, "periodic"),
                        (4, 2, 3, "open"), (6, 2, 3, "periodic"), (4, 3, 2, "periodic")):
        configs.append(("direct", "exact", 2, n, q, t, bc, False))
    configs += [
        ("direct", "exact", 3, 4, 2, 2, "open", False),
        ("direct", "exact", 3, 4, 2, 2, "open", True),
        ("direct", "exact", 3, 5, 2, 2, "periodic", True),
        ("direct", "exact", 3, 4, 2, 3, "open", True),
    ]
    return configs


def exact_grid_requests(seed: int) -> list[Request]:
    reqs = []
    for route, backend, k, n, q, t, bc, gf in exact_grid_configs():
        rid = f"{route}-{backend}|k={k}|n={n}|q={q}|t={t}|bc={bc}|gf={int(gf)}"
        reqs.append(_request(rid, route, backend=backend, k=k, n=n, q=q, t=t, bc=bc, gauge_fix=gf))
    return _seeded_order(reqs, seed)


class ExactGrid:
    in_process = True
    ks = (2, 3, 4, 5)

    def __init__(self, seed: int):
        self.requests = exact_grid_requests(seed)

    def setup(self):
        import rqclattice as R

        self.R = R
        for k in self.ks:
            R.perms.group_table(k)
            R.weingarten_table(k)
            R.weingarten.wg_in_q(k)
            R.build_table(k)
        self.refs = {key: Fraction(v) for key, v in load_references()["exact"].items()}

    def run(self, req: Request):
        R, p = self.R, req.p
        geom = R.build_geometry(p["n"], p["q"], p["t"], p["bc"])
        if req.kind == "direct":
            return R.frame_potential_direct(geom, p["k"], gauge_fix=p["gauge_fix"]).value
        return R.frame_potential_transfer(
            geom, p["k"], backend=p["backend"], gauge_fix=p["gauge_fix"]
        ).value

    def verify(self, req: Request, value, checks: Checks):
        p = req.p
        ref = self.refs[exact_key(p["k"], p["n"], p["q"], p["t"], p["bc"], p["gauge_fix"])]
        if p["backend"] == "exact":
            checks.check(isinstance(value, Fraction) and value == ref, f"{req.rid}: {value} != {ref}")
        else:
            err = relative_error(float(value), float(ref))
            checks.float_rel_err_max = max(checks.float_rel_err_max, err)
            checks.check(err <= FLOAT_REL_TOL, f"{req.rid}: relative error {err:.3g} > {FLOAT_REL_TOL}")

    def finish(self, checks: Checks):
        pass


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

# With 20 commands, req_p50_s averages the 10th and 11th fastest and
# req_tail_s is the 10th.  Seven commands are little more than interpreter
# start-up (about 0.22 s at the reference speed) and seven more build a small
# table or run a small sweep besides (0.29 to 0.34 s), so that both statistics
# lie inside the second group and not on the gap between the two groups, where
# a small wobble of one command would move them by a quarter.
COLD_CLI_COMMANDS = [
    "plaquettes --k 4 --q 2",
    "plaquettes --k 4 --q 3",
    "plaquettes --k 5 --q 2",
    "plaquettes --k 6 --key 213456 123456 --q 2",
    "weingarten --k 5 --d 2",
    "weingarten --k 5 --d 3",
    "weingarten --k 6 --d 7",
    "verify --k 3 --q 2",
    "verify --k 4 --q 2",
    "verify --k 5 --q 2",
    "framepotential exact-transfer --n 12 --q 2 --t 4 --k 2",
    "framepotential exact-transfer --n 12 --q 3 --t 2 --k 2",
    "framepotential exact-transfer --n 6 --q 2 --t 3 --k 2 --bc periodic --backend float",
    "framepotential exact-transfer --n 4 --q 2 --t 3 --k 3 --gauge-fix",
    "framepotential exact-transfer --n 4 --q 2 --t 2 --k 4 --gauge-fix",
    "framepotential exact-transfer --n 4 --q 2 --t 2 --k 5 --gauge-fix",
    "framepotential exact-direct --n 4 --q 2 --t 3 --k 2 --bc periodic",
    "framepotential exact-direct --n 4 --q 2 --t 2 --k 3 --gauge-fix",
    "bounds --n 16 --q 2 --k 2 --t 4 --epsilon 0.01",
    "geometry --n 8 --t 3 --bc periodic",
]


def cold_cli_requests(seed: int) -> list[Request]:
    reqs = [_request(cmd, "cli", argv=tuple(cmd.split())) for cmd in COLD_CLI_COMMANDS]
    return _seeded_order(reqs, seed)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def same_result(expected, got) -> bool:
    """Structural equality, with floats compared to FLOAT_REL_TOL."""
    if isinstance(expected, dict):
        if "sha256" in expected and set(expected) == {"sha256", "rows"}:
            return isinstance(got, list) and len(got) == expected["rows"] and digest(got) == expected["sha256"]
        return (isinstance(got, dict) and set(got) == set(expected)
                and all(same_result(expected[k], got[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(got, list) and len(got) == len(expected)
                and all(same_result(a, b) for a, b in zip(expected, got)))
    if isinstance(expected, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return expected == got or relative_error(got, expected) <= FLOAT_REL_TOL
    return type(expected) is type(got) and expected == got


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class ColdCli:
    in_process = False

    def __init__(self, seed: int, root: Path):
        self.requests = cold_cli_requests(seed)
        self.root = root
        self.env = child_env(root)
        self.entry: list[str] = [sys.executable, "-m", "rqclattice.cli"]

    def setup(self):
        # one cold process: interpreter start, byte-compiling, file cache
        out = self.run(_request("setup", "cli", argv=("geometry", "--n", "2", "--t", "1")))
        if out[0] != 0:
            raise RuntimeError(f"rqclattice.cli does not start: {out[2][-500:]}")
        self.refs = load_references()["cli"]

    def run(self, req: Request, entry: list[str] | None = None):
        """Run one command; `entry` replaces the whole command line (traced runs)."""
        self.last_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                entry or self.entry + list(req.p["argv"]), cwd=self.root, env=self.env,
                capture_output=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return (None, b"", b"timeout")
        return (proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"))

    def verify(self, req: Request, out, checks: Checks):
        code, stdout, stderr = out
        if code != 0:
            checks.check(False, f"{req.rid}: exit {code}: {stderr[-300:]}")
            return
        try:
            result = json.loads(stdout)["result"]
        except (ValueError, KeyError) as exc:
            checks.check(False, f"{req.rid}: unreadable output ({exc})")
            return
        checks.check(same_result(self.refs[req.rid], result), f"{req.rid}: result differs from reference")

    def finish(self, checks: Checks):
        pass


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

# (n, t, k, bc, two_sided, route, requests, samples per request, threads,
#  pooled samples)
# The timed requests are small (about 25 ms; 60 ms on the dense n=8 point),
# so that a run makes several passes and every request time is a median over
# passes.  Three in four dense requests run one thread, so that req_tail_s
# (the 11th slowest request) lies inside that cluster, away from the
# threads=2 ones, whose times depend on whether the host gives the second
# core.  The pooled z-check of a point needs many more samples than one pass
# holds: the samples of its timed requests (first pass) are topped up to the
# pooled count by untimed check requests after the timed loop.  The pooled
# counts are sized for the heavy-tailed |Tr|^(2k) to behave, and give the two
# periodic n=4, t=2 points enough samples to show the open-chain bias well
# beyond 5 sigma.  The dense n=8 point uses k=1: a sample costs the same dense
# products for any k, and at k=2 its 120 pooled samples underestimate the
# mean by up to 4.4 standard errors.  The API has no boundary argument, so
# periodic points go through the CLI, run in-process.
MC_POINTS = [
    (4, 2, 2, "open", False, "api", 8, 75, (1, 2), 4000),
    (4, 3, 2, "open", False, "api", 8, 50, (1,), 2000),
    (4, 2, 3, "open", False, "api", 8, 80, (1,), 4000),
    (4, 2, 2, "open", True, "api", 8, 40, (1,), 2000),
    (6, 2, 2, "open", False, "api", 8, 40, (1,), 6000),
    (5, 2, 2, "periodic", False, "cli", 8, 75, (1,), 2000),
    (4, 2, 2, "periodic", False, "cli", 20, 80, (1,), 20000),
    (4, 2, 3, "periodic", False, "cli", 18, 90, (1,), 36000),
    (8, 3, 1, "open", False, "api", 20, 4, (1, 1, 1, 2), 120),
]
MC_CHECK_CHUNK = 2000  # samples per untimed check request
MC_Q = 2


def mc_point_key(n: int, t: int, k: int, bc: str, two_sided: bool) -> str:
    return f"mc|n={n}|t={t}|k={k}|bc={bc}|two_sided={int(two_sided)}"


def _montecarlo_requests(seed: int) -> tuple[list[Request], list[Request]]:
    """(timed requests in seeded order, untimed check requests); all seeds distinct."""
    rng = random.Random(f"mcseed:{seed}")
    used = set()

    def fresh_seed() -> int:
        mc_seed = rng.getrandbits(62)
        while mc_seed in used:
            mc_seed = rng.getrandbits(62)
        used.add(mc_seed)
        return mc_seed

    timed, check = [], []
    for n, t, k, bc, two_sided, route, count, samples, threads, pooled in MC_POINTS:
        point = mc_point_key(n, t, k, bc, two_sided)
        common = dict(point=point, n=n, t=t, k=k, bc=bc, two_sided=two_sided)
        for i in range(count):
            timed.append(_request(f"{point}|{i}", route, **common, samples=samples,
                                  seed=fresh_seed(), threads=threads[i % len(threads)]))
        left = pooled - count * samples
        for i in range(0, left, MC_CHECK_CHUNK):
            check.append(_request(f"{point}|check{i // MC_CHECK_CHUNK}", route, **common,
                                  samples=min(MC_CHECK_CHUNK, left - i), seed=fresh_seed(), threads=1))
    return _seeded_order(timed, seed), check


def montecarlo_requests(seed: int) -> list[Request]:
    return _montecarlo_requests(seed)[0]


def mc_cli_argv(p: dict) -> list[str]:
    argv = ["framepotential", "montecarlo", "--n", str(p["n"]), "--q", str(MC_Q),
            "--t", str(p["t"]), "--k", str(p["k"]), "--bc", p["bc"],
            "--samples", str(p["samples"]), "--seed", str(p["seed"]),
            "--threads", str(p["threads"])]
    if p["two_sided"]:
        argv.append("--two-sided")
    return argv


class MonteCarlo:
    in_process = True

    def __init__(self, seed: int):
        self.requests, self.check_requests = _montecarlo_requests(seed)
        self.first: dict[str, tuple] = {}

    def setup(self):
        import rqclattice as R
        import rqclattice.cli

        self.R = R
        for n in sorted({pt[0] for pt in MC_POINTS}):
            R.estimate_frame_potential(n, MC_Q, 2, 2, samples=2, seed=0)
        self.refs = {key: Fraction(v) for key, v in load_references()["mc"].items()}

    def run(self, req: Request):
        p = req.p
        if req.kind == "api":
            est = self.R.estimate_frame_potential(
                p["n"], MC_Q, p["t"], p["k"], samples=p["samples"], seed=p["seed"],
                threads=p["threads"], two_sided=p["two_sided"],
            )
            return (0, est.mean, est.std_error, est.samples)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.R.cli.main(mc_cli_argv(p))
        if code != 0:
            return (code, None, None, None)
        res = json.loads(buf.getvalue())["result"]
        return (0, res["mean"], res["std_error"], res["samples"])

    def verify(self, req: Request, out, checks: Checks):
        code, mean, se, samples = out
        checks.check(code == 0 and samples == req.p["samples"], f"{req.rid}: exit {code}, samples {samples}")
        if req.rid in self.first:
            checks.check(out == self.first[req.rid], f"{req.rid}: repeated seeded request gave {out}, first {self.first[req.rid]}")
        elif code == 0:
            self.first[req.rid] = out

    def point_z(self) -> dict[str, tuple[float, float, int, float]]:
        """Per point: pooled mean, pooled std error, samples, z against exact."""
        groups: dict[str, list] = {}
        for req in self.requests + self.check_requests:
            out = self.first.get(req.rid)
            if out is not None:
                groups.setdefault(req.p["point"], []).append(out[1:])
        result = {}
        for point, summaries in sorted(groups.items()):
            mean, se, total = pooled_mean_and_error(summaries)
            exact = float(self.refs[point])
            result[point] = (mean, se, total, (mean - exact) / se)
        return result

    def finish(self, checks: Checks):
        """Run the untimed check requests, then test each point's pooled mean."""
        for req in self.check_requests:
            try:
                out = self.run(req)
            except Exception as err:
                checks.check(False, f"{req.rid}: raised {err!r}")
                continue
            self.verify(req, out, checks)
        expected = {pt[:5]: pt[9] for pt in MC_POINTS}
        zs = self.point_z()
        for key, pooled in sorted(expected.items()):
            point = mc_point_key(*key)
            if point not in zs:
                checks.check(False, f"{point}: no successful samples")
                continue
            mean, se, total, z = zs[point]
            checks.check(total == pooled, f"{point}: pooled {total} samples, expected {pooled}")
            checks.check(
                abs(z) <= MC_Z_BOUND,
                f"{point}: pooled mean {mean:.5f} +/- {se:.5f} over {total} samples is "
                f"{z:+.2f} sigma from exact {float(self.refs[point]):.5f}",
                known_defect=KNOWN_DEFECTS.get(point),
            )
        self.z_report = zs


def make_workload(name: str, seed: int, root: Path):
    if name == "exact-grid":
        return ExactGrid(seed)
    if name == "cold-cli":
        return ColdCli(seed, root)
    if name == "montecarlo":
        return MonteCarlo(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact-grid", "cold-cli", "montecarlo")
