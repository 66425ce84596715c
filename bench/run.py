"""rqclattice benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload {exact-grid,cold-cli,montecarlo} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.  Each
workload is a fixed list of requests sent by one client in a closed loop; the
seed fixes their order and the Monte Carlo seeds.  After set-up, the first
pass over the list always completes, then the loop keeps cycling through the
list until S seconds have passed.  Every output is checked (see workloads.py);
work that only serves the checks (the Monte Carlo samples that top a point up
to its pooled count) runs after the timed loop and is not timed.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of one
untraced, one traced and one memory-measured pass.  Details (latencies,
failures, spans) go to .bench_out/ in the checkout.

BLAS is pinned to one thread, so no request uses more than the two threads a
`threads=2` Monte Carlo request asks for.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402
from stats import median, tail_latency  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
# The machine's speed drifts by tens of percent over seconds to minutes (other
# tenants share the cores).  Every timed interval is rescaled to a reference
# speed, measured right before and right after it by a fixed piece of work that
# is not part of the program.  In-process work is calibrated by a pure-Python
# loop, run CALIBRATION_REPEATS times with the fastest time kept, so that an
# interruption of the loop itself does not count as a slow machine.  A child
# process is calibrated by a reference child process (interpreter start, the
# numpy import and a short pure-Python loop; nothing of rqclattice): process
# start-up slows more than a loop in the parent does, and on a 2-vCPU shared
# host the reference child cut the run-to-run spread of CLI command times to
# about a third, against about two thirds for the loop.  These constants are
# part of the benchmark's definition: changing them changes every reported time.
CALIBRATION_ITERATIONS = 7_000
CALIBRATION_REPEATS = 3
REFERENCE_CALIBRATION_S = 0.5e-3
REFERENCE_CHILD = [sys.executable, "-c",
                   "import fractions, json, numpy\ns = 0\nfor i in range(300_000):\n    s += i * i"]
REFERENCE_CHILD_S = 0.2
PROBE_TIMEOUT_S = 120.0
E2E_UNITS = {"wall_s": "s", "req_p50_s": "s", "req_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibration_s() -> float:
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def reference_child_s() -> float:
    start = time.perf_counter()
    subprocess.run(REFERENCE_CHILD, capture_output=True, timeout=PROBE_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def slowness(in_process: bool) -> float:
    """How many times slower than the reference speed the machine runs now."""
    if in_process:
        return calibration_s() / REFERENCE_CALIBRATION_S
    return reference_child_s() / REFERENCE_CHILD_S


def at_reference_speed(seconds: float, slownesses: list[float]) -> float:
    """`seconds` rescaled to the reference speed."""
    return seconds * len(slownesses) / sum(slownesses)


def timed_at_reference_speed(fn, in_process: bool = True) -> float:
    """Seconds at the reference speed of one call."""
    before = slowness(in_process)
    start = time.perf_counter()
    fn()
    dt = time.perf_counter() - start
    return at_reference_speed(dt, [before, slowness(in_process)])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_checkout():
    """Import the package from this checkout's src/, or stop with exit code 2."""
    if not (ROOT / "src" / "rqclattice" / "__init__.py").is_file():
        print(f"error: no src/rqclattice under {ROOT}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_times(wl, args) -> list[float]:
    """Set the workload up for this run and measure SETUP_SAMPLES set-ups.

    An in-process set-up (import plus table warm-up) happens once here and
    SETUP_SAMPLES - 1 more times in fresh probe processes; a cold-cli set-up
    is one cold CLI process, repeated.  Times are at the reference speed.
    """
    times = [timed_at_reference_speed(wl.setup, wl.in_process)]
    for _ in range(SETUP_SAMPLES - 1):
        if not wl.in_process:
            times.append(timed_at_reference_speed(wl.setup, in_process=False))
            continue
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs requests one after another, timing each and checking its output.

    Every request is timed twice over: in wall-clock seconds, and in seconds at
    the reference speed (`at_reference_speed`), with the machine's `slowness`
    measured between consecutive requests.
    """

    def __init__(self, wl, checks=None):
        self.wl = wl
        self.checks = checks if checks is not None else W.Checks()
        self.latencies: dict[str, list[float]] = {}  # wall clock
        self.ref_latencies: dict[str, list[float]] = {}  # at the reference speed
        self.ops = 0
        self.ops_failed = 0
        self._slowness = None

    def one(self, req, run=None):
        run = run or self.wl.run
        self.ops += 1
        before = self._slowness if self._slowness is not None else slowness(self.wl.in_process)
        out, exc = None, None
        start = time.perf_counter()
        try:
            out = run(req)
        except Exception as err:  # a failed request is counted, and the loop goes on
            exc = err
        dt = time.perf_counter() - start
        self._slowness = slowness(self.wl.in_process)
        self.latencies.setdefault(req.rid, []).append(dt)
        self.ref_latencies.setdefault(req.rid, []).append(at_reference_speed(dt, [before, self._slowness]))
        if exc is not None:
            self.ops_failed += 1
            self.checks.check(False, f"{req.rid}: raised {exc!r}")
            return None
        self.wl.verify(req, out, self.checks)
        return out

    def cycle(self, seconds: float):
        """One full pass, then more requests until `seconds` have passed."""
        reqs = self.wl.requests
        start = time.perf_counter()
        i = 0
        while i < len(reqs) or time.perf_counter() - start < seconds:
            self.one(reqs[i % len(reqs)])
            i += 1

    def wall_s(self) -> float:
        """Summed latency of the requests run, at the reference speed."""
        return sum(sum(v) for v in self.ref_latencies.values())


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(wl, loop: Loop, setups: list[float]) -> tuple[dict, dict]:
    """Request times are the per-request medians over the run, at the reference speed."""
    per_request = [median(v) for v in loop.ref_latencies.values()]
    tail, pct, count = tail_latency(per_request)
    values = {
        "wall_s": sum(per_request),
        "req_p50_s": median(per_request),
        "req_tail_s": tail,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(children=not wl.in_process),
    }
    notes = {
        "req_tail_percentile": pct,
        "req_tail_samples": count,
        "setup_samples_s": setups,
        "wall_clock_s": sum(median(v) for v in loop.latencies.values()),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def threads2_speedup(wl, latencies) -> float:
    """Per-sample time at threads=1 over threads=2, median over Monte Carlo points."""
    per_point: dict[str, dict[int, list[float]]] = {}
    for req in wl.requests:
        p = req.p
        if "threads" in p and req.rid in latencies:
            per_point.setdefault(p["point"], {}).setdefault(p["threads"], []).append(
                latencies[req.rid][0] / p["samples"])
    ratios = [median(by[1]) / median(by[2]) for by in per_point.values() if 1 in by and 2 in by]
    return median(ratios) if ratios else 0.0


def traced_pass_in_process(wl, loop: Loop) -> dict:
    import rqclattice
    from layers import TraceRecorder

    recorder = TraceRecorder(rqclattice)
    with recorder:
        for req in wl.requests:
            recorder.tracer.request = req.rid
            loop.one(req)
    return recorder.readout()


def run_cli_entry(wl, loop: Loop, req, memory: bool) -> dict | None:
    """Run one cold-cli command under cli_entry.py; its record, or None if it wrote none."""
    out = OUT_DIR / "cli-entry.json"
    done = Path(str(out) + ".done")
    for f in (out, done):
        f.unlink(missing_ok=True)
    entry = [sys.executable, str(BENCH_DIR / "cli_entry.py"), "--out", str(out),
             *(["--memory"] if memory else []), "--", *req.p["argv"]]
    loop.one(req, run=lambda r: wl.run(r, entry=entry))
    if not (out.is_file() and done.is_file()):
        return None
    rec = json.loads(out.read_text())
    rec["t_written"] = json.loads(done.read_text())["t_written"]
    for f in (out, done):
        f.unlink()
    return rec


def traced_pass_cli(wl, loop: Loop) -> tuple[list[dict], list[float], list[float]]:
    """Startup is spawn to package imported; overhead is the process wall time
    outside the handler and the trace dump."""
    readouts, startup, overhead = [], [], []
    for req in wl.requests:
        rec = run_cli_entry(wl, loop, req, memory=False)
        if rec is None:
            continue
        rec["readout"]["request"] = req.rid
        readouts.append(rec["readout"])
        startup.append(rec["t_imported"] - wl.last_spawn)
        handler = rec["t_main_end"] - rec["t_main_start"]
        overhead.append(loop.latencies[req.rid][-1] - handler - (rec["t_written"] - rec["t_main_end"]))
    return readouts, startup, overhead


def memory_pass(wl, loop: Loop) -> float:
    """Largest tracemalloc peak of one lattice request, in MB."""
    peak = 0
    if wl.in_process:
        lattice = [r for r in wl.requests if r.kind in ("transfer", "direct")]
        if not lattice:
            return 0.0
        tracemalloc.start()
        try:
            for req in lattice:
                tracemalloc.reset_peak()
                loop.one(req)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return peak / 2**20
    for req in wl.requests:
        if req.p["argv"][0] == "framepotential":
            rec = run_cli_entry(wl, loop, req, memory=True)
            if rec is not None:
                peak = max(peak, rec["peak_alloc_bytes"])
    return peak / 2**20


def traced_run(wl, checks) -> tuple[dict, dict, int, int]:
    """Untraced, traced and memory passes; per-layer metrics and span records.

    Layer times are wall clock (the tracer cannot rescale every span); the
    trace.* pass times are at the reference speed, like wall_s.
    """
    from layers import layer_metrics, merge_readouts

    untraced, traced, memory = Loop(wl, checks), Loop(wl, checks), Loop(wl, checks)
    untraced.cycle(0.0)
    if wl.in_process:
        readout = traced_pass_in_process(wl, traced)
        startup, overhead = [], []
        spans = readout.pop("spans")
    else:
        readouts, startup, overhead = traced_pass_cli(wl, traced)
        spans = [{"request": r["request"], "spans": r.pop("spans")} for r in readouts]
        readout = merge_readouts(readouts)
    peak_alloc = memory_pass(wl, memory)
    metrics = layer_metrics(readout, peak_alloc_mb=peak_alloc,
                            threads2_speedup=threads2_speedup(wl, untraced.latencies),
                            cli_startup=startup, cli_overhead=overhead,
                            wall_untraced_s=untraced.wall_s(), wall_traced_s=traced.wall_s())
    loops = (untraced, traced, memory)
    return (metrics, {"readout": readout, "spans": spans},
            sum(lp.ops for lp in loops), sum(lp.ops_failed for lp in loops))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def report(args, wl, checks, ops: int, metrics: dict, notes: dict):
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(wl.requests)} requests per pass, {ops} requests run")
    for name, m in metrics.items():
        extra = ""
        if name == "req_tail_s":
            extra = f"  (p{notes['req_tail_percentile']:.1f} of {notes['req_tail_samples']} per-request medians)"
        if name == "wall_s":
            extra = f"  (at reference speed; {notes['wall_clock_s']:.6g} s wall clock)"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':32s} {checks.fail_frac:.6g} ratio  ({checks.failed} of {checks.attempted} checks failed, "
          f"{checks.known_defect_failed} of them known defects)")
    if args.workload == "exact-grid":
        print(f"  {'float_rel_err_max':32s} {checks.float_rel_err_max:.6g} ratio")
    for point, (mean, se, total, z) in getattr(wl, "z_report", {}).items():
        print(f"  z {point}: {z:+.2f} ({total} samples){'  known defect' if point in W.KNOWN_DEFECTS else ''}")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    wl = W.make_workload(args.workload, args.seed, ROOT)
    if args.setup_probe:
        print(timed_at_reference_speed(wl.setup, wl.in_process))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    checks = W.Checks()
    if args.trace:
        wl.setup()
        metrics, detail, ops, ops_failed = traced_run(wl, checks)
        notes = {}
    else:
        setups = setup_times(wl, args)
        loop = Loop(wl, checks)
        loop.cycle(args.seconds)
        metrics, notes = end_to_end(wl, loop, setups)
        ops, ops_failed = loop.ops, loop.ops_failed
        detail = {"latencies": loop.latencies, "ref_latencies": loop.ref_latencies}
    wl.finish(checks)
    report(args, wl, checks, ops, metrics, notes)

    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"metrics": metrics, "notes": notes,
                   "checks": {"attempted": checks.attempted, "failed": checks.failed,
                              "known_defect_failed": checks.known_defect_failed,
                              "fail_frac": checks.fail_frac,
                              "float_rel_err_max": checks.float_rel_err_max,
                              "failures": checks.failures},
                   **detail}, fh)
    print(json.dumps({
        "correct": checks.unexpected_failed == 0,
        "attempted": ops,
        "failed": ops_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
