"""Per-layer metrics: what the tracer records and how its readouts become metrics.

Layers are the package's modules.  A `*_s` metric named after an operation is
the outermost inclusive time of that operation's spans (children included,
nested calls of the same group counted once); a `*.self_s` metric is the
summed self time of the layer's spans.  Counts come from span calls and from
the `lru_cache` statistics of the table builders.
"""

from __future__ import annotations

from stats import median
from spans import Tracer

# lru_cache'd table builders whose hit and miss counts are read
CACHED = {
    "perms.group_table": ("perms", "group_table"),
    "weingarten.weingarten_table": ("weingarten", "weingarten_table"),
    "weingarten.wg_in_q": ("weingarten", "wg_in_q"),
    "plaquette.build_table": ("plaquette", "build_table"),
}

EVALUATE = ("exact.RationalFunction.evaluate", "exact.RationalFunction.evaluate_float",
            "exact.Polynomial.evaluate")
VERIFY = ("plaquette.verify_rules", "plaquette.asymptotic_check", "plaquette.pole_free_report")
MC_DENSE_MIN_N = 8  # from n = 8 on a sample is dominated by dense matrix products

GROUPS = {
    "lattice.transfer_exact_s": lambda s: s == "lattice.frame_potential_transfer[exact]",
    "lattice.transfer_float_s": lambda s: s == "lattice.frame_potential_transfer[float]",
    "lattice.direct_s": lambda s: s == "lattice.frame_potential_direct",
    "lattice.geometry_s": lambda s: s == "lattice.build_geometry",
    "perms.group_table_s": lambda s: s == "perms.group_table",
    "weingarten.symbolic_s": lambda s: s.startswith("weingarten.") and s not in (
        "weingarten.wg_gram", "weingarten.wg_restricted"),
    "weingarten.gram_s": lambda s: s == "weingarten.wg_gram",
    "plaquette.table_s": lambda s: s == "plaquette.build_table" or s.startswith("plaquette.PlaquetteTable."),
    "plaquette.verify_s": lambda s: s in VERIFY,
    "montecarlo.small_s": lambda s: s == "montecarlo.estimate_frame_potential[small]",
    "montecarlo.dense_s": lambda s: s == "montecarlo.estimate_frame_potential[dense]",
    "montecarlo.haar_gate_s": lambda s: s == "montecarlo.sample_haar_gate",
    "montecarlo.trace_s": lambda s: s == "montecarlo.circuit_trace",
}

# Every per-layer metric, in the order printed; all are reported on every
# workload (a layer the workload does not reach reads 0).
METRICS = [
    ("lattice.transfer_exact_s", "s"), ("lattice.direct_s", "s"),
    ("lattice.transfer_float_s", "s"), ("lattice.geometry_s", "s"),
    ("lattice.peak_alloc_mb", "MB"),
    ("exact.evaluate_s", "s"), ("exact.evaluate_calls", "count"),
    ("exact.evaluate_distinct_ratio", "ratio"), ("exact.poly_s", "s"),
    ("perms.group_table_s", "s"), ("perms.group_table_builds", "count"),
    ("perms.group_table_hit_ratio", "ratio"),
    ("characters.self_s", "s"),
    ("weingarten.symbolic_s", "s"), ("weingarten.table_hit_ratio", "ratio"),
    ("weingarten.wg_in_q_hit_ratio", "ratio"),
    ("weingarten.gram_s", "s"), ("weingarten.gram_calls", "count"),
    ("plaquette.table_s", "s"), ("plaquette.table_hit_ratio", "ratio"),
    ("plaquette.verify_s", "s"),
    ("montecarlo.sample_ms.small", "ms"), ("montecarlo.sample_ms.dense", "ms"),
    ("montecarlo.haar_gate_s", "s"), ("montecarlo.haar_gate_calls", "count"),
    ("montecarlo.trace_s", "s"), ("montecarlo.threads2_speedup", "ratio"),
    ("bounds.self_s", "s"),
    ("cli.startup_s", "s"), ("cli.overhead_s", "s"),
    ("trace.wall_untraced_s", "s"), ("trace.wall_traced_s", "s"),
    ("trace.overhead_s", "s"),
]


class TraceRecorder:
    """A Tracer configured for rqclattice, plus the counters its hooks fill."""

    def __init__(self, package):
        self.package = package
        self.evaluate_calls = 0
        self.evaluate_keys: set = set()
        self.mc_samples = {"small": 0, "dense": 0}
        self.tracer = Tracer(
            package,
            refine={
                "lattice.frame_potential_transfer": self._transfer_backend,
                "montecarlo.estimate_frame_potential": self._mc_class,
            },
            observe={
                "exact.RationalFunction.evaluate": self._evaluate,
                "exact.RationalFunction.evaluate_float": self._evaluate,
                "montecarlo.estimate_frame_potential": self._mc_samples,
            },
            groups=GROUPS,
            # exact arithmetic is a layer of its own (exact.poly_s); a span on
            # every Perm product would cost more than the group table it times
            dunder_modules={"exact"},
        )

    @staticmethod
    def _arg(args, kwargs, index, name, default):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)

    def _transfer_backend(self, name, args, kwargs):
        return f"{name}[{self._arg(args, kwargs, 2, 'backend', 'exact')}]"

    def _mc_class(self, name, args, kwargs):
        n = self._arg(args, kwargs, 0, "n", None)
        return f"{name}[{'dense' if n >= MC_DENSE_MIN_N else 'small'}]"

    def _mc_samples(self, args, kwargs):
        n = self._arg(args, kwargs, 0, "n", None)
        self.mc_samples["dense" if n >= MC_DENSE_MIN_N else "small"] += self._arg(args, kwargs, 4, "samples", 0)

    def _evaluate(self, args, kwargs):
        self.evaluate_calls += 1
        self.evaluate_keys.add((args[0], args[1] if len(args) > 1 else kwargs.get("x")))

    def cache_info(self) -> dict:
        out = {}
        for name, (mod, attr) in CACHED.items():
            info = getattr(getattr(self.package, mod), attr).cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def __enter__(self):
        self._cache_before = self.cache_info()
        self.tracer.install()
        return self

    def __exit__(self, *exc):
        self.tracer.restore()
        after = self.cache_info()
        self.cache = {k: [after[k][0] - self._cache_before[k][0], after[k][1] - self._cache_before[k][1]]
                      for k in after}
        return False

    def readout(self) -> dict:
        """Everything the metrics need, as plain data (mergeable across processes)."""
        summary = self.tracer.summary()
        return {
            "stats": summary["stats"],
            "groups_s": summary["groups_s"],
            "cache": self.cache,
            "evaluate_calls": self.evaluate_calls,
            "evaluate_distinct": len(self.evaluate_keys),
            "mc_samples": dict(self.mc_samples),
            "spans": summary["spans"],
            "spans_dropped": summary["spans_dropped"],
        }


def merge_readouts(readouts: list[dict]) -> dict:
    """Sum readouts of separate processes (cold-cli runs one per command)."""
    merged = {"stats": {}, "groups_s": dict.fromkeys(GROUPS, 0.0), "cache": {k: [0, 0] for k in CACHED},
              "evaluate_calls": 0, "evaluate_distinct": 0, "mc_samples": {"small": 0, "dense": 0}}
    for r in readouts:
        for name, s in r["stats"].items():
            m = merged["stats"].setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in m:
                m[key] += s[key]
        for g, v in r["groups_s"].items():
            merged["groups_s"][g] += v
        for k, (hits, misses) in r["cache"].items():
            merged["cache"][k][0] += hits
            merged["cache"][k][1] += misses
        merged["evaluate_calls"] += r["evaluate_calls"]
        merged["evaluate_distinct"] += r["evaluate_distinct"]
        for k, v in r["mc_samples"].items():
            merged["mc_samples"][k] += v
    return merged


def _hit_ratio(pair) -> float:
    hits, misses = pair
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(readout: dict, *, peak_alloc_mb: float, threads2_speedup: float,
                  cli_startup: list[float], cli_overhead: list[float],
                  wall_untraced_s: float, wall_traced_s: float) -> dict:
    stats, groups = readout["stats"], readout["groups_s"]

    def self_s(pred) -> float:
        return sum(s["self_s"] for name, s in stats.items() if pred(name))

    def calls(name) -> int:
        return stats.get(name, {}).get("calls", 0)

    evaluate_s = self_s(lambda n: n in EVALUATE)
    samples = readout["mc_samples"]
    values = {
        "lattice.transfer_exact_s": groups["lattice.transfer_exact_s"],
        "lattice.direct_s": groups["lattice.direct_s"],
        "lattice.transfer_float_s": groups["lattice.transfer_float_s"],
        "lattice.geometry_s": groups["lattice.geometry_s"],
        "lattice.peak_alloc_mb": peak_alloc_mb,
        "exact.evaluate_s": evaluate_s,
        "exact.evaluate_calls": readout["evaluate_calls"],
        "exact.evaluate_distinct_ratio": (readout["evaluate_distinct"] / readout["evaluate_calls"]
                                          if readout["evaluate_calls"] else 0.0),
        "exact.poly_s": self_s(lambda n: n.startswith("exact.")) - evaluate_s,
        "perms.group_table_s": groups["perms.group_table_s"],
        "perms.group_table_builds": readout["cache"]["perms.group_table"][1],
        "perms.group_table_hit_ratio": _hit_ratio(readout["cache"]["perms.group_table"]),
        "characters.self_s": self_s(lambda n: n.startswith("characters.")),
        "weingarten.symbolic_s": groups["weingarten.symbolic_s"],
        "weingarten.table_hit_ratio": _hit_ratio(readout["cache"]["weingarten.weingarten_table"]),
        "weingarten.wg_in_q_hit_ratio": _hit_ratio(readout["cache"]["weingarten.wg_in_q"]),
        "weingarten.gram_s": groups["weingarten.gram_s"],
        "weingarten.gram_calls": calls("weingarten.wg_gram"),
        "plaquette.table_s": groups["plaquette.table_s"],
        "plaquette.table_hit_ratio": _hit_ratio(readout["cache"]["plaquette.build_table"]),
        "plaquette.verify_s": groups["plaquette.verify_s"],
        "montecarlo.sample_ms.small": (1e3 * groups["montecarlo.small_s"] / samples["small"]
                                       if samples["small"] else 0.0),
        "montecarlo.sample_ms.dense": (1e3 * groups["montecarlo.dense_s"] / samples["dense"]
                                       if samples["dense"] else 0.0),
        "montecarlo.haar_gate_s": groups["montecarlo.haar_gate_s"],
        "montecarlo.haar_gate_calls": calls("montecarlo.sample_haar_gate"),
        "montecarlo.trace_s": groups["montecarlo.trace_s"],
        "montecarlo.threads2_speedup": threads2_speedup,
        "bounds.self_s": self_s(lambda n: n.startswith("bounds.")),
        "cli.startup_s": median(cli_startup) if cli_startup else 0.0,
        "cli.overhead_s": median(cli_overhead) if cli_overhead else 0.0,
        "trace.wall_untraced_s": wall_untraced_s,
        "trace.wall_traced_s": wall_traced_s,
        "trace.overhead_s": wall_traced_s - wall_untraced_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
