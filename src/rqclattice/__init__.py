"""Exact statistical-mechanics engine for random-quantum-circuit moments.

Computes Weingarten functions and triangular-lattice plaquette weights
symbolically, evaluates frame potentials of brickwork circuits exactly (two
independent routes) and by Monte Carlo, and evaluates domain-wall counts and
design-depth formulas.

The public names below, and the submodules that define them, are loaded on
first use (PEP 562): ``import rqclattice`` imports no submodule and no numpy,
and ``rqclattice.build_table`` imports ``rqclattice.plaquette`` and returns its
``build_table``.  No name is copied into this namespace, so the package always
shows what its submodule holds, a patched or traced function included; the
price is about 0.7 us a lookup (a submodule, once imported, is a plain
attribute), so a loop should bind the function once.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it (a name equal to its submodule
# is the submodule itself)
_EXPORTS = {
    "BudgetExceededError": "errors",
    "PoleError": "errors",
    "SingularMatrixError": "errors",
    "VerificationError": "errors",
    "RationalFunction": "exact",
    "Perm": "perms",
    "cycle_type": "perms",
    "transposition_distance": "perms",
    "character": "characters",
    "content_polynomial": "characters",
    "irrep_dimension": "characters",
    "partitions": "characters",
    "weingarten_table": "weingarten",
    "wg_gram": "weingarten",
    "wg_restricted": "weingarten",
    "wg_symbolic": "weingarten",
    "PlaquetteTable": "plaquette",
    "WallSignature": "plaquette",
    "asymptotic_check": "plaquette",
    "build_table": "plaquette",
    "classify": "plaquette",
    "plaquette_weight": "plaquette",
    "verify_rules": "plaquette",
    "CircuitGeometry": "geometry",
    "FramePotentialResult": "lattice",
    "build_geometry": "lattice",
    "frame_potential_direct": "lattice",
    "frame_potential_special": "lattice",
    "frame_potential_transfer": "lattice",
    "MCEstimate": "montecarlo",
    "circuit_trace": "montecarlo",
    "estimate_frame_potential": "montecarlo",
    "sample_haar_gate": "montecarlo",
    "bounds": "bounds",
}

__all__ = list(_EXPORTS)
_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name):
    submodule = _EXPORTS.get(name, name)
    if submodule not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import system binds an imported submodule in this namespace
    module = globals().get(submodule) or importlib.import_module(f"{__name__}.{submodule}")
    return module if name == submodule else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
