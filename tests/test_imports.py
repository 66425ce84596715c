"""What a cold process imports, and the package's lazily loaded public names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rqclattice

SRC = str(Path(rqclattice.__file__).resolve().parents[1])

# runs one CLI command with its output discarded, then prints the loaded modules
_CLI_PROBE = """
import contextlib, io, json, sys
from rqclattice.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


# runs one CLI command with its output discarded, then reports which tables
# of S_k it built: the (k!)^2 ones of a group table, and plaquette tables
_TABLE_PROBE = """
import contextlib, io, json, sys
from rqclattice.cli import main
from rqclattice.perms import group_table
from rqclattice.plaquette import build_table
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
groups = group_table.cache_info().misses
built = [name for name in ("mul", "rel") if name in vars(group_table(int(sys.argv[1])))]
print(json.dumps({"code": code, "group_tables": groups, "square_tables": built,
                  "plaquette_tables": build_table.cache_info().misses}))
"""


def _loaded(code: str, *argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(command: str) -> set[str]:
    report = _loaded(_CLI_PROBE, *command.split())
    assert report["code"] == 0
    return set(report["modules"])


def _has_numpy(modules: set[str]) -> bool:
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


class TestColdProcessFootprint:
    @pytest.mark.parametrize("command", [
        "weingarten --k 5 --d 2",
        "weingarten --k 3 --format csv",
        "bounds --n 16 --q 2 --k 2 --t 4 --epsilon 0.01",
        "bounds --n 10 --q 3 --k 3 --epsilon 0.01 --format csv",
        "geometry --n 8 --t 3 --bc periodic",
    ])
    def test_no_numpy(self, command):
        assert not _has_numpy(_cli_modules(command))

    def test_bounds_loads_only_bounds(self):
        ours = {m for m in _cli_modules("bounds --n 4 --q 2 --k 2 --t 3") if m.startswith("rqclattice.")}
        assert ours == {"rqclattice.cli", "rqclattice.bounds", "rqclattice.errors"}

    @pytest.mark.parametrize("command", [
        "geometry --n 8 --t 3 --bc periodic",
        "geometry --n 5 --q 3 --t 2 --format csv",
    ])
    def test_geometry_skips_the_weight_modules(self, command):
        # the shape is the geometry module's: no contraction engine, no tables
        modules = _cli_modules(command)
        assert "rqclattice.geometry" in modules
        assert not _has_numpy(modules)
        assert not modules & {"rqclattice.lattice", "rqclattice.perms", "rqclattice.plaquette",
                              "rqclattice.weingarten", "rqclattice.exact", "rqclattice.characters"}

    @pytest.mark.parametrize("command", [
        "framepotential montecarlo --n 4 --q 2 --t 3 --k 2 --samples 20",
        "framepotential montecarlo --n 6 --q 2 --t 2 --k 3 --samples 20 --bc periodic --two-sided",
    ])
    def test_montecarlo_skips_the_lattice(self, command):
        # the oracle shares only the brickwork shape with the exact routes
        ours = {m for m in _cli_modules(command) if m.startswith("rqclattice.")}
        assert ours == {"rqclattice.cli", "rqclattice.errors", "rqclattice.geometry",
                        "rqclattice.montecarlo"}

    @pytest.mark.parametrize("command", [
        "plaquettes --k 3 --q 2",
        "plaquettes --k 4 --key 2134 1243 --q 3",
    ])
    def test_plaquettes_skip_lattice_montecarlo_bounds(self, command):
        modules = _cli_modules(command)
        assert "rqclattice.plaquette" in modules
        assert not modules & {"rqclattice.lattice", "rqclattice.montecarlo", "rqclattice.bounds"}

    @pytest.mark.parametrize("command", ["verify --k 3 --q 2", "plaquettes --k 4 --q 2"])
    def test_rule_suite_and_dump_skip_numpy_ma(self, command):
        # numpy loads numpy.ma lazily, on first use (np.unique, say): about
        # 20 ms of a cold process
        assert "numpy.ma" not in _cli_modules(command)

    @pytest.mark.parametrize("k, command", [
        (6, "plaquettes --k 6 --key 213456 123456 --q 2"),
        (5, "plaquettes --k 5 --key 21345 13452 --nonzero-only"),
    ])
    def test_single_key_builds_no_square_table(self, k, command):
        report = _loaded(_TABLE_PROBE, str(k), *command.split())
        assert report == {"code": 0, "group_tables": 1, "square_tables": [], "plaquette_tables": 0}

    def test_full_dump_builds_its_tables(self):
        report = _loaded(_TABLE_PROBE, "3", *"plaquettes --k 3 --q 2".split())
        assert report == {"code": 0, "group_tables": 1, "square_tables": ["mul", "rel"],
                          "plaquette_tables": 1}

    def test_bare_package_import(self):
        modules = set(_loaded("import json, sys, rqclattice\n"
                              "print(json.dumps({'modules': sorted(sys.modules)}))")["modules"])
        assert not _has_numpy(modules)
        assert not any(m.startswith("rqclattice.") for m in modules)


class TestLazyExports:
    @pytest.mark.parametrize("name", rqclattice.__all__)
    def test_every_name_is_the_submodule_object(self, name):
        module = importlib.import_module(f"rqclattice.{rqclattice._EXPORTS[name]}")
        expected = module if module.__name__ == f"rqclattice.{name}" else getattr(module, name)
        assert getattr(rqclattice, name) is expected

    @pytest.mark.parametrize("name", ["errors", "exact", "perms", "characters", "weingarten",
                                      "plaquette", "geometry", "lattice", "montecarlo", "bounds"])
    def test_submodules_are_attributes(self, name):
        assert getattr(rqclattice, name) is importlib.import_module(f"rqclattice.{name}")

    def test_names_follow_their_submodule(self, monkeypatch):
        # nothing is copied into the package: a patch of the defining module,
        # such as a tracer's wrapper, shows through it and is gone with the patch
        plaquette = importlib.import_module("rqclattice.plaquette")
        original = plaquette.build_table

        def wrapper(k):
            return original(k)

        monkeypatch.setattr(plaquette, "build_table", wrapper)
        assert rqclattice.build_table is wrapper
        monkeypatch.undo()
        assert rqclattice.build_table is original
        assert "build_table" not in vars(rqclattice)

    def test_star_import(self):
        namespace: dict = {}
        exec("from rqclattice import *", namespace)
        assert set(rqclattice.__all__) <= set(namespace)
        assert namespace["build_table"] is importlib.import_module("rqclattice.plaquette").build_table

    def test_dir_lists_every_export(self):
        assert set(rqclattice.__all__) | {"perms", "lattice"} <= set(dir(rqclattice))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rqclattice.no_such_name
        assert not hasattr(rqclattice, "_no_such_private")

    def test_lattice_still_reads_the_route_tables(self):
        # the routes import them where they use them; the module returns the
        # defining module's current function
        lattice = importlib.import_module("rqclattice.lattice")
        assert lattice.build_table is importlib.import_module("rqclattice.plaquette").build_table
        assert lattice.wg_gram is importlib.import_module("rqclattice.weingarten").wg_gram
        with pytest.raises(AttributeError, match="no_such_name"):
            lattice.no_such_name


def _imports(name: str) -> tuple[set[str], list[int]]:
    """The modules a package module imports at its top level (relative ones
    as ".name"), and the lines of every import inside a function or class."""
    tree = ast.parse(Path(SRC, "rqclattice", f"{name}.py").read_text())
    top = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            top.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            top.add("." * node.level + (node.module or ""))
    nested = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              and not any(node is top_node for top_node in tree.body)]
    return top, nested


class TestModuleBoundaries:
    def test_geometry_imports_only_the_stdlib_and_errors(self):
        top, nested = _imports("geometry")
        assert nested == []
        assert {m for m in top if m.startswith(".")} == {".errors"}
        assert {m for m in top if not m.startswith(".")} <= set(sys.stdlib_module_names) | {"__future__"}

    def test_lattice_imports_at_its_top_and_keeps_no_shim(self):
        top, nested = _imports("lattice")
        assert nested == []
        assert "importlib" not in top
        lattice = importlib.import_module("rqclattice.lattice")
        assert "__getattr__" not in vars(lattice) and "_ROUTE_TABLES" not in vars(lattice)

    def test_plaquette_imports_at_its_top(self):
        # every command that loads it has built a group table, so numpy is loaded
        top, nested = _imports("plaquette")
        assert nested == []
        assert "numpy" in top

    def test_montecarlo_imports_nothing_of_the_lattice(self):
        top, nested = _imports("montecarlo")
        assert ".geometry" in top
        assert ".lattice" not in top and nested == []
