"""Package namespaces are lazy: importing one layer does not load the
others, and every re-exported name is its defining module's object."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Layers a simulation never runs; importing the simulate path must not
#: load (and, without bytecode caching, compile) any of them.
NOT_ON_SIMULATE_PATH = (
    "repro.tuner",
    "repro.serve",
    "repro.pipeline",
    "repro.analysis",
    "repro.faults",
    "repro.baselines",
    "repro.bench.figures",
)

SIMULATE_AND_RESOLVE = """
import importlib, inspect, json, pkgutil, sys

import repro
import repro.algorithms
import repro.bench.cache
from repro.algorithms import cannon
from repro.bench.cache import SIM_CACHE
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN

cluster = Cluster.cpu_cluster(4)
SIM_CACHE.simulate(cannon(Machine(cluster, Grid(2, 2)), 256), LASSEN)
loaded = sorted(m for m in sys.modules if m.startswith("repro"))

packages = ["repro"] + [
    "repro." + info.name
    for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]
problems = []
for name in packages:
    package = importlib.import_module(name)
    listed = set(dir(package))
    for export in getattr(package, "__all__", ()):
        obj = getattr(package, export)
        if export not in listed:
            problems.append(f"{name}.{export} missing from dir()")
        if export not in vars(package):
            problems.append(f"{name}.{export} not cached after first read")
        if inspect.isclass(obj) or inspect.isfunction(obj):
            home = sys.modules[obj.__module__]
            if getattr(home, obj.__name__, None) is not obj:
                problems.append(f"{name}.{export} is not {home.__name__}'s")
        elif not any(
            vars(module).get(export) is obj
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro.")
            and not hasattr(module, "__path__")
        ):
            problems.append(f"{name}.{export} has no defining module")
    if hasattr(package, "__all__"):
        bound = {}
        exec(f"from {name} import *", bound)
        bound.pop("__builtins__")
        if sorted(bound) != package.__all__:
            problems.append(f"{name}: import * binds {sorted(bound)}")
print(json.dumps({"loaded": loaded, "problems": problems}))
"""


def test_simulate_path_import_closure_and_lazy_exports():
    out = subprocess.run(
        [sys.executable, "-c", SIMULATE_AND_RESOLVE],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    result = json.loads(out.stdout)
    leaked = [
        m for m in result["loaded"]
        if any(m == p or m.startswith(p + ".") for p in NOT_ON_SIMULATE_PATH)
    ]
    assert leaked == []
    assert result["problems"] == []


def test_dir_lists_lazy_exports_before_first_read():
    # dir() of a package names every export, loaded or not.
    assert set(repro.__all__) <= set(dir(repro))


def test_all_comes_from_the_lazy_table():
    # A package lists its exports once, in its lazy_exports table:
    # ``__all__`` is never assigned by hand next to it.
    for init in sorted(Path(SRC, "repro").rglob("__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [
                t.id for t in ast.walk(node.targets[0])
                if isinstance(t, ast.Name)
            ]
            if "__all__" in targets:
                assert targets == ["__all__", "__getattr__", "__dir__"], init
                assert node.value.func.id == "lazy_exports", init

