"""The names that the demos and the benchmark take from fraclap still exist.

Neither is run in full by the test suite, so a public name removed from the
package would only show when someone ran them.  The names are read from the
source with ast, without running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def resolve(dotted: str):
    """The object at a dotted path under fraclap, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:depth]))
        obj = getattr(obj, part)
    return obj


def imported_names(tree) -> set:
    """fraclap.<module>.<name> for each `from fraclap[.module] import name`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0 \
                and node.module.split(".")[0] == "fraclap":
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def attribute_names(tree) -> set:
    """Dotted paths such as fraclap.solve_bvp for each `fl.solve_bvp` where fl
    is bound by `import fraclap as fl` (or `import fraclap[.module]`)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fraclap":
                    # `import fraclap.cli` binds fraclap; `import fraclap.cli as c` binds c
                    aliases[alias.asname or "fraclap"] = alias.name if alias.asname else "fraclap"
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in aliases:
                out.add(".".join([aliases[value.id], *reversed(chain)]))
    return out


def traced_names(tree) -> set:
    """fraclap.<module>.<name> for each function and method that the
    benchmark tracer patches (its FUNCTIONS and METHODS tables)."""
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("FUNCTIONS", "METHODS")}
    out = {f"fraclap.{module}.{name}" for module, names in tables.get("FUNCTIONS", {}).items()
           for name in names}
    out.update(f"fraclap.{'.'.join(path)}" for path in tables.get("METHODS", ()))
    return out


def names_in(pattern: str, finder) -> list:
    found = []
    for path in sorted(ROOT.glob(pattern)):
        found.extend((path.name, name) for name in sorted(finder(ast.parse(path.read_text()))))
    return found


DEMO_NAMES = names_in("demos/*.py", imported_names)
BENCH_NAMES = names_in("bench/*.py", attribute_names)
TRACED_NAMES = names_in("bench/tracing.py", traced_names)


def test_sources_found():
    assert len(DEMO_NAMES) >= 10 and len(BENCH_NAMES) >= 10 and len(TRACED_NAMES) >= 10


@pytest.mark.parametrize("source,name", DEMO_NAMES + BENCH_NAMES + TRACED_NAMES)
def test_name_resolves(source, name):
    resolve(name)
