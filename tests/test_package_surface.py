"""The package is what a run uses: every public definition in ``src/`` has a
caller outside the tests, and the top level exports the names scripts import
from it."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "katyusha_h"
CALLER_TREES = ("src", "tools", "benchmarks")
# Public definitions only tests call, kept on purpose: the brute-force oracles
# the verification claims rest on, and the accuracy-free (alpha, b) pair a
# later run option will call.
TEST_ONLY = {
    "exact_variance",
    "enumeration_mean_estimate",
    "exact_conditional_lyapunov_descent",
    "verify_variance_bound",
    "accuracy_free_config",
}


def public_definitions(package: Path):
    """Qualified names of the public top-level functions and classes of the
    modules in ``package``, and of the public methods of those classes."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}"


def referenced_names(root: Path) -> set[str]:
    """Every name read, attribute taken or string constant in the caller
    trees under ``root``.  An import alone is no use; strings count because
    the benchmark wraps functions by name."""
    names = set()
    for tree in CALLER_TREES:
        for path in (root / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def unreferenced(root: Path, package: Path) -> list[str]:
    used = referenced_names(root)
    return [name for name in public_definitions(package) if name.rpartition(".")[2] not in used]


def test_every_public_definition_has_a_caller_outside_the_tests():
    unused = [name for name in unreferenced(ROOT, PACKAGE) if name not in TEST_ONLY]
    assert unused == [], "test-only surface in src/: move it into the tests or delete it"


def test_the_kept_test_only_names_still_exist():
    assert TEST_ONLY <= set(public_definitions(PACKAGE))


def test_the_scan_finds_a_definition_only_tests_call(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def called():\n    return used()\n\n"
        "def imported_only():\n    return 2\n\n"
        "def bound_by_name():\n    return 3\n\n"
        "def _private():\n    return 4\n\n"
        "class Box:\n"
        "    def opened(self):\n        return called\n\n"
        "    def closed(self):\n        return 5\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "t.py").write_text(
        "from pkg.mod import Box, imported_only\n"
        "Box.closed\n"
        "LAYER = 'bound_by_name'\n"
    )
    assert unreferenced(tmp_path, package) == ["imported_only", "Box.opened"]


def imported_from_top_level(source: str) -> set[str]:
    """Names that ``source`` imports with ``from katyusha_h import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "katyusha_h"
        for alias in node.names
    }


def quick_start_names() -> set[str]:
    """The names the README's library quick start imports from katyusha_h."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return imported_from_top_level(block)


def test_quick_start_imports_resolve_from_the_top_level():
    package = importlib.import_module("katyusha_h")
    names = quick_start_names()
    assert names  # the block imports from the package
    missing = [name for name in sorted(names) if not hasattr(package, name)]
    assert missing == []


def test_the_top_level_is_what_scripts_import():
    # the README and tools/ import these names; everything else, the
    # benchmark's submodules included, is imported from its submodule
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    scripts = quick_start_names()
    for path in (ROOT / "tools").glob("*.py"):
        scripts |= imported_from_top_level(path.read_text()) - submodules
    assert sorted(importlib.import_module("katyusha_h").__all__) == sorted(scripts)


# A fresh interpreter imports the package and its CLI, then runs one
# least-squares and one l1-logistic problem with a reference; it prints the
# scipy modules loaded then, and again after the reference solve of a
# zero-weight logistic problem, whose separability LP is the one scipy call.
SCIPY_PROBE = """
import sys
import katyusha_h, katyusha_h.cli
from katyusha_h import Regularizer, RunConfig, run, synthesize, with_reference
scipy = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
for family in ("least_squares", "logistic"):
    _, problem = synthesize(30, 5, family, seed=3, reg=Regularizer.l1(0.01))
    run(with_reference(problem, tol=1e-8),
        RunConfig(alpha=0.5, batch_size=3, epsilon=1e-6, lyapunov=True))
print(scipy())
_, problem = synthesize(30, 5, "logistic", seed=3)
try:
    with_reference(problem, tol=1e-8)
except ValueError:  # separable: no minimizer
    pass
print("scipy.optimize" in scipy())
"""


def test_runs_load_numpy_and_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "True"]
