"""The package is what a run uses: every public definition in ``src/`` has a
caller outside the tests, every defaulted parameter of one is passed by such a
caller, no module imports inside a function, the modules import one another
without a cycle, every file the package writes goes through one writer, and
the top level exports the names scripts import from it."""

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
# the verification claims rest on, the draw stream's subset, which its tests
# check against sample_subset, and the accuracy-free (alpha, b) pair a later
# run option will call.
TEST_ONLY = {
    "DrawStream.subset",
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


# Defaulted parameters only tests pass, kept on purpose, as
# "module.function(parameter)".
TEST_ONLY_PARAMETERS = {
    # the tests drive the CLI in process
    "cli.main(argv)",
    # Tier-1 checks the growth claim at b > 1, which verify never scans
    "verification.scan_denominator_growth(batch_size)",
}


def public_functions(package: Path):
    """(qualified name, function node, leading parameters a call does not
    pass) of the public top-level functions of the modules in ``package``
    and of the public methods of their public classes: ``self`` or ``cls``
    is one, except for a static method."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, 0
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in member.decorator_list)
                        yield f"{path.stem}.{node.name}.{member.name}", member, 0 if static else 1


def defaulted_parameters(package: Path):
    """("module.function(parameter)", function name, parameter, positional
    index of the parameter in a call, or None for a keyword-only one) of
    every defaulted parameter of ``public_functions``."""
    for qualified, function, implicit in public_functions(package):
        args = function.args
        positional = args.posonlyargs + args.args
        defaulted = [(a.arg, i - implicit) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        for parameter, index in defaulted:
            yield f"{qualified}({parameter})", function.name, parameter, index


def calls_by_name(root: Path) -> dict[str, list[ast.Call]]:
    """Every call in the caller trees under ``root``, by the name it calls:
    ``f(...)`` and ``obj.f(...)`` are both calls of ``f``."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in CALLER_TREES:
        for path in (root / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether ``call`` passes ``parameter``, at positional ``index``: by
    keyword, by position, or through ``*`` or ``**``."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index


def unpassed_parameters(root: Path, package: Path) -> list[str]:
    calls = calls_by_name(root)
    return [label for label, function, parameter, index in defaulted_parameters(package)
            if not any(passes(call, parameter, index) for call in calls.get(function, []))]


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = [p for p in unpassed_parameters(ROOT, PACKAGE) if p not in TEST_ONLY_PARAMETERS]
    assert unpassed == [], "test-only parameter in src/: drop it or pass it from a caller"


def test_the_kept_test_only_parameters_are_still_unpassed():
    assert TEST_ONLY_PARAMETERS <= set(unpassed_parameters(ROOT, PACKAGE))


def test_the_scan_finds_a_parameter_only_tests_pass(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def f(a, by_position=1, by_keyword=2, never=3, *, keyword_only=4, unseen=5):\n"
        "    return a\n\n"
        "def g(a, through_star=1, through_stars=2):\n    return a\n\n"
        "def _private(a, never=1):\n    return a\n\n"
        "class Box:\n"
        "    def put(self, item=None, late=False):\n        return item\n\n"
        "    @staticmethod\n"
        "    def make(size=1, shape=2):\n        return size\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "t.py").write_text(
        "from pkg.mod import Box, f, g\n"
        "f(0, 1, by_keyword=2, keyword_only=4)\n"
        "g(*[0, 1])\n"
        "g(0, **{})\n"
        "Box().put(1)\n"
        "Box.make(1)\n"
    )
    assert unpassed_parameters(tmp_path, package) == [
        "mod.f(never)", "mod.f(unseen)", "mod.Box.put(late)", "mod.Box.make(shape)"]


# Imports inside a function, kept on purpose, as (file, imported module).
FUNCTION_LEVEL_IMPORTS = {
    # ~0.3 s and ~25 MiB that only the separability LP of a reference solve needs
    ("problems.py", "scipy.optimize"),
}


def module_imports(path: Path) -> list[tuple[ast.AST, str, bool]]:
    """(node, imported module, whether inside a function) of each import in
    the module at ``path``; the package's own modules are named by their
    file stem, as ``from . import x`` and ``from .x import y`` name them."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import) or (
                    isinstance(child, ast.ImportFrom) and child.module is None):
                found.extend((child, alias.name, inside) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((child, child.module, inside))
            visit(child, inside)

    visit(ast.parse(path.read_text()), False)
    return found


def function_level_imports(package: Path) -> list[tuple[str, int, str]]:
    """(file, line, imported module) of each import inside a function."""
    return [(path.name, node.lineno, module)
            for path in sorted(package.glob("*.py"))
            for node, module, inside in module_imports(path) if inside]


def import_cycle(package: Path) -> list[str]:
    """One cycle of the package's module imports, wherever they stand, as
    the modules along it; empty when the imports form no cycle."""
    modules = {path.stem for path in package.glob("*.py")}
    edges = {path.stem: sorted(modules & {
        module.rpartition(".")[2] for node, module, _ in module_imports(path)
        if getattr(node, "level", 0) or module.startswith("katyusha_h")})
        for path in package.glob("*.py")}
    done: set[str] = set()

    def walk(module, trail):
        if module in trail:
            return trail[trail.index(module):] + [module]
        if module in done:
            return []
        for imported in edges[module]:
            if cycle := walk(imported, trail + [module]):
                return cycle
        done.add(module)
        return []

    for module in sorted(edges):
        if cycle := walk(module, []):
            return cycle
    return []


def test_no_module_imports_inside_a_function():
    unexpected = [(name, line, module) for name, line, module in function_level_imports(PACKAGE)
                  if (name, module) not in FUNCTION_LEVEL_IMPORTS]
    assert unexpected == [], "import at module level; break a cycle by moving a definition"


def test_the_kept_function_level_imports_still_exist():
    assert FUNCTION_LEVEL_IMPORTS == {
        (name, module) for name, _, module in function_level_imports(PACKAGE)}


def test_the_package_imports_form_no_cycle():
    assert import_cycle(PACKAGE) == []


def test_the_import_scans_find_a_hidden_import_and_its_cycle(tmp_path):
    (tmp_path / "a.py").write_text(
        "import math\n"
        "from . import b\n\n"
        "def f():\n    return b.g()\n"
    )
    (tmp_path / "b.py").write_text(
        "def g():\n"
        "    from .a import f\n"
        "    import json\n"
        "    return f\n"
    )
    (tmp_path / "c.py").write_text("from .b import g\n")
    assert function_level_imports(tmp_path) == [("b.py", 2, "a"), ("b.py", 3, "json")]
    assert import_cycle(tmp_path) == ["a", "b", "a"]
    (tmp_path / "b.py").write_text("import json\n")
    assert (function_level_imports(tmp_path), import_cycle(tmp_path)) == ([], [])


# os.open flags that let a descriptor write
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: a ``write_text`` or ``write_bytes``, an
    ``open`` (builtin, ``io.`` or a path's) whose mode holds w, a, x or +,
    or an ``os.open`` whose flags name a writing flag.  A mode or flags that
    are not spelled out in the call count as writing."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    owner = getattr(getattr(func, "value", None), "id", None)
    keyword = "flags" if owner == "os" else "mode"
    # a path's open takes the mode first; open, io.open and os.open second
    index = 0 if isinstance(func, ast.Attribute) and owner not in ("io", "os") else 1
    given = [k.value for k in call.keywords if k.arg == keyword] + call.args[index:index + 1]
    if not given:  # open's default mode reads
        return False
    if owner == "os":
        named = {getattr(n, "attr", None) or getattr(n, "id", None) for n in ast.walk(given[0])}
        return bool(named & WRITE_FLAGS) or not any(str(n).startswith("O_") for n in named)
    mode = given[0]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def file_writes(package: Path) -> list[tuple[str, int, str | None]]:
    """(file, line, top-level function or None) of each call in ``package``
    that ``writes_a_file``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            found += sorted((path.name, node.lineno, where) for node in ast.walk(top)
                            if isinstance(node, ast.Call) and writes_a_file(node))
    return found


def test_every_file_the_package_writes_goes_through_write_utf8():
    # one writer, so that no output file is truncated in place or written
    # in the locale's encoding
    assert [(name, where) for name, _, where in file_writes(PACKAGE)] == [
        ("problems.py", "write_utf8")]


def test_the_write_scan_finds_each_way_to_write_a_file(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import io\nimport os\nfrom pathlib import Path\n\n"
        "def reads(path, fd):\n"
        "    open(path).read()\n"
        "    open(path, 'rb').read()\n"
        "    Path(path).open(mode='r')\n"
        "    os.open(path, os.O_RDONLY)\n"
        "    os.write(fd, b'not a file open')\n"
        "    return Path(path).read_text()\n\n"
        "def writes(path, mode):\n"
        "    Path(path).write_text('a')\n"
        "    path.write_bytes(b'a')\n"
        "    open(path, 'w')\n"
        "    io.open(path, mode='ab')\n"
        "    Path(path).open('r+')\n"
        "    open(path, mode)\n"
        "    def nested():\n"
        "        return open(path, 'x')\n"
        "    return os.open(path, os.O_WRONLY | os.O_CREAT)\n\n"
        "open('log.txt', 'a')\n"
    )
    assert file_writes(tmp_path) == [
        ("mod.py", line, "writes") for line in (14, 15, 16, 17, 18, 19, 21, 22)] + [
        ("mod.py", 24, None)]


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
