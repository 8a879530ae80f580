"""Static checks on the package source (no linter is assumed installed)."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import wavespoof
from wavespoof.experiment import _MatrixRunner
from wavespoof.features import get_extractor

PACKAGE = Path(wavespoof.__file__).resolve().parent


def unused_imports(source: str):
    """Names a module imports but never references, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_detected():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_package_modules_use_every_import():
    # __init__.py re-exports its imports, so it is not checked
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _referenced_names(trees):
    """Every name that the trees load, read as an attribute or import."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def unreferenced_constants(sources):
    """Module-level UPPER_CASE names that no module of sources (a mapping of
    module name to source text) references, as (module, line, name)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = _referenced_names(trees)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.lstrip("_").isupper()
                    and target.id not in referenced
                ):
                    found.append((module, node.lineno, target.id))
    return sorted(found)


def test_unreferenced_constants_are_detected():
    sources = {
        "a": "LIMIT = 3\n_USED = 1\nUNUSED = 2\nlower = 4\nTYPED: int = 5\nprint(_USED)\n",
        "b": "from .a import LIMIT\nimport c\nc.SHARED\n",
        "c": "SHARED = 1\nORPHAN = SHARED\n",
    }
    assert unreferenced_constants(sources) == [
        ("a", 3, "UNUSED"),
        ("a", 5, "TYPED"),
        ("c", 2, "ORPHAN"),
    ]


def test_package_constants_are_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_constants(sources) == []


def unreferenced_private_functions(sources):
    """Module-level _-prefixed functions and methods of _-prefixed classes
    (dunders aside) that no module of sources references, as (module, line,
    name); a method is named Class.method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = _referenced_names(trees)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions) and node.name.startswith("_"):
                candidates = [(node, node.name)]
            elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                candidates = [
                    (method, f"{node.name}.{method.name}")
                    for method in node.body
                    if isinstance(method, functions)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                ]
            else:
                continue
            found.extend(
                (module, fn.lineno, name) for fn, name in candidates if fn.name not in referenced
            )
    return sorted(found)


def test_unreferenced_private_functions_are_detected():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _orphan():\n    pass\n"
            "def public():\n    _used()\n"
            "class _Runner:\n"
            "    def __init__(self):\n        self.step()\n"
            "    def step(self):\n        pass\n"
            "    def leftover(self):\n        pass\n"
            "class Public:\n    def unused(self):\n        pass\n"
        ),
        "b": "from .a import _helper\n",
        "c": "def _helper():\n    pass\n",
    }
    assert unreferenced_private_functions(sources) == [
        ("a", 3, "_orphan"),
        ("a", 12, "_Runner.leftover"),
    ]


def test_package_private_functions_are_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


def uncalled_exports(sources):
    """Names that __init__.py (in sources, a mapping of module name to source
    text) imports to export and that no other module of sources references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    exported = [alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    referenced = _referenced_names(trees)
    return sorted(name for name in exported if name not in referenced)


def test_uncalled_exports_are_detected():
    sources = {
        "__init__.py": "from .a import used, orphan\nfrom .b import Kind\n",
        "a.py": "def used():\n    pass\ndef orphan():\n    used()\n",
        "b.py": "class Kind:\n    pass\n",
        "c.py": "from .a import used\n",
    }
    assert uncalled_exports(sources) == ["Kind", "orphan"]


# Exports that the package itself need not call, with the reason each stays.
PUBLIC_ONLY = {
    "extend_cdf": "the reference that the genuinization kernel tests compare against",
    "run_scenario": "the public one-row entry point; it runs the matrix's own path",
}


def test_package_exports_are_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert uncalled_exports(sources) == sorted(PUBLIC_ONLY)


def setflags_calls(sources):
    """(module, line) of each .setflags(...) call in sources, a mapping of
    module name to source text."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
            ):
                found.append((module, node.lineno))
    return sorted(found)


def test_setflags_calls_are_detected():
    sources = {
        "a": "import numpy as np\nx = np.zeros(3)\nx.setflags(write=False)\n",
        "b": "def f(y):\n    return y.flags.writeable\n",
        "c": "def g(arr):\n    arr.copy().setflags(write=False)\n",
    }
    assert setflags_calls(sources) == [("a", 3), ("c", 2)]


def test_only_frozen_array_freezes_arrays():
    # errors.frozen_array is the one owner of a valid, read-only array field
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [module for module, _ in setflags_calls(sources)] == ["errors.py"]


def path_prefixed_fstrings(sources):
    """(module, line) of each f-string in sources (a mapping of module name
    to source text) that starts with a formatted path: a name or attribute
    whose identifier contains "path", or a bare name that ": " follows."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.JoinedStr) or not node.values:
                continue
            first, rest = node.values[0], node.values[1:]
            if not isinstance(first, ast.FormattedValue):
                continue
            follows = rest[0].value if rest and isinstance(rest[0], ast.Constant) else ""
            if isinstance(first.value, ast.Name):
                is_path = "path" in first.value.id or follows.startswith(": ")
            else:
                is_path = "path" in getattr(first.value, "attr", "")
            if is_path:
                found.append((module, node.lineno))
    return sorted(found)


def test_path_prefixed_fstrings_are_detected():
    sources = {
        "a": 'def f(path, n):\n    raise ValueError(f"{path}:{n}: bad")\n',
        "b": 'def g(self):\n    return f"{self.out_path} written"\n',
        "c": 'def h(config):\n    where = f"{config}: "\n    return where\n',
        "d": (
            'def ok(subset, label, field, path):\n'
            '    a = f"{subset}:{label}"\n'
            '    b = f"{field} must be positive"\n'
            '    c = f"line {path}"\n'
            '    d = f"{type(field).__name__}: {label}"\n'
            '    return a, b, c, d\n'
        ),
    }
    assert path_prefixed_fstrings(sources) == [("a", 2), ("b", 2), ("c", 2)]


def test_only_reading_names_a_file_in_a_message():
    # errors.reading is the one owner that prefixes a fault with its file
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [module for module, _ in path_prefixed_fstrings(sources)] == ["errors.py"]


def test_traced_report_finds_every_name_it_wraps():
    # perfbench/spans.py skips a name it cannot find, and the traced report
    # then lacks that layer's metrics; load it as it is and resolve its names
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module_name, attr, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target) and target.__module__ == module_name, (module_name, attr)
    assert list(inspect.signature(_MatrixRunner._memo).parameters) == [
        "self", "store", "key", "build"
    ]
    assert callable(get_extractor("lfcc"))
