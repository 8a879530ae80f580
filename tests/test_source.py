"""Static checks on the package source (no linter is assumed installed)."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import wavespoof
from wavespoof import GenuinizeParams, Waveform, cdf_from_pmf, estimate_pmf
from wavespoof.experiment import _MatrixRunner
from wavespoof.features import get_extractor
from wavespoof.genuinize import MODES

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


def method_calls(sources, method: str):
    """(module, line) of each .<method>(...) call in sources, a mapping of
    module name to source text."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
            ):
                found.append((module, node.lineno))
    return sorted(found)


def test_setflags_calls_are_detected():
    sources = {
        "a": "import numpy as np\nx = np.zeros(3)\nx.setflags(write=False)\n",
        "b": "def f(y):\n    return y.flags.writeable\n",
        "c": "def g(arr):\n    arr.copy().setflags(write=False)\n",
    }
    assert method_calls(sources, "setflags") == [("a", 3), ("c", 2)]


def test_only_frozen_array_freezes_arrays():
    # errors.frozen_array is the one owner of a valid, read-only array field
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [module for module, _ in method_calls(sources, "setflags")] == ["errors.py"]


def test_only_the_two_binary_writers_serialise_arrays():
    # errors.write_headed writes every headed payload (GPMF2, FEAT2, GMM1) and
    # waveform.write_wav the PCM data: no format keeps a container of its own
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [module for module, _ in method_calls(sources, "tobytes")] == [
        "errors.py", "waveform.py"
    ]


def sliding_window_calls(sources):
    """(module, line) of each call of sliding_window_view in sources (a
    mapping of module name to source text), by name or as an attribute."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and "sliding_window_view" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.append((module, node.lineno))
    return sorted(found)


def test_sliding_window_calls_are_detected():
    sources = {
        "a": (
            "from numpy.lib.stride_tricks import sliding_window_view\n"
            "def f(x):\n    return sliding_window_view(x, 4)[::2]\n"
        ),
        "b": "import numpy as np\ny = np.lib.stride_tricks.sliding_window_view(x, 3)\n",
        "c": "def sliding_window_view(x):\n    return x\nwindows = 2\n",
    }
    assert sliding_window_calls(sources) == [("a", 3), ("b", 2)]


def test_only_framed_cuts_frames():
    # waveform.framed is the one owner of the ms -> samples rule and of
    # cutting a signal into frames, for the VAD and the LFCC front end alike
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [module for module, _ in sliding_window_calls(sources)] == ["waveform.py"]


def field_fallbacks(sources, fields):
    """(module, line) of each getattr(x, "<field>", default) in sources (a
    mapping of module name to source text) whose field is one of fields:
    a path that takes a bare value in place of the value type."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in fields):
                found.append((module, node.lineno))
    return sorted(found)


def test_field_fallbacks_are_detected():
    sources = {
        "a": 'rows = getattr(features, "frames", features)\n',
        "b": 'meta = getattr(fm, "meta")\nkind = getattr(t, "__name__", t)\n',
        "c": 'def f(p):\n    return getattr(p, "mass", None)\n',
    }
    assert field_fallbacks(sources, ("frames", "meta", "mass")) == [("a", 1), ("c", 2)]


def test_value_types_are_the_only_inputs():
    # features reach the GMM layer as a FeatureMatrix, masses tv_distance as
    # a Pmf and masks estimate_pmf as a VadMask: no raw-array side door
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert field_fallbacks(sources, ("frames", "meta", "mass", "speech")) == []


def naming_places(sources, names):
    """(module, line) of each place in sources (a mapping of module name to
    source text) that names one of names: a name, an attribute, an imported
    name or a definition."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            else:
                continue
            if name in names:
                found.append((module, node.lineno))
    return sorted(found)


def test_naming_places_are_detected():
    sources = {
        "a": "from .genuinize import genuinize, genuinize_random\n",
        "b": "import wavespoof.genuinize as g\nout = g._match(x, t, 0, None)\n",
        "c": "def genuinize_perturbed(x):\n    return x\n",
        "d": "def genuinize_perturbed_count(match):\n    return match.genuinize(1)\n",
    }
    names = ("genuinize_perturbed", "genuinize_random", "_match")
    assert naming_places(sources, names) == [("a", 1), ("b", 2), ("c", 1)]


def test_genuinize_is_the_one_entry_point():
    # the per-mode steps and the kernel are genuinize's own: every other
    # module genuinizes through genuinize(src, params, references, ordinal)
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    places = naming_places(sources, ("genuinize_perturbed", "genuinize_random", "_match"))
    assert {module for module, _ in places} == {"genuinize.py"}


def test_genuinize_reaches_the_per_mode_steps_by_name(monkeypatch):
    # perfbench/spans.py wraps genuinize_perturbed and genuinize_random in
    # their module for its per-mode metrics, so genuinize must look them up
    # there at every call; wavespoof.genuinize is the function, so the module
    # is taken from sys.modules
    module = importlib.import_module("wavespoof.genuinize")
    assert wavespoof.genuinize is module.genuinize and callable(wavespoof.reference_pool)
    assert not any(hasattr(wavespoof, name) for name in
                   ("genuinize_basic", "genuinize_perturbed", "genuinize_random"))
    calls = []
    for name in ("genuinize_perturbed", "genuinize_random"):
        def counting(*args, _name=name, _step=getattr(module, name)):
            calls.append(_name)
            return _step(*args)

        monkeypatch.setattr(module, name, counting)
    src = Waveform(samples=np.array([1, 2, 3, 2]), sample_rate=8000)
    references = (cdf_from_pmf(estimate_pmf([src], num_levels=4)),)
    for mode in MODES:
        wavespoof.genuinize(src, GenuinizeParams(mode=mode), references, 1)
    assert calls == ["genuinize_perturbed", "genuinize_random"]


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


def argparse_range_rules(source: str):
    """Lines of source whose add_argument parses with a type other than int or
    float, or that name ArgumentTypeError: a range rule kept by the parser."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            lines += [node.lineno for kw in node.keywords if kw.arg == "type"
                      and not (isinstance(kw.value, ast.Name) and kw.value.id in ("int", "float"))]
        elif isinstance(node, (ast.Name, ast.Attribute)) and "ArgumentTypeError" in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            lines.append(node.lineno)
    return sorted(lines)


def test_argparse_range_rules_are_detected():
    source = ('p.add_argument("--a", type=int)\n'
              'p.add_argument("--b", type=_positive_int, default=1)\n'
              'raise argparse.ArgumentTypeError("must be positive")\n'
              'p.add_argument("--c", type=float)\n'
              'raise ArgumentTypeError("x")\n')
    assert argparse_range_rules(source) == [2, 3, 5]


def test_the_command_line_keeps_no_range_rule():
    # a flag value reaches its owner as a plain number, which checks it
    assert argparse_range_rules((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def imported_modules(source: str):
    """(line, top-level package) of every import in source, relative ones aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def test_imported_modules_are_detected():
    source = ("import numpy as np\nfrom .errors import x\nimport scipy.signal\n"
              "def f():\n    from scipy.fft import dct\n")
    assert imported_modules(source) == [(1, "numpy"), (3, "scipy"), (5, "scipy")]


def test_the_package_imports_no_scipy():
    # scipy is a test oracle only; the runtime needs numpy alone
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := [line for line, name in imported_modules(path.read_text(encoding="utf-8"))
                           if name == "scipy"])}
    assert found == {}


def private_imports(sources):
    """(module, line, name) of each _-prefixed name, dunders aside, that a
    module of sources (a mapping of module name to source text) imports from
    another module of the package: `from .x import _name`, or the same from
    wavespoof.x."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "wavespoof"):
                found += [(module, node.lineno, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return sorted(found)


def test_private_imports_are_detected():
    sources = {
        "a": "from .genuinize import _SEED_MASK, MODES\nfrom . import _helpers\n",
        "b": "from numpy import _core\nfrom .errors import ToolError\nfrom . import __version__\n",
        "c": ("def f():\n    from wavespoof.experiment import _MatrixRunner as runner\n"
              "    return runner\n"),
        "d": "from __future__ import annotations\nimport wavespoof._private\n",
    }
    assert private_imports(sources) == [
        ("a", 1, "_SEED_MASK"), ("a", 2, "_helpers"), ("c", 2, "_MatrixRunner"),
    ]


def test_modules_import_no_private_names():
    # a rule that another module uses has a public name at its owner
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert private_imports(sources) == []
