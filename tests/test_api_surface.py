"""Guard against code that nothing in the package calls.

Every function, method and class defined in ``src/memxbar`` (the package
``__init__`` aside), private and nested ones included and dunders left
out, must be referenced by name somewhere else in the package, or be
pinned here with the reason it stays: an acceptance criterion in
``tests/test_acceptance.py`` or a benchmark (``perfbench``) workload or
tracer that calls it by name.  A refactor that leaves a helper with no
caller fails here.  Code that only tests call is deleted, and its tests
move to the code that survives.  Likewise every name a module imports
must be referenced in that module, and only ``reports`` may reference
``json.dump``: every JSON artifact is written by ``reports.write_json``.
The constructors of the run settings raise nothing: their rules are
checked once, by ``RunConfig.check_experiment``, which runs
``check_device`` and ``check_crossbar`` on the device and crossbar
settings.
"""

import ast
from pathlib import Path

import memxbar

PINNED = {
    "discrete_weight_table": "acceptance criterion 05",
    "resistances_for_weight": "acceptance criteria 05 and 09",
    "weight_from_resistances": "acceptance criterion 09",
    "two_layer_forward": "acceptance criterion 09; perfbench circuit "
                         "workload and tracer",
    "weight_error_bounds": "acceptance criterion 09; perfbench tracer",
    "forward": "acceptance criteria 09 and 10; perfbench tracer",
    "mse": "acceptance criterion 10",
    "gradients": "acceptance criterion 10",
    "load_crossbar_csv": "perfbench circuit workload",
    "set_pulse": "perfbench tracer",
    "reset_pulse": "perfbench tracer",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(package=Path(memxbar.__file__).parent):
    """Every definition, dunders aside, as {name: [qualified names]}, and
    every name the package references, where a reference inside a
    definition to its own name, or to that of one enclosing it, is left
    out."""
    defined, used = {}, set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, []).append(
                        ".".join([module, *scope, name]))
                visit(child, module, scope + [name])
                continue
            ref = (child.id if isinstance(child, ast.Name) else
                   child.attr if isinstance(child, ast.Attribute) else None)
            if ref is not None and ref not in scope:
                used.add(ref)
            visit(child, module, scope)

    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text()), path.stem, [])
    return defined, used


def _unused(package=Path(memxbar.__file__).parent, pinned=PINNED):
    """Qualified names of the definitions neither referenced nor pinned."""
    defined, used = _scan(package)
    return sorted(qualified for name, where in defined.items()
                  if name not in used and name not in pinned
                  for qualified in where)


def _unused_imports(package=Path(memxbar.__file__).parent):
    """``module.name`` of every name a module (the package ``__init__``,
    which re-exports, aside) imports and never references; ``__future__``
    imports are not names."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(alias.asname or alias.name
                                for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    return unused


def _json_dumps(package=Path(memxbar.__file__).parent):
    """``module:line`` of every reference to ``json.dump`` in a module
    other than ``reports``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "reports.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Attribute) and node.attr == "dump"
                 and isinstance(node.value, ast.Name) and node.value.id == "json")
                    or (isinstance(node, ast.ImportFrom) and node.module == "json"
                        and any(a.name == "dump" for a in node.names))):
                found.append(f"{path.stem}:{node.lineno}")
    return found


PLAIN_DATA = ("DeviceParams", "CrossbarConfig", "RunConfig",
              "ResistanceRange")


def _raising_post_inits(package=Path(memxbar.__file__).parent,
                        classes=PLAIN_DATA):
    """``module:line`` of every ``raise`` in the ``__post_init__`` of a
    class named in ``classes``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                found += [f"{path.stem}:{raised.lineno}"
                          for method in node.body
                          if isinstance(method, ast.FunctionDef)
                          and method.name == "__post_init__"
                          for raised in ast.walk(method)
                          if isinstance(raised, ast.Raise)]
    return found


def test_the_settings_constructors_raise_nothing():
    found = _raising_post_inits()
    assert not found, f"a settings constructor checks a rule: {found}"


def test_a_raising_settings_constructor_is_found(tmp_path):
    """A raise in the ``__post_init__`` of a named class is reported, a
    nested one too; one in another method or another class is not."""
    (tmp_path / "model.py").write_text(
        "class DeviceParams:\n"
        "    def __post_init__(self):\n"
        "        if self.x:\n"
        "            raise ValueError\n"
        "    def check(self):\n"
        "        raise ValueError\n"
        "class Other:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError\n")
    assert _raising_post_inits(tmp_path) == ["model:4"]


def test_only_reports_writes_json():
    found = _json_dumps()
    assert not found, f"json.dump outside reports.write_json: {found}"


def test_a_json_dump_outside_reports_is_found(tmp_path):
    """A call, a bare reference and a from-import are reported; a
    ``json.dumps`` and anything in ``reports`` are not."""
    (tmp_path / "reports.py").write_text("import json\njson.dump(1, None)\n")
    (tmp_path / "model.py").write_text(
        "import json\n"
        "from json import dump, load\n"
        "def save(value, fh):\n"
        "    json.dump(value, fh)\n"
        "    return json.dumps(value), json.dump\n")
    assert _json_dumps(tmp_path) == ["model:2", "model:4", "model:5"]


def test_every_definition_is_used_or_pinned():
    unused = _unused()
    assert not unused, ("referenced nowhere in the package and not pinned: "
                        f"{unused}")


def test_every_import_is_used():
    unused = _unused_imports()
    assert not unused, f"imported but never referenced: {unused}"


def test_an_unused_import_is_found(tmp_path):
    """A plain, a dotted, an aliased and a from-import left without a use
    are reported; one used through an attribute, in an annotation or
    inside a function, and the package ``__init__``, are not."""
    (tmp_path / "__init__.py").write_text("import os\n")
    (tmp_path / "model.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import ShapeMismatchError, StuckDeviceError as Stuck\n"
        "from .stats import is_real\n"
        "def run(x: is_real) -> None:\n"
        "    import math\n"
        "    return json.dumps(math.pi)\n")
    assert _unused_imports(tmp_path) == ["model.ShapeMismatchError",
                                         "model.Stuck", "model.np",
                                         "model.os"]


def test_every_pin_names_a_definition():
    defined, _ = _scan()
    assert all(PINNED.values())
    stale = set(PINNED) - set(defined)
    assert not stale, f"pinned but no longer defined: {sorted(stale)}"


def test_a_helper_left_without_a_caller_is_found(tmp_path):
    """A method that only calls itself and a nested function that nothing
    calls are reported; a dunder, and what a statement references, are
    not."""
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "model.py").write_text(
        "class Batch:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def _forward(self):\n"
        "        return self._forward()\n"
        "def _outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return 2\n"
        "def run():\n"
        "    return Batch(), _outer()\n"
        "ENTRY = run\n")
    assert _unused(tmp_path, {}) == ["model.Batch._forward",
                                     "model._outer.inner"]
