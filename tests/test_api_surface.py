"""Guard against public code that nothing in the package calls.

Every public module-level function or class in ``src/memxbar`` (the
package ``__init__`` aside) must be referenced by some other top-level
definition or statement of the package, or be pinned here with the
reason it stays: an acceptance criterion in ``tests/test_acceptance.py``
or a benchmark (``perfbench``) workload or tracer that calls it by name.
Code that only tests call is deleted, and its tests move to the code
that survives.
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


def _scan():
    """Public top-level definitions as {name: module}, and every name that
    the package's top-level nodes reference, a definition's references to
    its own name left out."""
    public, used = {}, set()
    for path in sorted(Path(memxbar.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    public[own] = path.stem
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return public, used


def test_every_public_definition_is_used_or_pinned():
    public, used = _scan()
    unused = {f"{module}.{name}" for name, module in public.items()
              if name not in used and name not in PINNED}
    assert not unused, ("referenced nowhere in the package and not pinned: "
                        f"{sorted(unused)}")


def test_every_pin_names_a_public_definition():
    public, _ = _scan()
    assert all(PINNED.values())
    stale = set(PINNED) - set(public)
    assert not stale, f"pinned but no longer defined: {sorted(stale)}"
