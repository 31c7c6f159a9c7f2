import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))

# standard-library names that Python 3.10, the floor of requires-python, lacks,
# by the version that added them: the modules src imports, and a few others
ADDED_AFTER_FLOOR = {
    (3, 11): {
        "builtins": {"BaseExceptionGroup", "ExceptionGroup"},
        "contextlib": {"chdir"},
        "enum": {"ReprEnum", "StrEnum", "member", "nonmember", "verify"},
        "math": {"cbrt", "exp2"},
        "operator": {"call"},
        "sys": {"exception", "get_int_max_str_digits", "set_int_max_str_digits"},
        "typing": {
            "LiteralString", "Never", "NotRequired", "Required", "Self",
            "TypeVarTuple", "Unpack", "assert_never", "assert_type",
            "clear_overloads", "dataclass_transform", "get_overloads",
            "reveal_type",
        },
    },
    (3, 12): {
        "csv": {"QUOTE_NOTNULL", "QUOTE_STRINGS"},
        "itertools": {"batched"},
        "math": {"sumprod"},
        "random": {"binomialvariate"},
        "sys": {"monitoring"},
        "typing": {"TypeAliasType", "override"},
    },
    (3, 13): {
        "copy": {"replace"},
        "math": {"fma"},
        "os": {"process_cpu_count"},
        "typing": {"NoDefault", "ReadOnly", "TypeIs", "get_protocol_members", "is_protocol"},
        "warnings": {"deprecated"},
    },
}
NEWER = {
    (module, name): version
    for version, modules in ADDED_AFTER_FLOOR.items()
    for module, names in modules.items()
    for name in names
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10: every source file must
    # parse under the 3.10 grammar, whichever interpreter runs the suite
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _with_scopes(node, scope):
    """Every node below ``node``, each with its innermost enclosing function
    (or the module)."""
    for child in ast.iter_child_nodes(node):
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield child, inner
        yield from _with_scopes(child, inner)


def unguarded_newer_names(tree):
    """Each use in ``tree`` of a NEWER name, as "module.name (3.x) at line n",
    unless an earlier hasattr(module, "<a NEWER name>") in the same function
    guards it.  An import or a builtin is never guarded."""
    uses, guards = [], []
    for node, scope in _with_scopes(tree, tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            module, name = node.args
            if isinstance(module, ast.Name) and (module.id, getattr(name, "value", None)) in NEWER:
                guards.append((scope, module.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses.append((scope, node.value.id, node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses += [(None, node.module, alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Name):
            uses.append((None, "builtins", node.id, node.lineno))
    return [
        f"{module}.{name} (3.{NEWER[module, name][1]}) at line {line}"
        for scope, module, name, line in uses
        if (module, name) in NEWER
        and not any(s is scope and m == module and l < line for s, m, l in guards)
    ]


def test_src_calls_nothing_newer_than_the_python_floor():
    # the 3.10 grammar check does not see library calls: a name added in
    # 3.11 or later must sit behind a hasattr check on its module
    found = {
        str(path.relative_to(ROOT)): unguarded_newer_names(
            ast.parse(path.read_text(encoding="utf-8"), str(path))
        )
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert {path: uses for path, uses in found.items() if uses} == {}


def test_floor_check_flags_unguarded_uses():
    guarded = (
        "import sys\n"
        "def f():\n"
        "    if not hasattr(sys, 'set_int_max_str_digits'):\n"
        "        return\n"
        "    sys.set_int_max_str_digits(sys.get_int_max_str_digits())\n"
    )
    assert unguarded_newer_names(ast.parse(guarded)) == []
    unguarded = (
        "import sys\n"
        "from itertools import batched\n"
        "def f():\n"
        "    sys.set_int_max_str_digits(0)\n"
        "    raise ExceptionGroup('', [])\n"
        "def g():\n"
        "    return hasattr(sys, 'set_int_max_str_digits')\n"
    )
    assert unguarded_newer_names(ast.parse(unguarded)) == [
        "itertools.batched (3.12) at line 2",
        "sys.set_int_max_str_digits (3.11) at line 4",
        "builtins.ExceptionGroup (3.11) at line 5",
    ]


def test_floor_names_are_newer_than_the_floor():
    # on each interpreter, a listed name exists exactly when its version has it
    wrong = [
        f"{module}.{name}"
        for (module, name), version in NEWER.items()
        if hasattr(importlib.import_module(module), name) != (sys.version_info >= version)
    ]
    assert wrong == []
