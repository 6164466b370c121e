"""Every public top-level function and class of `mcprover`, and every public
method and property of such a class, has a caller in the package or the
benchmark. Code that only the tests need lives in `tests/oracles.py`.

A name counts as used where an AST `Name` or `Attribute` node outside its own
definition refers to it, a method or property name only where an `Attribute`
node does (a local variable may share its name); mentions in docstrings,
comments and import lists do not count. No module of the package or the
tests imports a name it never reads.

Terms, literals and calculus actions are slotted value classes whose fields
are set only by their constructors; no module of the package assigns to an
attribute named like one of their fields.
"""

import ast
import dataclasses
import os

from mcprover.calculus import Extension, LemmaStep, Reduction
from mcprover.terms import App, FVar, Literal, Var

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mcprover")
BENCHMARK = os.path.join(ROOT, "perfbench")

# Public names kept although only the tests call them.
ALLOWED = {
    "merge_stores",  # criterion 10 checks its merge laws; the README lists merge as a store operation
    "uct_value",  # criterion 3 checks it, and `uct_key` is compared with it bit for bit
}


def _python_files(directory):
    return sorted(os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py"))


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _references(paths, kinds=(ast.Name, ast.Attribute)):
    """name -> [(path, line), ...] of every node of `kinds` in `paths`."""
    out = {}
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, kinds):
                name = node.attr if isinstance(node, ast.Attribute) else node.id
                out.setdefault(name, []).append((path, node.lineno))
    return out


def _read_elsewhere(references, name, path, node):
    """Whether one of `references` to `name` lies outside `node` in `path`."""
    own_lines = range(node.lineno, node.end_lineno + 1)
    return any(where != path or line not in own_lines for where, line in references.get(name, ()))


def test_every_public_name_in_the_package_has_a_caller():
    paths = _python_files(PACKAGE) + _python_files(BENCHMARK)
    references = _references(paths)
    attributes = _references(paths, (ast.Attribute,))
    public, unused = set(), []
    for path in _python_files(PACKAGE):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public.add(node.name)
            if not _read_elsewhere(references, node.name, path, node) and node.name not in ALLOWED:
                unused.append(f"{os.path.basename(path)}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{os.path.basename(path)}:{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                    and not _read_elsewhere(attributes, method.name, path, method)
                ]
    assert unused == []
    assert ALLOWED <= public


def _unused_imports(tree):
    """(name, line) of every name an import binds that no Name node of its
    scope reads. The scope is the innermost function around the import, else
    the module, and reads in nested functions count for it."""
    scope_of = {}

    def assign(scope, node):
        for child in ast.iter_child_nodes(node):
            scope_of[child] = scope
            assign(child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope, child)

    assign(tree, tree)
    unused = []
    for node, scope in scope_of.items():
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = {name.id for name in ast.walk(scope) if isinstance(name, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append((bound, node.lineno))
    return unused


def test_no_unused_imports():
    tests = os.path.dirname(os.path.abspath(__file__))
    unused = [
        f"{os.path.relpath(path, ROOT)}:{line}: {name}"
        for path in _python_files(PACKAGE) + _python_files(tests)
        for name, line in _unused_imports(_parse(path))
    ]
    assert unused == []


VALUE_FIELDS = {field.name for cls in (Var, FVar, App, Literal, Reduction, Extension, LemmaStep)
                for field in dataclasses.fields(cls)}


def _assigned_attributes(tree):
    """(attribute, line) of every attribute an assignment or augmented
    assignment targets, inside tuple and list targets too."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, ast.Attribute):
                out.append((target.attr, target.lineno))
            elif isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
    return out


def test_no_module_assigns_to_a_value_field():
    assigned = [
        f"{os.path.basename(path)}:{line}: .{attr}"
        for path in _python_files(PACKAGE)
        for attr, line in _assigned_attributes(_parse(path))
        if attr in VALUE_FIELDS
    ]
    assert assigned == []


def test_value_field_scan_sees_assignments_and_skips_subscripts():
    tree = ast.parse("a.id = 1\nb.args += ()\nc.x, (d.goal, *e.name) = f\nnew[g.id] = h\ni.j: int = 0\n")
    assert sorted(_assigned_attributes(tree)) == [("args", 2), ("goal", 3), ("id", 1), ("j", 5), ("name", 3), ("x", 3)]
