"""Every public top-level function and class of `mcprover` has a caller in
the package or the benchmark. Code that only the tests need lives in
`tests/oracles.py`.

A name counts as used where an AST `Name` or `Attribute` node outside its own
definition refers to it; mentions in docstrings, comments and import lists do
not count. No module of the package or the tests imports a name it never
reads.

Terms, literals and calculus actions are slotted value classes whose fields
are set only by their constructors; no module of the package assigns to an
attribute named like one of their fields.
"""

import ast
import os

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


def _references(paths):
    """name -> [(path, line), ...] of every Name and Attribute node in `paths`."""
    out = {}
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((path, node.lineno))
    return out


def test_every_public_name_in_the_package_has_a_caller():
    references = _references(_python_files(PACKAGE) + _python_files(BENCHMARK))
    public, unused = set(), []
    for path in _python_files(PACKAGE):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public.add(node.name)
            own_lines = range(node.lineno, node.end_lineno + 1)
            called = any(where != path or line not in own_lines for where, line in references.get(node.name, ()))
            if not called and node.name not in ALLOWED:
                unused.append(f"{os.path.basename(path)}:{node.name}")
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


# The fields of terms.Var, FVar, App and Literal and of calculus.Reduction,
# Extension and LemmaStep.
VALUE_FIELDS = {"id", "name", "functor", "args", "positive", "predicate",
                "goal", "clause", "literal", "path_index", "lemma_index"}


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
