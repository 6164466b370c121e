"""Every public top-level function and class of `mcprover` has a caller in
the package or the benchmark. Code that only the tests need lives in
`tests/oracles.py`.

A name counts as used where an AST `Name` or `Attribute` node outside its own
definition refers to it; mentions in docstrings, comments and import lists do
not count.
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
