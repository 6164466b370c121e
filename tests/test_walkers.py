"""The explicit-stack term walkers agree with the recursive code they replaced.

Each reference below is a copy of the recursive walk that a function used
before it was built on `terms.subterms`, `terms.map_variables` or
`terms.term_text`. Generated terms are at most 6 deep and 3 wide and mix
the leaf kinds each function accepts: numbered variables (`Var`), named
variables (`FVar`) and constants.
"""

from hypothesis import given, settings, strategies as st

from mcprover.clausify import _canonical_formula
from mcprover.formulas import Binary, Quant, free_vars, subst_var
from mcprover.terms import (
    App,
    Clause,
    FVar,
    Literal,
    Var,
    _atom_name,
    number_variables,
    rename_term,
    term_to_str,
)
from mcprover.trainstore import clause_hash, fnv64, literal_hash

_NAMES = ["X", "Y", "Z"]
_VAR = st.builds(Var, st.integers(0, 3))
_FVAR = st.builds(FVar, st.sampled_from(_NAMES))
_CONSTANT = st.builds(App, st.sampled_from(["a", "b", "Odd c"]))
_FUNCTORS = st.sampled_from(["f", "g", "$h", "k l"])


def _terms(leaves, depth=6):
    if depth == 0:
        return leaves
    args = st.lists(_terms(leaves, depth - 1), min_size=1, max_size=3).map(tuple)
    return st.one_of(leaves, st.builds(App, _FUNCTORS, args))


def _literals(leaves):
    args = st.lists(_terms(leaves), max_size=3).map(tuple)
    return st.builds(Literal, st.booleans(), st.sampled_from(["p", "q", "="]), args)


def _formulas(leaves):
    """Formulas in negation normal form, as `_canonical_formula` expects them."""
    return st.recursive(
        _literals(leaves),
        lambda inner: st.one_of(
            st.builds(Binary, st.sampled_from(["&", "|"]), inner, inner),
            st.builds(Quant, st.sampled_from(["!", "?"]), st.sampled_from(_NAMES), inner),
        ),
        max_leaves=4,
    )


_ALL_LEAVES = st.one_of(_VAR, _FVAR, _CONSTANT)
_NUMBERED_LEAVES = st.one_of(_VAR, _CONSTANT)
_NAMED_LEAVES = st.one_of(_FVAR, _CONSTANT)
PROPERTY = settings(max_examples=200, deadline=None)


# --- the recursive references -------------------------------------------------

def ref_number_variables(literals, label):
    names: dict = {}

    def number(t):
        if isinstance(t, FVar):
            if t.name not in names:
                names[t.name] = Var(len(names))
            return names[t.name]
        if not isinstance(t, App) or not t.args:
            return t
        return App(t.functor, tuple(number(a) for a in t.args))

    lits = tuple(Literal(lit.positive, lit.predicate, tuple(number(a) for a in lit.args)) for lit in literals)
    return Clause(lits, var_count=len(names), var_names=tuple(names), label=label)


def ref_term_bytes(t, numbering, out):
    if isinstance(t, Var):
        if t.id not in numbering:
            numbering[t.id] = len(numbering)
        out += b"V%d\x00" % numbering[t.id]
    else:
        out += b"A" + t.functor.encode("utf-8") + b"\x00%d\x00" % len(t.args)
        for a in t.args:
            ref_term_bytes(a, numbering, out)


def ref_literal_bytes(lit, numbering, out):
    out += b"+" if lit.positive else b"-"
    out += lit.predicate.encode("utf-8") + b"\x00%d\x00" % len(lit.args)
    for a in lit.args:
        ref_term_bytes(a, numbering, out)


def ref_free_vars(f):
    out, seen = [], set()

    def walk_term(t, bound):
        if isinstance(t, FVar):
            if t.name not in bound and t.name not in seen:
                seen.add(t.name)
                out.append(t.name)
        elif isinstance(t, App):
            for a in t.args:
                walk_term(a, bound)

    def walk(g, bound):
        if isinstance(g, Literal):
            for a in g.args:
                walk_term(a, bound)
        elif isinstance(g, Binary):
            walk(g.left, bound)
            walk(g.right, bound)
        else:
            walk(g.body, bound | {g.var})

    walk(f, set())
    return out


def ref_subst_var(f, name, replacement):
    def in_term(t):
        if isinstance(t, FVar):
            return replacement if t.name == name else t
        if isinstance(t, App) and t.args:
            return App(t.functor, tuple(in_term(a) for a in t.args))
        return t

    if isinstance(f, Literal):
        return Literal(f.positive, f.predicate, tuple(in_term(a) for a in f.args))
    if isinstance(f, Binary):
        return Binary(f.op, ref_subst_var(f.left, name, replacement), ref_subst_var(f.right, name, replacement))
    if f.var == name:
        return f
    return Quant(f.kind, f.var, ref_subst_var(f.body, name, replacement))


def ref_canonical_formula(f):
    free_order: dict = {}

    def term(t, bound):
        if isinstance(t, FVar):
            if t.name in bound:
                return f"B{bound[t.name]}"
            if t.name not in free_order:
                free_order[t.name] = len(free_order)
            return f"F{free_order[t.name]}"
        if not t.args:
            return f"{t.functor}/0"
        return f"{t.functor}/{len(t.args)}(" + ",".join(term(a, bound) for a in t.args) + ")"

    def walk(g, bound):
        if isinstance(g, Literal):
            sign = "" if g.positive else "~"
            return f"{sign}{g.predicate}/{len(g.args)}(" + ",".join(term(a, bound) for a in g.args) + ")"
        if isinstance(g, Binary):
            return f"({walk(g.left, bound)}{g.op}{walk(g.right, bound)})"
        inner = dict(bound)
        inner[g.var] = len(bound)
        return f"{g.kind}:" + walk(g.body, inner)

    return walk(f, {})


def ref_term_to_str(t, var_names):
    if isinstance(t, Var):
        return var_names[t.id] if t.id < len(var_names) else f"_{t.id}"
    if isinstance(t, FVar):
        return t.name
    if not t.args:
        return _atom_name(t.functor)
    return _atom_name(t.functor) + "(" + ",".join(ref_term_to_str(a, var_names) for a in t.args) + ")"


def ref_rename_term(t, offset):
    if isinstance(t, Var):
        return Var(t.id + offset)
    return App(t.functor, tuple(ref_rename_term(a, offset) for a in t.args))


# --- properties ----------------------------------------------------------------

@PROPERTY
@given(st.lists(_literals(_ALL_LEAVES), max_size=3))
def test_number_variables_numbers_by_first_occurrence(literals):
    assert number_variables(literals, "c") == ref_number_variables(literals, "c")


@PROPERTY
@given(st.lists(_literals(_NUMBERED_LEAVES), min_size=1, max_size=3))
def test_literal_and_clause_hashes(literals):
    for lit in literals:
        out = bytearray()
        ref_literal_bytes(lit, {}, out)
        assert literal_hash(lit) == fnv64(bytes(out))
    out, numbering = bytearray(), {}
    for i, lit in enumerate(literals):
        if i:
            out += b"\x01"
        ref_literal_bytes(lit, numbering, out)
    assert clause_hash(Clause(tuple(literals))) == fnv64(bytes(out))


@PROPERTY
@given(_formulas(_ALL_LEAVES))
def test_free_vars(f):
    assert free_vars(f) == ref_free_vars(f)


@PROPERTY
@given(_formulas(_ALL_LEAVES), st.sampled_from(_NAMES), _terms(_NAMED_LEAVES, depth=2))
def test_subst_var(f, name, replacement):
    assert subst_var(f, name, replacement) == ref_subst_var(f, name, replacement)


@PROPERTY
@given(_formulas(_NAMED_LEAVES))
def test_canonical_formula(f):
    assert _canonical_formula(f) == ref_canonical_formula(f)


@PROPERTY
@given(_terms(_ALL_LEAVES), st.lists(st.sampled_from(_NAMES), max_size=3).map(tuple))
def test_term_to_str(t, var_names):
    assert term_to_str(t, var_names) == ref_term_to_str(t, var_names)


@PROPERTY
@given(_terms(_NUMBERED_LEAVES), st.integers(0, 100))
def test_rename_term(t, offset):
    assert rename_term(t, offset) == ref_rename_term(t, offset)
