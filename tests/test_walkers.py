"""The explicit-stack term and formula walkers agree with the recursive code
they replaced.

Each reference below is a copy of the recursive walk that a function used
before it was built on `terms.subterms`, `terms.map_variables`,
`terms.term_text` or `formulas.unwind`. Clausification's two walks, `nnf`
and `clauses`, are checked against the four recursive passes they fused:
`rename_apart` after `nnf`, then `distribute` after `skolemize`. Generated
terms are at most 6 deep and 3 wide and mix the leaf kinds each function
accepts: numbered variables (`Var`), named variables (`FVar`) and constants.
"""

from hypothesis import given, settings, strategies as st

from mcprover.clausify import _canonical_formula, clauses, nnf
from mcprover.formulas import Binary, Not, Quant, free_vars, subst_var, unwind
from mcprover.terms import (
    App,
    Clause,
    FVar,
    Literal,
    Var,
    _atom_name,
    number_variables,
    rename_term,
    literal_to_str,
    term_to_str,
)
from mcprover.tptp import _Parser
from mcprover.trainstore import clause_hash, fnv64, literal_hash
from oracles import formula_to_str

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


def _formulas(leaves, ops=("&", "|"), negation=False, literals=_literals, max_leaves=4):
    """Formulas over `ops`, by default in negation normal form, as
    `_canonical_formula` and `clauses` expect them."""
    return st.recursive(
        literals(leaves),
        lambda inner: st.one_of(
            st.builds(Binary, st.sampled_from(ops), inner, inner),
            st.builds(Quant, st.sampled_from(["!", "?"]), st.sampled_from(_NAMES), inner),
            *([st.builds(Not, inner)] if negation else []),
        ),
        max_leaves=max_leaves,
    )


_ALL_OPS = ("&", "|", "=>", "<=", "<=>", "<~>")


def _printable_literals(leaves):
    """Literals that print as they parse: a negative literal other than `!=`
    is read back as a `Not`, so it is drawn as one."""
    def readable(lit):
        if lit.positive or (lit.predicate == "=" and lit.arity == 2):
            return lit
        return Not(lit.complement())

    return _literals(leaves).map(readable)


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


def ref_nnf(f, sign=True):
    if isinstance(f, Literal):
        return f if sign else f.complement()
    if isinstance(f, Not):
        return ref_nnf(f.body, not sign)
    if isinstance(f, Quant):
        kind = f.kind if sign else ("?" if f.kind == "!" else "!")
        return Quant(kind, f.var, ref_nnf(f.body, sign))
    op, left, right = f.op, f.left, f.right
    if op == "&":
        return Binary("&" if sign else "|", ref_nnf(left, sign), ref_nnf(right, sign))
    if op == "|":
        return Binary("|" if sign else "&", ref_nnf(left, sign), ref_nnf(right, sign))
    if op == "=>":
        return ref_nnf(Binary("|", Not(left), right), sign)
    if op == "<=":
        return ref_nnf(Binary("|", left, Not(right)), sign)
    if op == "<=>":
        return ref_nnf(Binary("&", Binary("|", Not(left), right), Binary("|", Not(right), left)), sign)
    return ref_nnf(Binary("&", Binary("|", left, right), Binary("|", Not(left), Not(right))), sign)


def ref_variable_names(f):
    if isinstance(f, Literal):
        return set(ref_free_vars(f))
    if isinstance(f, Binary):
        return ref_variable_names(f.left) | ref_variable_names(f.right)
    return {f.var} | ref_variable_names(f.body)


def ref_rename_apart(f):
    used = set()

    def walk(g, taken):
        if isinstance(g, Literal):
            return g, taken
        if isinstance(g, Binary):
            left, after = walk(g.left, taken)
            right, after_right = walk(g.right, taken if g.op == "&" else after)
            return Binary(g.op, left, right), after | after_right
        var, body = g.var, g.body
        if var in taken:
            if not used:
                used.update(ref_variable_names(f))
            k = 1
            while f"{g.var}_{k}" in used:
                k += 1
            var = f"{g.var}_{k}"
            used.add(var)
            body = ref_subst_var(body, g.var, FVar(var))
        body, after = walk(body, taken | {var} if g.kind == "!" else taken)
        return Quant(g.kind, var, body), after

    return walk(f, frozenset())[0]


def ref_skolem_name(subformula, registry):
    canonical = ref_canonical_formula(subformula)
    name = f"sk_{fnv64(canonical.encode('utf-8')):016x}"
    arity = len(ref_free_vars(subformula))
    while name in registry and registry[name] != canonical:
        name = f"{name}_{arity}"
    registry[name] = canonical
    return name


def ref_skolemize(f, registry):
    if isinstance(f, Literal):
        return f
    if isinstance(f, Binary):
        return Binary(f.op, ref_skolemize(f.left, registry), ref_skolemize(f.right, registry))
    if f.kind == "!":
        return Quant("!", f.var, ref_skolemize(f.body, registry))
    name = ref_skolem_name(f, registry)
    args = tuple(FVar(v) for v in ref_free_vars(f))
    return ref_skolemize(ref_subst_var(f.body, f.var, App(name, args)), registry)


def ref_distribute(f):
    if isinstance(f, Quant):
        return ref_distribute(f.body)
    if isinstance(f, Literal):
        return [[f]]
    left = ref_distribute(f.left)
    right = ref_distribute(f.right)
    if f.op == "&":
        return left + right
    return [a + b for a in left for b in right]


def ref_formula_to_str(f):
    def wrap(g):
        text = ref_formula_to_str(g)
        return f"({text})" if isinstance(g, Quant) else text

    if isinstance(f, Literal):
        return literal_to_str(f)
    if isinstance(f, Not):
        return "~" + wrap(f.body)
    if isinstance(f, Binary):
        if f.op in ("&", "|"):
            parts = [wrap(f.right)]
            node = f.left
            while isinstance(node, Binary) and node.op == f.op:
                parts.append(wrap(node.right))
                node = node.left
            parts.append(wrap(node))
            return "(" + f" {f.op} ".join(reversed(parts)) + ")"
        return f"({wrap(f.left)} {f.op} {wrap(f.right)})"
    names = [f.var]
    body = f.body
    while isinstance(body, Quant) and body.kind == f.kind:
        names.append(body.var)
        body = body.body
    return f"{f.kind} [{','.join(names)}] : {wrap(body)}"


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
@given(_formulas(_NAMED_LEAVES, _ALL_OPS, negation=True, max_leaves=8))
def test_nnf_renames_apart(f):
    assert nnf(f) == ref_rename_apart(ref_nnf(f))


@PROPERTY
@given(_formulas(_NAMED_LEAVES))
def test_clauses_skolemize_and_distribute(f):
    registry, ref_registry = {}, {}
    assert clauses(f, registry) == ref_distribute(ref_skolemize(f, ref_registry))
    assert registry == ref_registry


@PROPERTY
@given(_formulas(_ALL_LEAVES, _ALL_OPS, negation=True))
def test_formula_to_str(f):
    assert formula_to_str(f) == ref_formula_to_str(f)


@PROPERTY
@given(_formulas(_NAMED_LEAVES, _ALL_OPS, negation=True, literals=_printable_literals))
def test_formula_to_str_parses_back(f):
    assert unwind(_Parser(formula_to_str(f)).formula()) == f


@PROPERTY
@given(_terms(_ALL_LEAVES), st.lists(st.sampled_from(_NAMES), max_size=3).map(tuple))
def test_term_to_str(t, var_names):
    assert term_to_str(t, var_names) == ref_term_to_str(t, var_names)


@PROPERTY
@given(_terms(_NUMBERED_LEAVES), st.integers(0, 100))
def test_rename_term(t, offset):
    assert rename_term(t, offset) == ref_rename_term(t, offset)
