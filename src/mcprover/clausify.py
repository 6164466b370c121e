"""Clausification: negation normal form, Skolemization, naive CNF distribution.

Skolem symbols are named from a content hash of the existential subformula
(bound variables as binder-depth indices, free variables by first occurrence),
so the same subformula receives the same Skolem name in every problem and in
every run. Skolem arguments are the subformula's free variables in order of
first occurrence, which keeps arity independent of the enclosing context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .formulas import Atom, Binary, FVar, Formula, Not, Quant, free_vars, subst_var
from .terms import (
    App,
    Clause,
    EQ_PREDICATE,
    Literal,
    Matrix,
    NEG_TOP,
    TOP_PREDICATE,
    Var,
    build_extension_index,
    matrix_digest,
)
from .tptp import CnfDecl, Problem
from .trainstore import fnv64


class ClausifyError(Exception):
    pass


@dataclass
class ClausifyOptions:
    add_equality_axioms: bool = False
    max_clause_literals: int = 4096


def nnf(f: Formula, sign: bool = True) -> Formula:
    """Negation normal form with =>, <=, <=>, <~> eliminated."""
    if isinstance(f, Atom):
        return f if sign else Not(f)
    if isinstance(f, Not):
        return nnf(f.body, not sign)
    if isinstance(f, Quant):
        kind = f.kind if sign else ("?" if f.kind == "!" else "!")
        return Quant(kind, f.var, nnf(f.body, sign))
    op, left, right = f.op, f.left, f.right
    if op == "&":
        return Binary("&" if sign else "|", nnf(left, sign), nnf(right, sign))
    if op == "|":
        return Binary("|" if sign else "&", nnf(left, sign), nnf(right, sign))
    if op == "=>":
        return nnf(Binary("|", Not(left), right), sign)
    if op == "<=":
        return nnf(Binary("|", left, Not(right)), sign)
    if op == "<=>":
        expanded = Binary("&", Binary("|", Not(left), right), Binary("|", Not(right), left))
        return nnf(expanded, sign)
    if op == "<~>":
        expanded = Binary("&", Binary("|", left, right), Binary("|", Not(left), Not(right)))
        return nnf(expanded, sign)
    raise ClausifyError(f"unsupported connective {op!r}")


# --- Skolemization ----------------------------------------------------------

def _canonical_formula(f: Formula) -> str:
    """Canonical serialization: bound vars by binder depth, free by occurrence."""
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
        if isinstance(g, Atom):
            return f"{g.predicate}/{len(g.args)}(" + ",".join(term(a, bound) for a in g.args) + ")"
        if isinstance(g, Not):
            return "~" + walk(g.body, bound)
        if isinstance(g, Binary):
            return f"({walk(g.left, bound)}{g.op}{walk(g.right, bound)})"
        inner = dict(bound)
        inner[g.var] = len(bound)
        return f"{g.kind}:" + walk(g.body, inner)

    return walk(f, {})


def skolem_name(subformula: Formula, registry: dict) -> str:
    canonical = _canonical_formula(subformula)
    name = f"sk_{fnv64(canonical.encode('utf-8')):016x}"
    arity = len(free_vars(subformula))
    while name in registry and registry[name] != canonical:
        widened = f"{name}_{arity}"
        if widened == name:
            raise ClausifyError(f"irreconcilable Skolem name collision for {name}")
        name = widened
    registry[name] = canonical
    return name


def skolemize(f: Formula, registry: dict) -> Formula:
    """Remove existential quantifiers from an NNF formula, outermost first."""
    if isinstance(f, (Atom, Not)):
        return f
    if isinstance(f, Binary):
        return Binary(f.op, skolemize(f.left, registry), skolemize(f.right, registry))
    if f.kind == "!":
        return Quant("!", f.var, skolemize(f.body, registry))
    name = skolem_name(f, registry)
    args = tuple(FVar(v) for v in free_vars(f))
    replaced = subst_var(f.body, f.var, App(name, args))
    return skolemize(replaced, registry)


# --- CNF distribution -------------------------------------------------------

def distribute(f: Formula, limit: int) -> list:
    """NNF-without-∃ formula to a list of literal lists ((sign, Atom) pairs)."""
    if isinstance(f, Quant):
        if f.kind != "!":
            raise ClausifyError("existential quantifier survived Skolemization")
        return distribute(f.body, limit)
    if isinstance(f, Atom):
        return [[(True, f)]]
    if isinstance(f, Not):
        if not isinstance(f.body, Atom):
            raise ClausifyError("formula is not in negation normal form")
        return [[(False, f.body)]]
    left = distribute(f.left, limit)
    right = distribute(f.right, limit)
    if f.op == "&":
        return left + right
    if f.op != "|":
        raise ClausifyError(f"unexpected connective {f.op!r} after NNF")
    total = sum(len(a) + len(b) for a in left for b in right)
    if total > limit:
        raise ClausifyError(
            f"CNF distribution exceeds the literal cutoff ({total} > {limit}); "
            "simplify the input or raise max_clause_literals"
        )
    return [a + b for a in left for b in right]


def _literals_to_clause(literals, origin: int, label: str) -> Clause:
    names: dict = {}
    var_names: list = []

    def conv(t):
        if isinstance(t, FVar):
            if t.name not in names:
                names[t.name] = len(var_names)
                var_names.append(t.name)
            return Var(names[t.name])
        if isinstance(t, App) and t.args:
            return App(t.functor, tuple(conv(a) for a in t.args))
        return t

    lits = tuple(
        Literal(sign, atom.predicate, tuple(conv(a) for a in atom.args))
        for sign, atom in literals
    )
    return Clause(lits, origin=origin, var_count=len(var_names), var_names=tuple(var_names), label=label)


# --- equality axioms --------------------------------------------------------

def equality_axioms(clauses, next_origin: int) -> list:
    functions: dict = {}
    predicates: dict = {}

    def scan_term(t):
        if isinstance(t, App):
            if t.args:
                functions.setdefault((t.functor, len(t.args)), None)
            for a in t.args:
                scan_term(a)

    for clause in clauses:
        for lit in clause.literals:
            if lit.predicate not in (EQ_PREDICATE, TOP_PREDICATE) and lit.args:
                predicates.setdefault((lit.predicate, lit.arity), None)
            for a in lit.args:
                scan_term(a)

    def eq(a, b, positive=True):
        return Literal(positive, EQ_PREDICATE, (a, b))

    out = []

    def add(lits, count, names, label):
        nonlocal next_origin
        out.append(Clause(tuple(lits), origin=next_origin, var_count=count, var_names=tuple(names), label=label))
        next_origin += 1

    x, y, z = Var(0), Var(1), Var(2)
    add([eq(x, x)], 1, ["X"], "eq_reflexive")
    add([eq(x, y, False), eq(y, x)], 2, ["X", "Y"], "eq_symmetric")
    add([eq(x, y, False), eq(y, z, False), eq(x, z)], 3, ["X", "Y", "Z"], "eq_transitive")
    for (functor, arity) in sorted(functions):
        xs = [Var(i) for i in range(arity)]
        ys = [Var(arity + i) for i in range(arity)]
        lits = [eq(a, b, False) for a, b in zip(xs, ys)]
        lits.append(eq(App(functor, tuple(xs)), App(functor, tuple(ys))))
        names = [f"X{i+1}" for i in range(arity)] + [f"Y{i+1}" for i in range(arity)]
        add(lits, 2 * arity, names, f"eq_congruence_{functor}")
    for (predicate, arity) in sorted(predicates):
        xs = [Var(i) for i in range(arity)]
        ys = [Var(arity + i) for i in range(arity)]
        lits = [eq(a, b, False) for a, b in zip(xs, ys)]
        lits.append(Literal(False, predicate, tuple(xs)))
        lits.append(Literal(True, predicate, tuple(ys)))
        names = [f"X{i+1}" for i in range(arity)] + [f"Y{i+1}" for i in range(arity)]
        add(lits, 2 * arity, names, f"eq_substitution_{predicate}")
    return out


# --- pipeline ---------------------------------------------------------------

def clausify(problem: Problem, options: ClausifyOptions | None = None) -> Matrix:
    """Turn a parsed problem into an (unprepared) clause matrix."""
    options = options or ClausifyOptions()
    registry: dict = {}
    clauses: list = []
    for i, decl in enumerate(problem.declarations):
        if isinstance(decl, CnfDecl):
            clauses.append(decl.clause)
            continue
        formula = Not(decl.formula) if decl.role == "conjecture" else decl.formula
        formula = skolemize(nnf(formula), registry)
        for k, literals in enumerate(distribute(formula, options.max_clause_literals)):
            label = decl.name if k == 0 else f"{decl.name}_{k}"
            clauses.append(_literals_to_clause(literals, origin=i, label=label))
    if options.add_equality_axioms and any(
        lit.predicate == EQ_PREDICATE for c in clauses for lit in c.literals
    ):
        clauses.extend(equality_axioms(clauses, next_origin=len(problem.declarations)))
    return Matrix(clauses=tuple(clauses))


def prepare_matrix(matrix: Matrix) -> Matrix:
    """Add the start-emulation literal to positive clauses and build the index."""
    if matrix.prepared:
        return matrix
    has_start = False
    prepared = []
    for clause in matrix.clauses:
        if clause.literals and clause.is_positive():
            has_start = True
            prepared.append(replace(clause, literals=(NEG_TOP,) + clause.literals))
        else:
            prepared.append(clause)
    prepared_tuple = tuple(prepared)
    return Matrix(
        clauses=prepared_tuple,
        index=build_extension_index(prepared_tuple),
        digest=matrix_digest(prepared_tuple),
        has_positive_start=has_start,
        prepared=True,
    )


def load_matrix(path: str, include_dirs: tuple = (), options: ClausifyOptions | None = None) -> Matrix:
    from .tptp import load_problem

    return prepare_matrix(clausify(load_problem(path, include_dirs), options))
