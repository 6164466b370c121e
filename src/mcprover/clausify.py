"""Clausification: negation normal form, Skolemization, naive CNF distribution.

Skolem symbols are named from a content hash of the existential subformula
(bound variables as binder-depth indices, free variables by first occurrence),
so the same subformula receives the same Skolem name in every problem and in
every run. Skolem arguments are the subformula's free variables in order of
first occurrence, which keeps arity independent of the enclosing context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .formulas import Binary, Formula, Not, Quant, free_vars, subst_var
from .terms import (
    App,
    Clause,
    EQ_PREDICATE,
    FVar,
    Literal,
    Matrix,
    NEG_TOP,
    TOP_PREDICATE,
    Var,
    build_extension_index,
    matrix_digest,
    number_variables,
    subterms,
    term_text,
)
from .tptp import CnfDecl, Problem
from .trainstore import fnv64


# CNF distribution refuses a formula whose clauses would hold more literals
MAX_CLAUSE_LITERALS = 4096


class ClausifyError(Exception):
    pass


@dataclass
class ClausifyOptions:
    add_equality_axioms: bool = False


def nnf(f: Formula, sign: bool = True) -> Formula:
    """Negation normal form with =>, <=, <=>, <~> eliminated; no `Not` is left."""
    if isinstance(f, Literal):
        return f if sign else f.complement()
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
        def variable(v):
            if v.name in bound:
                return f"B{bound[v.name]}"
            return f"F{free_order.setdefault(v.name, len(free_order))}"

        return term_text(t, variable, lambda functor, arity: f"{functor}/{arity}")

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


def rename_apart(f: Formula) -> Formula:
    """Rename each binder that reuses the name of a universal it can share a clause with.

    Those universals are the enclosing `!`s and the `!`s on the other side of
    an enclosing `|`; the two sides of an `&` go to different clauses. The
    binder gets the first `name_k` used nowhere in `f`. Skolemization needs
    this first, as a Skolem term carries the enclosing universals into its scope.
    """
    used: set = set()

    def walk(g, taken):  # -> (renamed g, taken plus the universals g binds)
        if isinstance(g, Literal):
            return g, taken
        if isinstance(g, Binary):
            left, after = walk(g.left, taken)
            right, after_right = walk(g.right, taken if g.op == "&" else after)
            return Binary(g.op, left, right), after | after_right
        var, body = g.var, g.body
        if var in taken:
            if not used:
                used.update(_variable_names(f))
            k = 1
            while f"{g.var}_{k}" in used:
                k += 1
            var = f"{g.var}_{k}"
            used.add(var)
            body = subst_var(body, g.var, FVar(var))
        body, after = walk(body, taken | {var} if g.kind == "!" else taken)
        return Quant(g.kind, var, body), after

    return walk(f, frozenset())[0]


def _variable_names(f: Formula) -> set:
    """Every variable name bound or occurring in `f`."""
    names, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Literal):
            names.update(free_vars(g))
        elif isinstance(g, Binary):
            stack += (g.left, g.right)
        else:
            names.add(g.var)
            stack.append(g.body)
    return names


def skolemize(f: Formula, registry: dict) -> Formula:
    """Remove existential quantifiers from a renamed-apart NNF formula, outermost first."""
    if isinstance(f, Literal):
        return f
    if isinstance(f, Binary):
        return Binary(f.op, skolemize(f.left, registry), skolemize(f.right, registry))
    if f.kind == "!":
        return Quant("!", f.var, skolemize(f.body, registry))
    name = skolem_name(f, registry)
    args = tuple(FVar(v) for v in free_vars(f))
    return skolemize(subst_var(f.body, f.var, App(name, args)), registry)


# --- CNF distribution -------------------------------------------------------

def distribute(f: Formula) -> list:
    """NNF-without-∃ formula to a list of clauses, each a list of `Literal`s."""
    if isinstance(f, Quant):
        if f.kind != "!":
            raise ClausifyError("existential quantifier survived Skolemization")
        return distribute(f.body)
    if isinstance(f, Literal):
        return [[f]]
    if isinstance(f, Not):
        raise ClausifyError("formula is not in negation normal form")
    left = distribute(f.left)
    right = distribute(f.right)
    if f.op == "&":
        return left + right
    if f.op != "|":
        raise ClausifyError(f"unexpected connective {f.op!r} after NNF")
    total = sum(len(a) + len(b) for a in left for b in right)
    if total > MAX_CLAUSE_LITERALS:
        raise ClausifyError(
            f"CNF distribution exceeds the literal cutoff ({total} > {MAX_CLAUSE_LITERALS}); "
            "simplify the input"
        )
    return [a + b for a in left for b in right]


# --- equality axioms --------------------------------------------------------

def equality_axioms(clauses) -> list:
    functions: dict = {}
    predicates: dict = {}

    for clause in clauses:
        for lit in clause.literals:
            if lit.predicate not in (EQ_PREDICATE, TOP_PREDICATE) and lit.args:
                predicates.setdefault((lit.predicate, lit.arity), None)
            for a in lit.args:
                for t in subterms(a):
                    if type(t) is App and t.args:
                        functions.setdefault((t.functor, len(t.args)), None)

    def eq(a, b, positive=True):
        return Literal(positive, EQ_PREDICATE, (a, b))

    out = []

    def add(lits, count, names, label):
        out.append(Clause(tuple(lits), var_count=count, var_names=tuple(names), label=label))

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
    for decl in problem.declarations:
        if isinstance(decl, CnfDecl):
            clauses.append(decl.clause)
            continue
        formula = Not(decl.formula) if decl.role == "conjecture" else decl.formula
        formula = skolemize(rename_apart(nnf(formula)), registry)
        for k, literals in enumerate(distribute(formula)):
            label = decl.name if k == 0 else f"{decl.name}_{k}"
            clauses.append(number_variables(literals, label))
    if options.add_equality_axioms and any(
        lit.predicate == EQ_PREDICATE for c in clauses for lit in c.literals
    ):
        clauses.extend(equality_axioms(clauses))
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
