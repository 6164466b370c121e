"""Clausification in two formula walks: `nnf` (negation normal form with
binders renamed apart), then `clauses` (Skolemization and naive CNF
distribution).

Skolem symbols are named from a content hash of the existential subformula
(bound variables numbered by the distinct names in scope at their binder,
free variables by first occurrence), so the same subformula receives the
same Skolem name in every problem and in every run. Skolem arguments are the
subformula's free variables in order of first occurrence, which keeps arity
independent of the enclosing context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .formulas import Binary, Formula, Not, Quant, free_vars, subst_var, unwind
from .terms import (
    App,
    Clause,
    EQ_PREDICATE,
    FVar,
    Literal,
    Matrix,
    NEG_TOP,
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


def nnf(f: Formula) -> Formula:
    """Negation normal form with =>, <=, <=>, <~> eliminated and binders renamed apart.

    No `Not` is left. A binder is renamed when it reuses the name of a
    universal it can share a clause with: an enclosing `!`, or a `!` on the
    other side of an enclosing `|` (the two sides of an `&` go to different
    clauses). It gets the first `name_k` used nowhere in `f`. Skolemization
    needs this, as a Skolem term carries the enclosing universals into its scope.
    """
    used: set = set()

    def walk(g, sign, taken):  # -> (g in NNF, taken plus the universals it binds)
        if isinstance(g, Literal):
            return (g if sign else g.complement()), taken
        if isinstance(g, Not):
            return (yield walk(g.body, not sign, taken))
        if isinstance(g, Quant):
            kind = g.kind if sign else ("?" if g.kind == "!" else "!")
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
            body, after = yield walk(body, sign, taken | {var} if kind == "!" else taken)
            return Quant(kind, var, body), after
        op, left, right = g.op, g.left, g.right
        if op in ("&", "|"):
            op = op if sign else ("|" if op == "&" else "&")
            left, after = yield walk(left, sign, taken)
            right, after_right = yield walk(right, sign, taken if op == "&" else after)
            return Binary(op, left, right), after | after_right
        if op == "=>":
            expanded = Binary("|", Not(left), right)
        elif op == "<=":
            expanded = Binary("|", left, Not(right))
        elif op == "<=>":
            expanded = Binary("&", Binary("|", Not(left), right), Binary("|", Not(right), left))
        elif op == "<~>":
            expanded = Binary("&", Binary("|", left, right), Binary("|", Not(left), Not(right)))
        else:
            raise ClausifyError(f"unsupported connective {op!r}")
        return (yield walk(expanded, sign, taken))

    return unwind(walk(f, True, frozenset()))[0]


def _variable_names(f: Formula) -> set:
    """Every variable name bound or occurring in `f`."""
    names, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Literal):
            names.update(free_vars(g))
        elif isinstance(g, Binary):
            stack += (g.left, g.right)
        elif isinstance(g, Not):
            stack.append(g.body)
        else:
            names.add(g.var)
            stack.append(g.body)
    return names


# --- Skolemization and CNF distribution -------------------------------------

def _canonical_formula(f: Formula) -> str:
    """Canonical serialization: bound vars by the distinct names in scope at
    their binder, free vars by first occurrence."""
    free_order: dict = {}
    bound: dict = {}  # name -> number of its innermost binder in scope

    def variable(v):
        if v.name in bound:
            return f"B{bound[v.name]}"
        return f"F{free_order.setdefault(v.name, len(free_order))}"

    def walk(g):
        if isinstance(g, Literal):
            sign = "" if g.positive else "~"
            args = (term_text(a, variable, lambda functor, arity: f"{functor}/{arity}") for a in g.args)
            return f"{sign}{g.predicate}/{len(g.args)}(" + ",".join(args) + ")"
        if isinstance(g, Binary):
            return f"({(yield walk(g.left))}{g.op}{(yield walk(g.right))})"
        outer = bound.get(g.var)
        bound[g.var] = len(bound)  # counted before `g.var` is added, if it is new
        text = f"{g.kind}:" + (yield walk(g.body))
        if outer is None:
            del bound[g.var]
        else:
            bound[g.var] = outer
        return text

    return unwind(walk(f))


def skolem_name(subformula: Formula, arity: int, registry: dict) -> str:
    canonical = _canonical_formula(subformula)
    name = f"sk_{fnv64(canonical.encode('utf-8')):016x}"
    while name in registry and registry[name] != canonical:
        name = f"{name}_{arity}"
    registry[name] = canonical
    return name


def clauses(f: Formula, registry: dict) -> list:
    """The clauses of an `nnf` formula, each a list of `Literal`s.

    Existentials are Skolemized outermost first, naming Skolem symbols in
    `registry`; a disjunction is distributed over the clauses of its sides.
    """

    def walk(g):
        if isinstance(g, Literal):
            return [[g]]
        if isinstance(g, Quant):
            if g.kind == "?":
                args = tuple(FVar(v) for v in free_vars(g))
                skolem = App(skolem_name(g, len(args), registry), args)
                return (yield walk(subst_var(g.body, g.var, skolem)))
            return (yield walk(g.body))
        left = yield walk(g.left)
        right = yield walk(g.right)
        if g.op == "&":
            return left + right
        total = sum(len(a) + len(b) for a in left for b in right)
        if total > MAX_CLAUSE_LITERALS:
            raise ClausifyError(
                f"CNF distribution exceeds the literal cutoff ({total} > {MAX_CLAUSE_LITERALS}); "
                "simplify the input"
            )
        return [a + b for a in left for b in right]

    return unwind(walk(f))


# --- equality axioms --------------------------------------------------------

def equality_axioms(clauses) -> list:
    functions: dict = {}
    predicates: dict = {}

    for clause in clauses:
        for lit in clause.literals:
            if lit.predicate != EQ_PREDICATE and lit.args:
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
    out: list = []
    for decl in problem.declarations:
        if isinstance(decl, CnfDecl):
            out.append(decl.clause)
            continue
        formula = Not(decl.formula) if decl.role == "conjecture" else decl.formula
        for k, literals in enumerate(clauses(nnf(formula), registry)):
            label = decl.name if k == 0 else f"{decl.name}_{k}"
            out.append(number_variables(literals, label))
    if options.add_equality_axioms and any(
        lit.predicate == EQ_PREDICATE for c in out for lit in c.literals
    ):
        out.extend(equality_axioms(out))
    return Matrix(clauses=tuple(out))


def prepare_matrix(matrix: Matrix) -> Matrix:
    """Add the start-emulation literal to positive clauses and build the index.
    Preparing a prepared matrix gives an equal one, as its start clauses are no
    longer all positive."""
    prepared = []
    for clause in matrix.clauses:
        if clause.literals and clause.is_positive():
            prepared.append(replace(clause, literals=(NEG_TOP,) + clause.literals))
        else:
            prepared.append(clause)
    prepared_tuple = tuple(prepared)
    return Matrix(
        clauses=prepared_tuple,
        index=build_extension_index(prepared_tuple),
        digest=matrix_digest(prepared_tuple),
    )


def load_matrix(path: str, include_dirs: tuple = (), options: ClausifyOptions | None = None) -> Matrix:
    from .tptp import load_problem

    return prepare_matrix(clausify(load_problem(path, include_dirs), options))
