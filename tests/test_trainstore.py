import random

import pytest
from hypothesis import given, strategies as st

from conftest import matrix_of
from mcprover import trainstore
from mcprover.terms import App, Clause, Literal, START_CLAUSE, Var
from mcprover.trainstore import (
    COUNT_CEILING,
    KeyTable,
    LiteralKey,
    Stats,
    Store,
    StoreFormatError,
    merge_stores,
)
from oracles import key_of


def clause_of(*lits):
    var_count = 1 + max(
        (t.id for lit in lits for t in _vars(lit)), default=-1
    )
    return Clause(tuple(lits), var_count=var_count)


def _vars(lit):
    stack = list(lit.args)
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t
        else:
            stack.extend(t.args)


P_X = Literal(True, "p", (Var(0),))
NQ_X = Literal(False, "q", (Var(0),))


def test_key_invariant_under_renaming():
    clause_a = clause_of(P_X, NQ_X)
    clause_b = clause_of(Literal(True, "p", (Var(3),)), Literal(False, "q", (Var(3),)))
    assert key_of(clause_a.literals[0], clause_a) == key_of(clause_b.literals[0], clause_b)


def test_key_depends_on_clause():
    clause_a = clause_of(P_X, NQ_X)
    clause_b = clause_of(P_X, Literal(False, "r", (Var(0),)))
    assert key_of(P_X, clause_a) != key_of(P_X, clause_b)


def test_key_sensitive_to_polarity_predicate_structure():
    base = clause_of(P_X)
    assert key_of(P_X, base) != key_of(P_X.complement(), base)
    deeper = Literal(True, "p", (App("f", (Var(0),)),))
    assert key_of(P_X, base) != key_of(deeper, clause_of(deeper))


def test_same_axiom_same_key_across_problems():
    m1 = matrix_of("cnf(a, axiom, p(X) | ~q(X)).\ncnf(b, axiom, q(c)).\n")
    m2 = matrix_of("cnf(zz, axiom, p(Y) | ~q(Y)).\ncnf(w, axiom, ~p(d)).\n")
    k1 = KeyTable(m1)
    k2 = KeyTable(m2)
    ci1 = [i for i, c in enumerate(m1.clauses) if len(c.literals) == 2][0]
    ci2 = [i for i, c in enumerate(m2.clauses) if len(c.literals) == 2][0]
    assert k1.key(ci1, 0) == k2.key(ci2, 0)
    assert k1.key(ci1, 1) == k2.key(ci2, 1)


def test_key_table_hashes_each_clause_once(monkeypatch):
    m = matrix_of("cnf(a, axiom, p(X) | ~q(X) | r).\ncnf(b, axiom, q(c) | ~r).\ncnf(c, axiom, ~p(d)).\n")
    hashed = []
    clause_hash = trainstore.clause_hash
    monkeypatch.setattr(trainstore, "clause_hash", lambda clause: hashed.append(clause) or clause_hash(clause))
    keys = KeyTable(m)
    assert len(hashed) == len(m.clauses) + 1  # and the start clause
    for ci, clause in enumerate(m.clauses):
        assert [keys.key(ci, li) for li in range(len(clause.literals))] == [key_of(lit, clause) for lit in clause.literals]
    assert keys.key(-1, 0) == key_of(START_CLAUSE.literals[0], START_CLAUSE)


def test_no_collisions_on_bundled_corpus():
    from mcprover.cli import bundled_corpus_dir, load_corpus
    from mcprover.clausify import clausify, prepare_matrix
    from mcprover.tptp import load_problem

    seen = {}
    for info in load_corpus(bundled_corpus_dir()):
        m = prepare_matrix(clausify(load_problem(info.path)))
        keys = KeyTable(m)
        for ci, clause in enumerate(m.clauses):
            for li, lit in enumerate(clause.literals):
                key = keys.key(ci, li)
                from mcprover.trainstore import _literal_bytes

                buf = bytearray()
                _literal_bytes(lit, {}, buf)
                canon = bytes(buf)
                if key in seen:
                    assert seen[key] == canon, f"hash collision at {info.name}"
                else:
                    seen[key] = canon


# --- store operations --------------------------------------------------------

def test_record_and_counts():
    store = Store()
    key = LiteralKey(1, 2)
    store.record(key, True)
    store.record(key, True)
    store.record(key, False)
    assert store.counts(key) == (2, 1)
    assert store.counts(LiteralKey(9, 9)) == (0, 0)


def test_merge_adds_counts():
    a = Store({LiteralKey(1, 2): Stats(2, 1)})
    b = Store({LiteralKey(1, 2): Stats(3, 0)})
    assert merge_stores(a, b).counts(LiteralKey(1, 2)) == (5, 1)


def test_merge_identity():
    a = Store({LiteralKey(1, 2): Stats(2, 1)})
    assert merge_stores(a, Store()) == a
    assert merge_stores(Store(), a) == a


def random_store(rng, size=40):
    entries = {}
    for _ in range(size):
        key = LiteralKey(rng.getrandbits(64), rng.getrandbits(64))
        p, n = rng.randrange(50), rng.randrange(50)
        if p == 0 and n == 0:
            p = 1  # recorded entries always carry at least one event
        entries[key] = Stats(p, n)
    return Store(entries)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_merge_commutative(seed_a, seed_b):
    a = random_store(random.Random(seed_a), size=12)
    b = random_store(random.Random(seed_b), size=12)
    assert merge_stores(a, b) == merge_stores(b, a)


@given(st.integers(0, 10**6))
def test_merge_associative(seed):
    rng = random.Random(seed)
    a, b, c = (random_store(rng, size=10) for _ in range(3))
    assert merge_stores(merge_stores(a, b), c) == merge_stores(a, merge_stores(b, c))


def test_counter_saturation_reported(caplog):
    store = Store({LiteralKey(0, 0): Stats(COUNT_CEILING, 0)})
    with caplog.at_level("WARNING"):
        store.record(LiteralKey(0, 0), True)
    assert store.counts(LiteralKey(0, 0))[0] == COUNT_CEILING
    assert any("saturated" in message for message in caplog.messages)


# --- persistence ---------------------------------------------------------------

def test_persist_format_line():
    store = Store({LiteralKey(1, 2): Stats(5, 1)})
    assert store.dumps() == "0000000000000001 0000000000000002 5 1\n"


def test_empty_store_dumps_empty():
    assert Store().dumps() == ""


def test_zero_entries_dropped_on_save():
    store = Store({LiteralKey(1, 2): Stats(0, 0), LiteralKey(3, 4): Stats(1, 0)})
    assert "0000000000000001" not in store.dumps()


def test_round_trip_large_random_store(tmp_path):
    store = random_store(random.Random(99), size=10000)
    path = tmp_path / "model.txt"
    store.persist(str(path))
    assert Store.load(str(path)) == store


def test_dumps_sorted_and_stable():
    rng = random.Random(5)
    store = random_store(rng, size=100)
    text = store.dumps()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert Store.loads(text).dumps() == text


def test_load_error_reports_line():
    with pytest.raises(StoreFormatError, match="line 2"):
        Store.loads("0000000000000001 0000000000000002 5 1\nbroken line\n")
    with pytest.raises(StoreFormatError, match="line 2: repeats the key"):
        Store.loads("0000000000000001 0000000000000002 3 4\n0000000000000001 0000000000000002 5 6\n")
    with pytest.raises(StoreFormatError):
        Store.loads("xyz 0000000000000002 5 1\n")
    with pytest.raises(StoreFormatError, match="line 1: negative count"):
        Store.loads("0000000000000001 0000000000000002 -1 4\n")


def test_load_skips_blank_lines():
    entries = "0000000000000001 0000000000000002 5 1\n0000000000000003 0000000000000004 0 2\n"
    store = Store.loads("\n" + entries.replace("\n", "\n   \n\n", 1))
    assert store.dumps() == entries
