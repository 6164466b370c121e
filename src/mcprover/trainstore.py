"""Literal success/failure statistics with stable content hashing.

Keys are 64-bit FNV-1a hashes of a canonical byte serialization, fixed and
seed-free so stores produced in different processes agree byte for byte.

Canonical layout (documented so the tests can reproduce it):

    literal := polarity byte ('+' / '-'), predicate utf-8, 0x00,
               decimal arity utf-8, 0x00, term*
    term    := 'V', decimal variable index utf-8, 0x00
             | 'A', functor utf-8, 0x00, decimal arity utf-8, 0x00, term*

Variables are numbered by first occurrence: per literal for the literal hash,
per clause for the clause hash (clause literals are joined with 0x01). This
makes keys invariant under variable renaming while consistent Skolem names
keep them aligned across problems.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

from .terms import Clause, Literal, Matrix, START_CLAUSE, Var, subterms

log = logging.getLogger(__name__)

COUNT_CEILING = 2**63 - 1

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv64(data: bytes) -> int:
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class LiteralKey(NamedTuple):
    literal_hash: int
    clause_hash: int


def _term_bytes(t, numbering: dict, out: bytearray):
    for u in subterms(t):
        if type(u) is Var:
            out += b"V%d\x00" % numbering.setdefault(u.id, len(numbering))
        else:
            out += b"A" + u.functor.encode("utf-8") + b"\x00%d\x00" % len(u.args)


def _literal_bytes(lit: Literal, numbering: dict, out: bytearray):
    out += b"+" if lit.positive else b"-"
    out += lit.predicate.encode("utf-8") + b"\x00%d\x00" % len(lit.args)
    for a in lit.args:
        _term_bytes(a, numbering, out)


def literal_hash(lit: Literal) -> int:
    buf = bytearray()
    _literal_bytes(lit, {}, buf)
    return fnv64(bytes(buf))


def clause_hash(clause: Clause) -> int:
    buf = bytearray()
    numbering: dict = {}
    for i, lit in enumerate(clause.literals):
        if i:
            buf += b"\x01"
        _literal_bytes(lit, numbering, buf)
    return fnv64(bytes(buf))


def key_of(literal: Literal, origin_clause: Clause) -> LiteralKey:
    return LiteralKey(literal_hash(literal), clause_hash(origin_clause))


@dataclass
class Stats:
    p: int = 0
    n: int = 0

    def merged(self, other: "Stats") -> "Stats":
        return Stats(_saturating_add(self.p, other.p), _saturating_add(self.n, other.n))


def _saturating_add(a: int, b: int) -> int:
    total = a + b
    if total > COUNT_CEILING:
        log.warning("literal statistics counter saturated at %d", COUNT_CEILING)
        return COUNT_CEILING
    return total


class StoreFormatError(Exception):
    pass


class Store:
    """Mapping from literal keys to success/failure counts."""

    def __init__(self, entries: dict | None = None):
        self.entries: dict = dict(entries) if entries else {}

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self.entries == other.entries

    def counts(self, key: LiteralKey) -> tuple:
        stats = self.entries.get(key)
        return (stats.p, stats.n) if stats else (0, 0)

    def record(self, key: LiteralKey, success: bool):
        stats = self.entries.setdefault(key, Stats())
        if success:
            stats.p = _saturating_add(stats.p, 1)
        else:
            stats.n = _saturating_add(stats.n, 1)

    def record_events(self, events):
        for event in events:
            self.record(event.key, event.success)

    def persist(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    def dumps(self) -> str:
        lines = []
        for key in sorted(self.entries):
            stats = self.entries[key]
            if stats.p == 0 and stats.n == 0:
                continue
            lines.append(f"{key.literal_hash:016x} {key.clause_hash:016x} {stats.p} {stats.n}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def loads(cls, text: str) -> "Store":
        store = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise StoreFormatError(f"line {number}: expected 4 fields, found {len(parts)}")
            try:
                key = LiteralKey(int(parts[0], 16), int(parts[1], 16))
                stats = Stats(int(parts[2]), int(parts[3]))
            except ValueError:
                raise StoreFormatError(f"line {number}: malformed entry {line!r}") from None
            if stats.p < 0 or stats.n < 0:
                raise StoreFormatError(f"line {number}: negative count")
            if key in store.entries:
                raise StoreFormatError(f"line {number}: repeats the key of an earlier line: {line!r}")
            store.entries[key] = stats
        return store

    @classmethod
    def load(cls, path: str) -> "Store":
        with open(path, encoding="utf-8") as handle:
            try:
                return cls.loads(handle.read())
            except StoreFormatError as err:
                raise StoreFormatError(f"{path}: {err}") from None


def merge_stores(a: Store, b: Store) -> Store:
    """Commutative, associative merge: per-key componentwise count addition."""
    entries = {key: Stats(stats.p, stats.n) for key, stats in a.entries.items()}
    for key, stats in b.entries.items():
        if key in entries:
            entries[key] = entries[key].merged(stats)
        else:
            entries[key] = Stats(stats.p, stats.n)
    return Store(entries)


class KeyTable:
    """Precomputed keys for every literal position of a prepared matrix.

    Position (-1, anything) denotes the synthetic start goal's literal.
    """

    def __init__(self, matrix: Matrix):
        self._table = tuple(
            tuple(key_of(lit, clause) for lit in clause.literals) for clause in matrix.clauses
        )
        self._start = key_of(START_CLAUSE.literals[0], START_CLAUSE)

    def key(self, clause_index: int, literal_index: int) -> LiteralKey:
        if clause_index < 0:
            return self._start
        return self._table[clause_index][literal_index]
