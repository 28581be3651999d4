"""The engine's memo tables.

Every memo dict is created here by ``table(name)``; the modules bind theirs
at import time and look entries up inline.  Entries are immutable and only
ever inserted, so sharing the tables across threads is safe under the usual
dict guarantees.

Two tables are owned instead, made by ``owned(name)``: ``minors`` holds the
state of each :class:`~stablechar.series.Series` (its scaled coefficients,
determinant minors and kappa coefficients), and ``table_minors`` that of
each :class:`~stablechar.embeddings.EmbeddingTable` (its scaled generator
images and two memos of dual Jacobi-Trudi minors, one for the determinants
in the generator images and one for those in the row images, since a memo
serves one family of entries; a row image is itself a top minor of the
first).  They are weak-keyed: ``latest`` finds the state
of an owner, the same object or an equal one, or builds it, and the state
lives exactly as long as some caller holds its owner, with no size bound.
So a state must not reference its owner, or the weak key never dies; it is
built from the owner's values (coefficients or entries) alone.  The memos
of a state are only ever inserted into, like the tables.

The kernel tables (``skew``, ``product``, ``nl``, ``nl_truncated``) are
keyed by the parts tuples of their two shapes and hold ``{id: int}``
entries over shape ids.  The ids come from the registry of
:mod:`stablechar.partitions`, which is not a memo table: ``clear_all``
leaves it alone, so an id never changes its shape.  Clearing therefore
frees the entries but not the registry, which keeps the parts and the
shared ``Partition`` of every distinct shape the process has met.
"""

from __future__ import annotations

import weakref

_TABLES: dict[str, dict | weakref.WeakKeyDictionary] = {}


def table(name: str) -> dict:
    """The memo table called ``name``, created empty on first use."""
    return _TABLES.setdefault(name, {})


def owned(name: str) -> weakref.WeakKeyDictionary:
    """The owned table called ``name``: states keyed weakly by their owners."""
    return _TABLES.setdefault(name, weakref.WeakKeyDictionary())


def latest(memo: weakref.WeakKeyDictionary, owner, build):
    """The state the owned table ``memo`` holds for ``owner`` (the same
    object or an equal one), else ``build(owner)``, stored for as long as
    ``owner`` lives."""
    state = memo.get(owner)
    if state is None:
        state = memo[owner] = build(owner)
    return state


def clear_all() -> None:
    """Empty every memo table (the modules keep their references).  The
    shape registry of :mod:`stablechar.partitions` is not a table and keeps
    every shape it holds."""
    for memo in _TABLES.values():
        memo.clear()


# No-ops kept by name: perfbench/tracer.py wraps both, BENCHMARK.json declares their self_s.
def load(directory: str) -> list[str]:
    return []


def save(directory: str) -> None:
    pass
