"""The engine's shared memo tables.

Every shared memo dict is created here by ``table(name)``; the modules bind
theirs at import time and look entries up inline.  Entries are immutable and
only ever inserted, so sharing the tables across threads is safe under the
usual dict guarantees.

The kernel tables (``skew``, ``product``, ``nl``, ``nl_truncated``) are
keyed by shape ids.  Each entry is a pair of equal length: a tuple of the
shape ids of its terms and their multiplicities, as ``bytes`` when every
one is below 256 and as a tuple otherwise, built by ``schur._entry`` and
read by ``schur._pair_products`` alone.
``skew`` is keyed by (lam, mu) and holds no rectangle lam, whose skews
need no table; the three product tables are keyed by the unordered pair
(p, q) with p <= q, and ``nl_truncated`` by (p, q, top), top the largest
|alpha| its entry sums.  The ids come from the registry of
:mod:`stablechar.partitions`.  Each table holds one entry per conjugate
class: a key and its conjugate key ((lam', mu'), or the sorted pair (p',
q') with the same top) share one entry, stored under the key of the
orientation it was computed in, with its terms in that orientation; a
read of the other key returns it flipped (see :mod:`stablechar.schur`).
One table holds whole characters instead: ``w``, the W characters of
:mod:`stablechar.kr`, keyed by (rectangle parts, family).

``clear_all`` empties these tables and nothing else.  It leaves alone:

* the shape registry, so an id never changes its shape and clearing frees
  the entries but not the parts and shared ``Partition`` of every distinct
  shape the process has met;
* ``partitions._partitions_tuples``, an ``lru_cache`` of partition lists;
* the memos that callers of ``schur.dual_jacobi_trudi`` pass in, which
  hold its minors as integer sums (see :mod:`stablechar.schur`);
* the memo each :class:`~stablechar.series.Series` and
  :class:`~stablechar.embeddings.EmbeddingTable` holds in its own slot,
  which lives exactly as long as its owner.
"""

from __future__ import annotations

_TABLES: dict[str, dict] = {}


def table(name: str) -> dict:
    """The memo table called ``name``, created empty on first use."""
    return _TABLES.setdefault(name, {})


def clear_all() -> None:
    """Empty every memo table (the modules keep their references)."""
    for memo in _TABLES.values():
        memo.clear()


# No-ops kept by name: perfbench/tracer.py wraps both, BENCHMARK.json declares their self_s.
def load(directory: str) -> list[str]:
    return []


def save(directory: str) -> None:
    pass
