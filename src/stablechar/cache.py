"""The engine's memo tables and their optional on-disk persistence.

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

Pointing the ``STABLECHAR_CACHE_DIR`` environment variable at a directory
makes the command line load the ``PERSISTED`` tables on startup and write
them back on exit (atomic rename, single writer) as plain JSON.  ``load``
treats the file as untrusted: it checks every entry, reads a partition
only in the text ``save`` writes, and drops a bad table whole.  ``save``
leaves the file alone when it already holds every entry, that is when no
persisted table grew since a clean ``load`` of it.  Only
full products persist; the ``nl_truncated`` table of products cut below a
degree floor stays in memory, and so do the owned tables and the ``w``
table of W characters (see :mod:`kr`).  A miss the kernels answer from the
entry of the conjugate shapes is stored under the key that was asked for,
so the file holds the same keys as it would without it.  The file writes
partitions as text, never shape ids, so its schema does not depend on how
the tables key their entries in memory, and ids need not agree between
processes.
"""

from __future__ import annotations

import json
import os
import tempfile
import weakref

from .partitions import EMPTY, Partition, _parts_of, _shape_id

ENV_VAR = "STABLECHAR_CACHE_DIR"
_FILENAME = "stablechar-cache.json"
_SCHEMA = 1

_TABLES: dict[str, dict | weakref.WeakKeyDictionary] = {}

# (file path, persisted table sizes) when that file is known to hold every
# entry of the persisted tables; tables only grow until ``clear_all``.
_in_sync: tuple[str, dict[str, int]] | None = None

# Size rule each persisted table obeys: (|term|, |first key|, |second key|).
_SIZE_RULES = {
    "skew": lambda s, lam, mu: s == lam - mu,
    "product": lambda s, mu, nu: s == mu + nu,
    "nl": lambda s, mu, nu: s <= mu + nu and (mu + nu - s) % 2 == 0,
}
PERSISTED = tuple(_SIZE_RULES)


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
    global _in_sync
    _in_sync = None
    for memo in _TABLES.values():
        memo.clear()


def _sizes() -> dict[str, int]:
    return {name: len(table(name)) for name in PERSISTED}


def _encode_partition(parts: tuple) -> str:
    return ",".join(str(p) for p in parts)


def _encode_table(memo: dict) -> dict:
    texts: dict[int, str] = {}  # each shape id's text, made once

    def text(i: int) -> str:
        got = texts.get(i)
        if got is None:
            got = texts[i] = _encode_partition(_parts_of[i])
        return got

    return {
        "|".join(_encode_partition(k) for k in key): {text(i): c for i, c in value.items()}
        for key, value in memo.items()
    }


def _decode_table(name: str, data) -> dict:
    """Decode one persisted table; ValueError names the first bad entry.

    The entries are checked on the texts of their shapes; only a table that
    passes whole has its shapes registered as ids, so a dropped table adds
    nothing to the registry."""
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    size_ok = _SIZE_RULES[name]
    seen: dict[str, tuple[tuple, int]] = {}

    def partition(text: str) -> tuple[tuple, int]:
        """(parts, size) of a partition's text as ``_encode_partition``
        writes it; ValueError otherwise.  Only that one spelling passes
        (not ``03``, ``+3``, `` 3`` or ``3_0``), so two texts never name
        one shape."""
        if text not in seen:
            lam = Partition(int(p) for p in text.split(",")) if text else EMPTY
            if _encode_partition(lam.parts) != text:
                raise ValueError
            seen[text] = (lam.parts, lam.size)
        return seen[text]

    keys = []
    for key, value in data.items():
        try:
            (first, s1), (second, s2) = map(partition, key.split("|"))
            if not value:  # no stored product or skew expansion is zero
                raise ValueError
            for text, c in value.items():
                if type(c) is not int or c <= 0 or not size_ok(partition(text)[1], s1, s2):
                    raise ValueError
        except (ValueError, AttributeError):
            raise ValueError(f"bad entry {key!r}") from None
        keys.append((first, second))
    ids = {text: _shape_id(parts) for text, (parts, _) in seen.items()}
    return {
        key: {ids[text]: c for text, c in value.items()} for key, value in zip(keys, data.values())
    }


def cache_file(directory: str) -> str:
    return os.path.join(directory, _FILENAME)


def load(directory: str) -> list[str]:
    """Merge a cache file into the memo tables.

    Returns one warning per problem: an unreadable, non-object or
    wrong-schema file is ignored, and a table with a bad entry is dropped
    whole.  A missing file is not a problem.
    """
    global _in_sync
    path = cache_file(directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (FileNotFoundError, NotADirectoryError):
        return []
    except (OSError, ValueError, RecursionError) as exc:
        return [f"ignoring cache file {path}: {exc}"]
    if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
        return [f"ignoring cache file {path}: not a schema {_SCHEMA} object"]
    warnings = []
    complete = True  # the file holds every entry of the tables
    for name in PERSISTED:
        try:
            decoded = _decode_table(name, data.get(name, {}))
        except ValueError as exc:
            warnings.append(f"ignoring table {name!r} of cache file {path}: {exc}")
            complete = False
            continue
        memo = table(name)
        memo.update(decoded)
        complete = complete and len(memo) == len(decoded)
    if complete:
        _in_sync = (path, _sizes())
    return warnings


def save(directory: str) -> None:
    """Write the persisted tables, unless the file already holds them all."""
    global _in_sync
    path = cache_file(directory)
    sizes = _sizes()
    if _in_sync == (path, sizes):
        return
    os.makedirs(directory, exist_ok=True)
    payload = {"schema": _SCHEMA, **{name: _encode_table(table(name)) for name in PERSISTED}}
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # json.dumps encodes in C; json.dump streams through the
            # pure-Python iterencode, several times slower.
            handle.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _in_sync = (path, sizes)
