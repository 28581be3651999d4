"""The engine's memo tables and their optional on-disk persistence.

Every memo dict is created here by ``table(name)``; the modules bind theirs
at import time and look entries up inline.  Entries are immutable and only
ever inserted, so sharing the tables across threads is safe under the usual
dict guarantees.  The exceptions are ``minors``, the determinant minors of
:mod:`series`, and ``table_minors``, the dual Jacobi-Trudi minors of
:mod:`embeddings`: each holds the state of a single owner, a series or an
embedding table, and ``latest`` empties it when another owner arrives, so
that its size stays that of one.  A ``table_minors`` state holds two memos
of minors, one for the determinants in the table's generator images and
one for those in its row images, since a memo serves one family of
entries.  A caller keeps the state it fetched, whose memos are still only
ever inserted into.

Pointing the ``STABLECHAR_CACHE_DIR`` environment variable at a directory
makes the command line load the ``PERSISTED`` tables on startup and write
them back on exit (atomic rename, single writer) as plain JSON.  ``load``
treats the file as untrusted: it checks every entry and drops a bad table
whole.  ``save`` leaves the file alone when it already holds every entry,
that is when no persisted table grew since a clean ``load`` of it.  Only
full products persist; the ``nl_truncated`` table of products cut below a
degree floor stays in memory, and so do the ``minors`` and ``table_minors``
tables and the ``conjugate`` table (parts of a shape to its conjugate
``Partition``) that the kernels use to answer a miss from the entry of the
conjugate shapes.
Such a derived entry is stored under the key that was asked for, so the
file holds the same keys as it would without it.
"""

from __future__ import annotations

import json
import os
import tempfile

from .partitions import EMPTY, Partition

ENV_VAR = "STABLECHAR_CACHE_DIR"
_FILENAME = "stablechar-cache.json"
_SCHEMA = 1

_TABLES: dict[str, dict] = {}

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


def latest(memo: dict, owner, build):
    """The state ``memo`` holds for ``owner`` (the same object or an equal
    one), else ``build(owner)`` after emptying ``memo``: a one-owner table
    keeps the state of the last owner only."""
    for other, state in memo.items():
        if other is owner or other == owner:
            return state
    memo.clear()
    state = memo[owner] = build(owner)
    return state


def clear_all() -> None:
    """Empty every memo table (the modules keep their references)."""
    global _in_sync
    _in_sync = None
    for memo in _TABLES.values():
        memo.clear()


def _sizes() -> dict[str, int]:
    return {name: len(table(name)) for name in PERSISTED}


def _encode_partition(parts: tuple) -> str:
    return ",".join(str(p) for p in parts)


def _encode_table(memo: dict) -> dict:
    return {
        "|".join(_encode_partition(k) for k in key): {
            _encode_partition(lam.parts): c for lam, c in value.items()
        }
        for key, value in memo.items()
    }


def _decode_table(name: str, data) -> dict:
    """Decode one persisted table; ValueError names the first bad entry."""
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    size_ok = _SIZE_RULES[name]
    seen: dict[str, tuple[Partition, int]] = {}

    def partition(text: str) -> tuple[Partition, int]:
        if text not in seen:
            lam = Partition(int(p) for p in text.split(",")) if text else EMPTY
            seen[text] = (lam, lam.size)
        return seen[text]

    out = {}
    for key, value in data.items():
        try:
            (first, s1), (second, s2) = map(partition, key.split("|"))
            entry = {}
            for text, c in value.items():
                lam, size = partition(text)
                if type(c) is not int or c <= 0 or not size_ok(size, s1, s2):
                    raise ValueError
                entry[lam] = c
            if not entry:  # no stored product or skew expansion is zero
                raise ValueError
        except (ValueError, AttributeError):
            raise ValueError(f"bad entry {key!r}") from None
        out[(first.parts, second.parts)] = entry
    return out


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
            json.dump(payload, handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _in_sync = (path, sizes)
