"""Per-layer spans and counters, taken from outside the engine.

``Tracer.install`` wraps each layer entry point listed in ``LAYERS`` and
rebinds every reference to it in the ``stablechar`` package, including the
names other modules bound with ``from ... import``.  The engine's own code
is untouched; ``uninstall`` restores the originals.

A span wrapper records calls, total time and self time (total minus the
time of the spans nested directly inside it).  A counter wrapper records
calls only and starts no span, so its time stays in its caller's self time.
A layer whose module or attribute is missing is reported as absent with a
warning on stderr, never as zero, so the benchmark survives refactors that
rename or remove an internal helper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, NamedTuple


class Layer(NamedTuple):
    name: str  # metric prefix
    module: str  # module of the stablechar package
    attr: str
    fields: tuple  # metrics reported: calls, self_s, hit_ratio, pairs
    kind: str = "span"  # span | count | init (constructor calls of a class)
    # Layer whose calls mark a cache miss: a call of this layer that never
    # reaches the marker was answered from the memo tables.
    miss_marker: str | None = None
    # Work count taken from the arguments of each call.
    work: Callable | None = None


def _term_pairs(a, b, *_args, **_kwargs) -> int:
    return len(a.terms) * len(b.terms)


LAYERS = (
    Layer("partitions.Partition", "partitions", "Partition", ("calls",), kind="init"),
    Layer("partitions.subpartitions", "partitions", "subpartitions", ("calls",), kind="count"),
    Layer("schur.lattice_fillings", "schur", "_lattice_fillings", (), kind="count"),
    Layer("schur.strip_product", "schur", "_strip_product", ("calls", "self_s")),
    Layer(
        "schur.basis_product", "schur", "_schur_basis_product", ("calls", "hit_ratio"),
        miss_marker="schur.strip_product",
    ),
    Layer(
        "schur.skew_expand", "schur", "skew_expand", ("calls", "self_s", "hit_ratio"),
        miss_marker="schur.lattice_fillings",
    ),
    Layer("schur.schur_multiply", "schur", "schur_multiply", ("calls", "self_s")),
    Layer("schur.dual_jacobi_trudi", "schur", "dual_jacobi_trudi", ("calls", "self_s")),
    Layer(
        "bcd.nl_basis_product", "bcd", "_nl_basis_product", ("calls", "self_s", "hit_ratio"),
        miss_marker="partitions.subpartitions",
    ),
    Layer("bcd.bcd_multiply", "bcd", "bcd_multiply", ("calls", "self_s", "pairs"), work=_term_pairs),
    Layer("series.det", "series", "_det", ("calls", "self_s")),
    Layer("series.product_expansion", "series", "product_expansion", ("self_s",)),
    Layer("series.kappa_expansion", "series", "kappa_expansion", ("self_s",)),
    Layer("series.quadratic_scan", "series", "quadratic_scan", ("calls", "self_s")),
    Layer("series.real_negative_roots", "series", "real_negative_roots", ("self_s",)),
    Layer(
        "embeddings.kappa_coefficient", "embeddings", "kappa_coefficient",
        ("calls", "self_s", "hit_ratio"), miss_marker="partitions.subpartitions",
    ),
    Layer("embeddings.image_by_skewing", "embeddings", "image_by_skewing", ("calls", "self_s")),
    Layer("embeddings.image_from_table", "embeddings", "image_from_table", ("calls", "self_s")),
    Layer("embeddings.verify_linear_identity", "embeddings", "verify_linear_identity", ("self_s",)),
    Layer("embeddings.verify_constant_identity", "embeddings", "verify_constant_identity", ("self_s",)),
    Layer("kr.kr_decomposition", "kr", "kr_decomposition", ("calls", "self_s")),
    Layer("kr.quadratic_identity_check", "kr", "quadratic_identity_check", ("self_s",)),
    Layer("kr.rectangle_check", "kr", "rectangle_check", ("self_s",)),
    Layer("cache.load", "cache", "load", ("self_s",)),
    Layer("cache.save", "cache", "save", ("self_s",)),
    Layer("cli.main", "cli", "main", ("self_s",)),
)

UNITS = {"calls": "count", "pairs": "count", "self_s": "s", "hit_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer can report, with its unit."""
    return {
        f"{layer.name}.{field}": UNITS[field] for layer in LAYERS for field in layer.fields
    }


def _warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, hits, work]
        self.stats = {layer.name: [0, 0.0, 0.0, 0, 0] for layer in LAYERS}
        self.absent: set[str] = set()  # metric names that cannot be measured
        self._stack: list[float] = []  # time of child spans, per open span
        self._undo: list[tuple] = []

    def install(self) -> None:
        resolved = set()
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"stablechar.{layer.module}")
            except ImportError:
                module = None
            original = getattr(module, layer.attr, None)
            if original is None or (layer.kind == "init") != isinstance(original, type):
                self._mark_absent(layer.name, f"stablechar.{layer.module}.{layer.attr} not found")
                continue
            if layer.kind == "init":
                self._patch(original, "__init__", self._counter(layer, original.__init__))
            else:
                wrap = self._counter if layer.kind == "count" else self._span
                self._rebind(original, wrap(layer, original))
            resolved.add(layer.name)
        for layer in LAYERS:
            if layer.miss_marker and layer.miss_marker not in resolved:
                self._mark_absent(f"{layer.name}.hit_ratio", f"miss marker {layer.miss_marker} absent")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def raw(self) -> dict:
        """Plain-data statistics, summable across processes by ``metrics``."""
        return {
            "layers": {
                name: dict(zip(("calls", "total_s", "self_s", "hits", "work"), stat))
                for name, stat in self.stats.items()
            },
            "absent": sorted(self.absent),
        }

    # -- wrapping -----------------------------------------------------------

    def _mark_absent(self, prefix: str, reason: str) -> None:
        names = [m for m in metric_units() if m == prefix or m.startswith(prefix + ".")]
        self.absent.update(names)
        if names:
            _warn(f"{reason}; metrics absent: {', '.join(names)}")

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "stablechar" and not name.startswith("stablechar."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _counter(self, layer: Layer, fn):
        stat = self.stats[layer.name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, layer: Layer, fn):
        stat = self.stats[layer.name]
        marker = self.stats[layer.miss_marker] if layer.miss_marker else None
        stack = self._stack
        clock = time.perf_counter
        work = layer.work
        work_metric = f"{layer.name}.pairs"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            nonlocal work
            if work is not None:
                try:
                    stat[4] += work(*args, **kwargs)
                except (AttributeError, TypeError) as exc:
                    work = None
                    self._mark_absent(work_metric, f"cannot count work of {layer.name}: {exc}")
            misses_before = marker[0] if marker is not None else 0
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if marker is not None and marker[0] == misses_before:
                    stat[3] += 1

        return spanned


def metrics(raws: list[dict]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics summed over the traced processes of one pass.

    Returns the metrics and the names that are absent.  A hit ratio of a
    layer that was never called is reported as 0.
    """
    absent = set().union(*(set(r["absent"]) for r in raws)) if raws else set(metric_units())
    totals: dict[str, dict] = {}
    for raw in raws:
        for name, stat in raw["layers"].items():
            into = totals.setdefault(name, dict.fromkeys(stat, 0))
            for key, value in stat.items():
                into[key] += value
    out = {}
    for layer in LAYERS:
        stat = totals.get(layer.name)
        for field in layer.fields:
            name = f"{layer.name}.{field}"
            if name in absent or stat is None:
                continue
            if field == "hit_ratio":
                out[name] = stat["hits"] / stat["calls"] if stat["calls"] else 0.0
            elif field == "pairs":
                out[name] = stat["work"]
            else:
                out[name] = stat[field]
    return out, absent
