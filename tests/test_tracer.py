"""The benchmark's tracer still finds every layer it wraps by name.

``perfbench/tracer.py`` is read and executed here without importing it
from its directory, so no bytecode is written next to it.  A renamed or
removed kernel entry point then fails this test, not only the slower
benchmark suite.
"""

import types
from pathlib import Path

from stablechar import bcd
from stablechar.partitions import Partition
from stablechar.schur import FormalSum

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_tracer_finds_every_layer():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        a = FormalSum("sp", {Partition((2, 1)): 1, Partition((1,)): 2})
        bcd.bcd_multiply(a, a)  # looked up after the tracer rebinds it
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    stats = tracer.raw()["layers"]
    for name in ("bcd.bcd_multiply", "bcd.nl_basis_product", "schur.basis_product"):
        assert stats[name]["calls"], name
