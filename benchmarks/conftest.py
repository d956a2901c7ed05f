"""Benchmark-suite fixtures.

Benches that time a fast path against its reference import the one
oracle, ``tests/reference.py``, so ``tests/`` joins the import path.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import _harness

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(autouse=True)
def _isolate_bench_json_log():
    """Drain the harness grid log before every bench.

    ``save_bench_json`` consumes the grids recorded since the previous
    call; if a bench errors before reaching it, leftover grids must not
    leak into the next bench's ``BENCH_<name>.json``.
    """
    _harness._GRID_LOG.clear()
    yield
