"""The reference oracle takes every fallback it claims to.

Pinning production against :class:`ReferenceFicsum` proves something
only while the oracle really runs the plain computations.  These spy
tests drive one stream through each system with every fast-path entry
point instrumented: production must reach all of them (so the spies
see what they claim to), the oracle none of them.
"""

from __future__ import annotations

from collections import Counter

import pytest
from equivalence import build_system
from reference import ReferenceFicsum

from repro.classifiers.bank import ClassifierBank
from repro.core.ficsum import Ficsum
from repro.core.repository import Repository
from repro.evaluation.prequential import prequential_run
from repro.metafeatures import FingerprintPipeline

#: Entry points that exist only to serve a fast path.
FAST_PATHS = [
    (ClassifierBank, "predict_batch_many"),
    (FingerprintPipeline, "extract_shared"),
    (FingerprintPipeline, "extract_partial_many"),
    (Ficsum, "_score_candidates"),
    (Ficsum, "_repository_scores_batch"),
    (Ficsum, "_gated_records_many"),
    (Repository, "matrix"),
]


def _spy(monkeypatch, targets) -> Counter:
    hits: Counter = Counter()
    for owner, name in targets:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            hits[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return hits


@pytest.mark.parametrize("reference", [False, True], ids=["production", "oracle"])
def test_fast_paths_taken_only_by_production(monkeypatch, reference):
    hits = _spy(monkeypatch, FAST_PATHS + [(FingerprintPipeline, "extract")])
    system, stream = build_system(reference=reference)
    prequential_run(system, stream, oracle_drift=True)

    # Multi-candidate selections and repository steps really happened.
    assert system.selection_events > 0
    assert len(system.repository) >= 2
    if reference:
        assert isinstance(system, ReferenceFicsum)
        assert not any(hits[name] for _, name in FAST_PATHS), hits
        assert hits["extract"] > 0
        assert system._extract_cache.n_shared_computes == 0
        assert not system._gated_cache
    else:
        assert all(hits[name] for _, name in FAST_PATHS), hits
        assert hits["extract"] == 0


def test_batch_active_bypasses_the_accumulators(monkeypatch):
    """``batch_active=True`` fingerprints the active window with batch
    ``extract``; the rolling ``extract_incremental`` never runs."""
    hits = _spy(
        monkeypatch,
        [
            (FingerprintPipeline, "extract_incremental"),
            (FingerprintPipeline, "extract"),
        ],
    )
    fast, stream = build_system()
    ref = ReferenceFicsum(
        fast.n_features, fast.n_classes, fast.config, batch_active=True
    )
    prequential_run(ref, stream, oracle_drift=True, max_observations=300)
    assert hits["extract_incremental"] == 0
    assert hits["extract"] > 0
