"""Dataset registrations reproducing Table II plus the Synth* datasets.

Every dataset registers its concept-pool factory through
:func:`repro.registry.register_dataset` together with its Table II
characteristics; ``make_dataset(name, seed)`` is a thin query over the
registry that returns a :class:`RecurrentStream`.  Synthetic pools come
from the generator ports; real-world datasets use the generative
stand-ins of :mod:`repro.streams.realworld` (its module docstring
lists what each stand-in preserves).
Segment lengths default to (paper length) / (contexts x 9 repeats) and
can be overridden — the benchmark harness runs scaled-down streams by
default.

The ``SynthD/A/F`` family of Section VI-6 shares a *single* random-tree
labelling function across all concepts and varies only the feature
sampling (distribution / autocorrelation / frequency), exactly as the
paper describes.  HPLANE-U and RTREE-U likewise inject feature drift
over a fixed labeller, which is what puts them in the "drift mainly in
p(X)" segment of Table IV.

User-defined datasets plug in the same way::

    @register_dataset("MY-STREAM", paper_length=10_000, n_features=4,
                      n_contexts=3, n_classes=2, drift_type="p(X)")
    def my_pool(seed):
        return [...]  # list of ConceptGenerator
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.registry import DATASETS, DatasetSpec, register_dataset
from repro.streams import realworld
from repro.streams.base import ConceptGenerator
from repro.streams.recurrence import RecurrentStream
from repro.streams.synthetic import (
    random_tree_concepts,
    rbf_concepts,
    stagger_concepts,
)
from repro.streams.synthetic.random_tree import RandomTreeConcept
from repro.streams.synthetic.hyperplane import HyperplaneConcept
from repro.streams.transforms import drifting_pool

__all__ = [
    "DatasetSpec",
    "PAPER_DATASETS",
    "SYNTH_DATASETS",
    "dataset_names",
    "dataset_info",
    "default_segment_length",
    "make_dataset",
]


register_dataset(
    "AQTemp", paper_length=24000, n_features=25, n_contexts=6, n_classes=3,
    drift_type="mixed",
)(realworld.aqtemp_concepts)
register_dataset(
    "AQSex", paper_length=24000, n_features=25, n_contexts=6, n_classes=2,
    drift_type="p(y|X)",
)(realworld.aqsex_concepts)
register_dataset(
    "Arabic", paper_length=8800, n_features=10, n_contexts=10, n_classes=10,
    drift_type="p(X)",
)(realworld.arabic_concepts)
register_dataset(
    "CMC", paper_length=1473, n_features=8, n_contexts=2, n_classes=3,
    drift_type="p(X)",
)(realworld.cmc_concepts)
register_dataset(
    "QG", paper_length=4010, n_features=63, n_contexts=10, n_classes=2,
    drift_type="p(X)",
)(realworld.qg_concepts)
register_dataset(
    "UCI-Wine", paper_length=6498, n_features=11, n_contexts=2, n_classes=2,
    drift_type="p(X)",
)(realworld.wine_concepts)


@register_dataset(
    "RBF", paper_length=30000, n_features=10, n_contexts=6, n_classes=2,
    drift_type="p(y|X)",
)
def _rbf_pool(seed: int) -> List[ConceptGenerator]:
    return rbf_concepts(6, seed, n_features=10, n_classes=2)


@register_dataset(
    "RTREE", paper_length=30000, n_features=10, n_contexts=6, n_classes=2,
    drift_type="p(y|X)",
)
def _rtree_pool(seed: int) -> List[ConceptGenerator]:
    return random_tree_concepts(6, seed, n_features=10, n_classes=2)


@register_dataset(
    "STAGGER", paper_length=30000, n_features=3, n_contexts=3, n_classes=2,
    drift_type="p(y|X)",
)
def _stagger_pool(seed: int) -> List[ConceptGenerator]:
    return stagger_concepts(3, seed)


@register_dataset(
    "HPLANE-U", paper_length=30000, n_features=10, n_contexts=6, n_classes=2,
    drift_type="p(X)",
)
def _hplane_u_pool(seed: int) -> List[ConceptGenerator]:
    base = HyperplaneConcept(seed=seed * 1000 + 3, n_features=10, noise=0.05)
    return drifting_pool(
        [base] * 6, seed + 101, distribution=True, autocorrelation=True,
        frequency=True,
    )


@register_dataset(
    "RTREE-U", paper_length=30000, n_features=10, n_contexts=6, n_classes=2,
    drift_type="p(X)",
)
def _rtree_u_pool(seed: int) -> List[ConceptGenerator]:
    base = RandomTreeConcept(seed=seed * 1000 + 5, n_features=10, n_classes=2)
    return drifting_pool(
        [base] * 6, seed + 103, distribution=True, autocorrelation=True,
        frequency=True,
    )


def _synth_pool(distribution: bool, autocorrelation: bool, frequency: bool):
    def factory(seed: int) -> List[ConceptGenerator]:
        base = RandomTreeConcept(seed=seed * 1000 + 11, n_features=5, n_classes=2)
        return drifting_pool(
            [base] * 6,
            seed + 107,
            distribution=distribution,
            autocorrelation=autocorrelation,
            frequency=frequency,
        )

    return factory


for _flags, _suffix in [
    ((False, True, False), "A"),
    ((False, True, True), "AF"),
    ((True, False, False), "D"),
    ((True, True, False), "DA"),
    ((True, True, True), "DAF"),
    ((True, False, True), "DF"),
    ((False, False, True), "F"),
]:
    register_dataset(
        f"Synth{_suffix}", paper_length=30000, n_features=5, n_contexts=6,
        n_classes=2, drift_type="p(X)",
    )(_synth_pool(*_flags))

PAPER_DATASETS = [
    "AQTemp", "AQSex", "Arabic", "CMC", "QG", "UCI-Wine",
    "RBF", "RTREE", "STAGGER", "HPLANE-U", "RTREE-U",
]
SYNTH_DATASETS = [
    "SynthA", "SynthAF", "SynthD", "SynthDA", "SynthDAF", "SynthDF", "SynthF",
]


def dataset_names() -> List[str]:
    """All registered dataset names."""
    return list(DATASETS)


def dataset_info(name: str) -> DatasetSpec:
    """The registry entry for ``name`` (raises ``KeyError`` if unknown)."""
    return DATASETS.get(name)


def default_segment_length(spec: DatasetSpec, n_repeats: int) -> int:
    """Paper-scale segment length, clipped to a workable range."""
    raw = spec.paper_length // max(1, spec.n_contexts * n_repeats)
    return int(np.clip(raw, 150, 2000))


def make_dataset(
    name: str,
    seed: int = 0,
    segment_length: Optional[int] = None,
    n_repeats: int = 9,
) -> RecurrentStream:
    """Build a recurrent-concept stream for a registered dataset.

    Parameters
    ----------
    name:
        A Table II dataset ("AQSex", ..., "RTREE-U") or a Synth* name.
    seed:
        Controls concept layouts, the schedule shuffle and sampling.
    segment_length:
        Observations per stationary segment; defaults to paper scale.
    n_repeats:
        Occurrences of each concept (paper protocol: 9).
    """
    spec = DATASETS.get(name)
    if segment_length is None:
        segment_length = default_segment_length(spec, n_repeats)
    pool = spec.pool(seed)
    return RecurrentStream(
        pool,
        segment_length=segment_length,
        n_repeats=n_repeats,
        seed=seed,
        name=name,
    )
