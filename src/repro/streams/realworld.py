"""Generative stand-ins for the paper's six real-world datasets.

The paper evaluates on six real-world streams separated into known
contexts (Table II): AQSex and AQTemp (insect wing-beat recordings from
dos Reis et al. 2018), Arabic (spoken Arabic digits, contexts =
speakers), CMC (contraceptive method choice), QG and UCI-Wine (red +
white wine quality).  None of those files are distributable here, so
each dataset is replaced by a *generative stand-in* that preserves the
properties the evaluation actually depends on:

* dimensionality, class count and context count from Table II,
* **where the contexts differ** — mainly the labelling function
  ``p(y|X)`` for AQSex/AQTemp (top segment of Table IV) versus mainly
  the feature distribution ``p(X)`` for Arabic/CMC/QG/UCI-Wine (bottom
  segment),
* the rough difficulty (noise ceiling) of each dataset, and
* structural quirks the paper calls out: QG's many redundant
  correlated features, UCI-Wine's near-zero error-rate discrimination.

Each ``<dataset>_concepts`` factory below documents its own
substitution: Table II shape and which distribution its contexts move.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.streams.base import ConceptGenerator


class TabularContextConcept(ConceptGenerator):
    """Gaussian features with a (noisy) linear labelling function.

    ``x = loc + scale * eps`` with ``eps ~ N(0, I)``; the label is the
    argmax of ``W x + b`` with a label-noise flip probability.  A context
    is one setting of ``(loc, scale, W, b)`` — shifting ``loc``/``scale``
    moves ``p(X)``, changing ``W``/``b`` moves ``p(y|X)``.
    """

    def __init__(
        self,
        loc: np.ndarray,
        scale: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        label_noise: float = 0.0,
        mixing: Optional[np.ndarray] = None,
    ) -> None:
        n_classes, n_inf = weights.shape
        n_features = len(loc) if mixing is None else mixing.shape[0]
        super().__init__(n_features, n_classes)
        if not 0.0 <= label_noise < 1.0:
            raise ValueError(f"label_noise must be in [0, 1), got {label_noise}")
        self.loc = np.asarray(loc, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        self.label_noise = label_noise
        self.mixing = mixing
        self._n_latent = len(self.loc)
        if self.weights.shape[1] > self._n_latent:
            raise ValueError("weights reference more features than sampled")

    def sample(self, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
        latent = self.loc + self.scale * rng.normal(size=self._n_latent)
        scores = self.weights @ latent[: self.weights.shape[1]] + self.bias
        label = int(np.argmax(scores))
        if self.label_noise and rng.random() < self.label_noise:
            label = int(rng.integers(0, self.n_classes))
        if self.mixing is not None:
            x = self.mixing @ latent + 0.1 * rng.normal(size=self.n_features)
        else:
            x = latent
        return x, label


class PrototypeContextConcept(ConceptGenerator):
    """Class-conditional Gaussian prototypes under a context transform.

    A class ``k`` is drawn uniformly; ``x = loc + scale * (P_k + s eps)``.
    Prototypes ``P`` are shared across contexts, so each context is an
    affine re-expression of the same class geometry — drift lives almost
    entirely in ``p(X)`` (the Arabic "speaker" model).
    """

    def __init__(
        self,
        prototypes: np.ndarray,
        loc: np.ndarray,
        scale: np.ndarray,
        spread: float = 0.3,
        label_noise: float = 0.0,
    ) -> None:
        n_classes, n_features = prototypes.shape
        super().__init__(n_features, n_classes)
        self.prototypes = np.asarray(prototypes, dtype=np.float64)
        self.loc = np.asarray(loc, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.spread = spread
        self.label_noise = label_noise

    def sample(self, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
        label = int(rng.integers(0, self.n_classes))
        point = self.prototypes[label] + self.spread * rng.normal(size=self.n_features)
        x = self.loc + self.scale * point
        out_label = label
        if self.label_noise and rng.random() < self.label_noise:
            out_label = int(rng.integers(0, self.n_classes))
        return x, out_label


# ----------------------------------------------------------------------
# Dataset factories (Table II stand-ins)
# ----------------------------------------------------------------------
def _sparse_weights(
    rng: np.random.Generator, n_classes: int, n_features: int, support: int
) -> np.ndarray:
    """Class-score weights touching only ``support`` random features.

    Sparse supports keep the labelling learnable by an axis-aligned
    Hoeffding tree within a few hundred observations.
    """
    weights = np.zeros((n_classes, n_features))
    for k in range(n_classes):
        idx = rng.choice(n_features, size=support, replace=False)
        weights[k, idx] = rng.normal(0.0, 2.0, size=support)
    return weights


def aqsex_concepts(seed: int = 0) -> List[ConceptGenerator]:
    """AQSex stand-in: 25 features, 6 contexts, 2 classes.

    Feature distribution is shared across contexts; only the labelling
    hyperplane changes — drift is (almost) purely ``p(y|X)``.
    """
    rng = np.random.default_rng(seed)
    loc = rng.normal(0.0, 1.0, size=25)
    scale = rng.uniform(0.6, 1.4, size=25)
    concepts: List[ConceptGenerator] = []
    for _ in range(6):
        weights = _sparse_weights(rng, 2, 25, support=4)
        bias = rng.normal(0.0, 0.3, size=2)
        concepts.append(
            TabularContextConcept(loc, scale, weights, bias, label_noise=0.02)
        )
    return concepts


def aqtemp_concepts(seed: int = 0) -> List[ConceptGenerator]:
    """AQTemp stand-in: 25 features, 6 contexts, 3 classes, mixed drift.

    The labelling changes per context *and* a few feature means shift
    mildly; heavy label noise caps kappa around the paper's ~0.5.
    """
    rng = np.random.default_rng(seed + 13)
    base_loc = rng.normal(0.0, 1.0, size=25)
    scale = rng.uniform(0.6, 1.4, size=25)
    concepts: List[ConceptGenerator] = []
    for _ in range(6):
        loc = base_loc.copy()
        shifted = rng.choice(25, size=5, replace=False)
        loc[shifted] += rng.normal(0.0, 0.8, size=5)
        weights = _sparse_weights(rng, 3, 25, support=4)
        bias = rng.normal(0.0, 0.3, size=3)
        concepts.append(
            TabularContextConcept(loc, scale, weights, bias, label_noise=0.25)
        )
    return concepts


def arabic_concepts(seed: int = 0) -> List[ConceptGenerator]:
    """Arabic stand-in: 10 features, 10 contexts (speakers), 10 classes.

    Shared digit prototypes under per-speaker affine transforms — the
    contexts differ almost entirely in ``p(X)``.
    """
    rng = np.random.default_rng(seed + 29)
    prototypes = rng.normal(0.0, 1.0, size=(10, 10))
    concepts: List[ConceptGenerator] = []
    for _ in range(10):
        loc = rng.normal(0.0, 1.2, size=10)
        scale = rng.uniform(0.7, 1.5, size=10)
        concepts.append(
            PrototypeContextConcept(
                prototypes, loc, scale, spread=0.35, label_noise=0.02
            )
        )
    return concepts


def cmc_concepts(seed: int = 0) -> List[ConceptGenerator]:
    """CMC stand-in: 8 features, 2 contexts, 3 classes, very noisy.

    A weak linear signal with 55% label noise (paper kappa ~0.2-0.27);
    the two contexts differ moderately in feature means (``p(X)``).
    """
    rng = np.random.default_rng(seed + 41)
    weights = _sparse_weights(rng, 3, 8, support=3)
    bias = rng.normal(0.0, 0.2, size=3)
    scale = rng.uniform(0.7, 1.3, size=8)
    concepts: List[ConceptGenerator] = []
    for _ in range(2):
        loc = rng.normal(0.0, 1.0, size=8)
        concepts.append(
            TabularContextConcept(loc, scale, weights, bias, label_noise=0.55)
        )
    return concepts


def qg_concepts(seed: int = 0) -> List[ConceptGenerator]:
    """QG stand-in: 63 features, 10 contexts, 2 classes.

    Five informative latent features plus 58 correlated/redundant
    mixtures of them; contexts shift the latent distribution subtly.
    The redundancy is the property the paper blames for FiCSUM's reduced
    discrimination on QG.
    """
    rng = np.random.default_rng(seed + 57)
    n_latent = 5
    mixing = np.zeros((63, n_latent))
    mixing[:n_latent, :n_latent] = np.eye(n_latent)
    mixing[n_latent:] = rng.normal(0.0, 0.8, size=(63 - n_latent, n_latent))
    weights = rng.normal(0.0, 2.0, size=(2, n_latent))
    bias = rng.normal(0.0, 0.2, size=2)
    scale = rng.uniform(0.8, 1.2, size=n_latent)
    concepts: List[ConceptGenerator] = []
    for _ in range(10):
        loc = rng.normal(0.0, 0.45, size=n_latent)
        concepts.append(
            TabularContextConcept(
                loc, scale, weights, bias, label_noise=0.1, mixing=mixing
            )
        )
    return concepts


def wine_concepts(seed: int = 0) -> List[ConceptGenerator]:
    """UCI-Wine stand-in: 11 features, 2 contexts (red/white), 2 classes.

    The contexts are strongly separated in ``p(X)`` (grape chemistry)
    while sharing one weak, noisy quality rule — so error rate carries
    almost no discrimination (paper: ER discrimination 0.42).
    """
    rng = np.random.default_rng(seed + 71)
    weights = _sparse_weights(rng, 2, 11, support=2)
    bias = rng.normal(0.0, 0.1, size=2)
    concepts: List[ConceptGenerator] = []
    for _ in range(2):
        loc = rng.normal(0.0, 1.6, size=11)
        scale = rng.uniform(0.6, 1.4, size=11)
        concepts.append(
            TabularContextConcept(loc, scale, weights, bias, label_noise=0.4)
        )
    return concepts
