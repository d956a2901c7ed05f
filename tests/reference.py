"""The reference FiCSUM every production fast path is pinned against.

:class:`ReferenceFicsum` is production :class:`~repro.core.ficsum.Ficsum`
with each batched, memoised or shared-work layer replaced by the plain
per-state computation it must equal bit for bit:

* ``Repository.bank()`` answers ``None``, so candidate fingerprints
  stack through the per-state loop (the production fallback for
  repositories holding non-tree classifiers) instead of one
  forest-routing pass;
* ``OnlineMinMax.contains`` answers ``False``, so selection and the
  repository step run the sequential update-then-score loop (the
  production fallback when a candidate widens the normaliser's range)
  instead of the batched kernels;
* every candidate window fingerprint is one batch
  :meth:`FingerprintPipeline.extract` — no shared-window extraction
  cache, no partial extraction;
* the dynamic weights loop the state list (``make_weights(...,
  matrix=None)``) instead of reading the repository matrix;
* gated similarity records are recomputed on every call, without the
  per-step memo.

``batch_active=True`` also fingerprints the active window with batch
``extract`` instead of the rolling accumulators.  Rolling algebra sums
in a different order, so that variant agrees with production only to
float tolerance, not bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.config import FicsumConfig
from repro.core.ficsum import Ficsum
from repro.core.repository import ConceptState
from repro.core.weighting import make_weights


class ReferenceFicsum(Ficsum):
    """:class:`Ficsum` forced onto its reference paths (see module doc)."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        config: Optional[FicsumConfig] = None,
        *,
        batch_active: bool = False,
    ) -> None:
        super().__init__(n_features, n_classes, config)
        self.repository.bank = lambda: None
        self.normalizer.contains = lambda values: False
        if batch_active:
            self.pipeline.extract_incremental = self.pipeline.extract

    def _window_fingerprint(
        self, xa: np.ndarray, ya: np.ndarray, state: ConceptState
    ) -> np.ndarray:
        preds = state.classifier.predict_batch(xa)
        return self.pipeline.extract(xa, ya, preds, state.classifier)

    def _refresh_weights(self) -> None:
        self._weights = make_weights(
            self.config.weighting, self._active, self.repository.states(),
            self.normalizer, matrix=None,
        )
        self._weights_version += 1

    def _gated_record(self, state: ConceptState) -> Tuple[float, float]:
        mu, sigma = state.rescaled_similarity_record(self._sim)
        floor = self.config.min_similarity_std * max(1.0, abs(mu))
        return mu, max(sigma, floor)
