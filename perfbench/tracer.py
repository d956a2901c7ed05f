"""The benchmark's own tracer and per-layer ledger.

Only the traced run installs it.  :func:`instrument` wraps the public
entry points of each layer (class methods, plus the functions
``repro.core.ficsum`` imports by name) so every call records one span:
name, start, end, parent span and run id.  The core phases have no
public function, so their spans come from the existing
``StatsCollector`` timers, through a collector whose ``timer`` opens a
span (:class:`TracingCollector`, attached with
``Ficsum.attach_observability``).

Spans are kept in flat in-memory arrays and written once, when the
run ends.  A layer's self time is its spans' duration minus the part
covered by their child spans.  Nested calls into the same layer (a
component's ``batch_rows`` looping its own ``batch_scalar``) fold into
the outer span, so call counts are entry-point calls.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.serving.metrics import StatsCollector

#: Each layer of the ledger, the end-to-end metric and workload it
#: should move (written down before measuring), and what it wraps.
LAYERS: Dict[str, Dict[str, str]] = {
    "classifiers.predict_learn": {
        "moves": "latency_p50_ms on stagger_exact_obs",
        "wraps": "HoeffdingTree.predict/learn/predict_learn_batch",
    },
    "classifiers.candidate_predict": {
        "moves": "throughput_obs_s on rbf14_fast_oracle_chunked",
        "wraps": "ClassifierBank.predict_batch_many, HoeffdingTree.predict_batch",
    },
    "metafeatures.push": {
        "moves": "latency_p50_ms on stagger_exact_obs",
        "wraps": "FingerprintPipeline.push/push_many",
    },
    "metafeatures.extract_active": {
        "moves": "throughput_obs_s on stagger_exact_obs and rtree_exact_checkpointed",
        "wraps": "FingerprintPipeline.extract_incremental",
    },
    "metafeatures.extract_candidates": {
        "moves": (
            "throughput_obs_s on rbf14_fast_oracle_chunked, "
            "latency_p99_ms on stagger_exact_obs"
        ),
        "wraps": (
            "WindowExtractionCache.extract/extract_many, "
            "FingerprintPipeline.extract_shared/extract_partial/extract_partial_many"
        ),
    },
    "core.fingerprint_step": {
        "moves": "throughput_obs_s on stagger_exact_obs",
        "wraps": "StatsCollector timer phase.fingerprint_step",
    },
    "core.repository_step": {
        "moves": "latency_p99_ms on stagger_exact_obs, throughput_obs_s on rbf14_fast_oracle_chunked",
        "wraps": "StatsCollector timer phase.repository_step",
    },
    "core.selection": {
        "moves": "throughput_obs_s on rbf14_fast_oracle_chunked",
        "wraps": "StatsCollector timer selection.latency",
    },
    "core.second_selection": {
        "moves": "throughput_obs_s on rbf14_fast_oracle_chunked",
        "wraps": "StatsCollector timer phase.second_selection",
    },
    "core.weights": {
        "moves": "throughput_obs_s on rbf14_fast_oracle_chunked",
        "wraps": "make_weights",
    },
    "core.similarity": {
        "moves": "throughput_obs_s on rbf14_fast_oracle_chunked",
        "wraps": "sim_fast, sim_pairs_many",
    },
    "detectors.adwin": {
        "moves": "throughput_obs_s on stagger_exact_obs",
        "wraps": "Adwin.update",
    },
    "serving.save": {
        "moves": "throughput_obs_s on rtree_exact_checkpointed only",
        "wraps": "StreamRunner.save_checkpoint",
    },
    "serving.restore": {
        "moves": "throughput_obs_s on rtree_exact_checkpointed only",
        "wraps": "StreamRunner.restore_latest",
    },
}

#: Meta-feature components are one layer each, named after the
#: registry entry: ``metafeatures.component.<name>``.
COMPONENT_PREFIX = "metafeatures.component."
COMPONENT_MOVES = (
    "throughput_obs_s on every workload whose profile uses the component "
    "(exact components: stagger_exact_obs and rtree_exact_checkpointed; "
    "_proj/_sub/mi_hist sketches: rbf14_fast_oracle_chunked)"
)
COMPONENT_METHODS = (
    "batch_scalar", "batch_scalar_cached", "batch_rows", "batch_scalar_rows",
    "rolling_rows", "rolling_scalar", "classifier_values",
)

#: Attribute under which a wrapper keeps the function it wraps.
_RAW = "_perfbench_raw"

#: StatsCollector timer name -> ledger layer.
TIMER_LAYERS = {
    "phase.fingerprint_step": "core.fingerprint_step",
    "phase.repository_step": "core.repository_step",
    "phase.second_selection": "core.second_selection",
    "selection.latency": "core.selection",
}


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.failed = array("b")
        self.run_id = 0
        self._stack: List[int] = []
        self._stack_names: List[int] = []
        self._components: set = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith(COMPONENT_PREFIX):
                self._components.add(nid)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.run.append(self.run_id)
        self.failed.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self._stack_names.append(nid)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._stack_names.pop()

    def _folds(self, nid: int, fold_under_components: bool) -> bool:
        """Is the call part of the open span rather than a span of its own?"""
        if not self._stack_names:
            return False
        top = self._stack_names[-1]
        return top == nid or (fold_under_components and top in self._components)

    def call(self, nid: int, fn: Callable, args: tuple, kwargs: dict,
             fold_under_components: bool = False) -> Any:
        """Run ``fn`` inside a span named ``nid``."""
        if self._folds(nid, fold_under_components):
            return fn(*args, **kwargs)
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            self._close(idx)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a ``with`` block."""
        nid = self.name_id(name)
        if self._folds(nid, False):
            yield
            return
        idx = self._open(nid)
        try:
            yield
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            self._close(idx)

    def __len__(self) -> int:
        return len(self.start)

    # -- aggregation ---------------------------------------------------
    def ledger(self) -> Dict[str, Dict[str, float]]:
        """Per-name calls, total time, self time (ns) and failures."""
        n = len(self.start)
        if not n:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=self_time, minlength=k)
        fails = np.bincount(names, weights=failed.astype(np.float64), minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_ns": float(total[i]),
                "self_ns": float(selft[i]),
                "failures": int(fails[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent, run id) as npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


class TracingCollector(StatsCollector):
    """A StatsCollector whose phase timers are tracer spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def timer(self, name: str):  # type: ignore[override]
        layer = TIMER_LAYERS.get(name)
        if layer is None:
            return super().timer(name)
        return self.tracer.span(layer)


class Instrumentation:
    """Installed wrappers, removable with :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        #: Bytes of every snapshot directory ``serving.save`` wrote.
        self.snapshot_bytes: List[int] = []
        #: ``Adwin.update`` calls that signalled drift.
        self.adwin_drifts = 0

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, layer: str,
             after: Optional[Callable[[Any], None]] = None,
             fold_under_components: bool = False) -> None:
        """Replace ``owner.attr`` by a spanned call into the original.

        ``after`` sees each call's return value, outside the span.
        """
        tracer = self.tracer
        nid = tracer.name_id(layer)
        descriptor = vars(owner).get(attr)
        kind = type(descriptor) if isinstance(descriptor, classmethod) else None
        raw = descriptor.__func__ if kind else getattr(owner, attr)
        raw = getattr(raw, _RAW, raw)

        def spanned(*args, **kwargs):
            out = tracer.call(nid, raw, args, kwargs, fold_under_components)
            if after is not None:
                after(out)
            return out

        setattr(spanned, _RAW, raw)
        self._set(owner, attr, kind(spanned) if kind else spanned)

    def wrap_component_class(self, cls: type) -> None:
        """Span every batch/rolling method under the instance's name."""
        tracer = self.tracer
        for attr in COMPONENT_METHODS:
            raw = getattr(cls, attr, None)
            if raw is None:
                continue
            raw = getattr(raw, _RAW, raw)

            def spanned(self_, *args, _raw=raw, **kwargs):
                nid = tracer.name_id(COMPONENT_PREFIX + self_.name)
                return tracer.call(nid, _raw, (self_, *args), kwargs)

            setattr(spanned, _RAW, raw)
            self._set(cls, attr, spanned)

    def remove(self) -> None:
        for owner, attr, old, own in reversed(self._undo):
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _dir_bytes(path: Any) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer's public entry points; see :data:`LAYERS`."""
    import repro.core.ficsum as ficsum_mod
    from repro.classifiers import HoeffdingTree
    from repro.classifiers.bank import ClassifierBank
    from repro.detectors import Adwin
    from repro.metafeatures import FingerprintPipeline, WindowExtractionCache
    from repro.registry import METAFEATURES
    from repro.serving.runner import StreamRunner

    inst = Instrumentation(tracer)
    for attr in ("predict", "learn", "predict_learn_batch"):
        inst.wrap(HoeffdingTree, attr, "classifiers.predict_learn")
    # Permutation importance re-predicts inside a component; that time
    # belongs to the component, not to candidate prediction.
    inst.wrap(HoeffdingTree, "predict_batch", "classifiers.candidate_predict",
              fold_under_components=True)
    inst.wrap(ClassifierBank, "predict_batch_many", "classifiers.candidate_predict")
    for attr in ("push", "push_many"):
        inst.wrap(FingerprintPipeline, attr, "metafeatures.push")
    inst.wrap(FingerprintPipeline, "extract_incremental", "metafeatures.extract_active")
    for attr in ("extract_shared", "extract_partial", "extract_partial_many"):
        inst.wrap(FingerprintPipeline, attr, "metafeatures.extract_candidates")
    for attr in ("extract", "extract_many"):
        inst.wrap(WindowExtractionCache, attr, "metafeatures.extract_candidates")
    inst.wrap(ficsum_mod, "make_weights", "core.weights")
    for attr in ("sim_fast", "sim_pairs_many"):
        inst.wrap(ficsum_mod, attr, "core.similarity")

    def count_drift(out: bool) -> None:
        if out:
            inst.adwin_drifts += 1

    inst.wrap(Adwin, "update", "detectors.adwin", after=count_drift)

    def snapshot_size(path: Any) -> None:
        inst.snapshot_bytes.append(_dir_bytes(path))

    inst.wrap(StreamRunner, "save_checkpoint", "serving.save", after=snapshot_size)
    inst.wrap(StreamRunner, "restore_latest", "serving.restore")
    classes = (type(METAFEATURES[name]) for name in METAFEATURES.ordered_names())
    for cls in dict.fromkeys(classes):
        inst.wrap_component_class(cls)
    return inst


def component_names() -> List[str]:
    from repro.registry import METAFEATURES

    return list(METAFEATURES.ordered_names())
