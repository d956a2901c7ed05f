"""Workload definitions, input generation and the three ways to feed a pass.

A workload is a fixed recipe: a concept pool, a stream shape, a
``FicsumConfig`` and a mode of feeding the system.  ``--seed`` spawns ``n_streams``
independent sub-seeds; each sub-seed draws one recurrent stream, which
is materialised into arrays *before* anything is timed.  The system
under test only ever sees those arrays.

A run replays the streams in a closed loop — stream 0, 1, ..., K-1,
0, 1, ... — with a fresh system per pass, so every pass is a whole
prequential run of one stream, exactly what ``repro grid`` does for
one Table IV cell.  Several independent streams per run keep the
figures steady across seeds: one stream's repository growth (which
sets the cost of repository steps and selections) varies a lot from
seed to seed, the mean over K streams much less.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import Ficsum, FicsumConfig
from repro.evaluation.metrics import ConfusionMatrix, co_occurrence_f1
from repro.serving.manifest import SnapshotError
from repro.serving.runner import StreamRunner
from repro.streams import RecurrentStream
from repro.streams.base import Observation, ResumableIterator, Stream, StreamMeta
from repro.streams.synthetic import random_tree_concepts, rbf_concepts, stagger_concepts

# Latency sample classes, heaviest event in the call first.
PLAIN, FINGERPRINT, REPOSITORY, SELECTION = 0, 1, 2, 3
EVENT_NAMES = ("plain", "fingerprint", "repository", "selection")


@dataclass(frozen=True)
class Workload:
    name: str
    pool: str  # key of POOLS
    mode: str  # how passes feed the system: "per_obs" | "chunked" | "checkpointed"
    config: Dict[str, Any]
    n_features: int
    n_streams: int
    segment_length: int
    n_repeats: int
    chunk_size: int = 0
    checkpoint_every: int = 0
    restart_every: int = 0

    def make_config(self) -> FicsumConfig:
        return FicsumConfig(**self.config)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The why of each workload is in BENCHMARK.json and README.md.
        Workload(
            name="stagger_exact_obs",
            pool="STAGGER",
            mode="per_obs",
            config={},
            n_features=3,
            n_streams=5,
            segment_length=240,
            n_repeats=2,
        ),
        Workload(
            name="rbf14_fast_oracle_chunked",
            pool="RBF14",
            mode="chunked",
            config={"sketch_profile": "fast", "oracle_drift": True},
            n_features=10,
            n_streams=3,
            segment_length=120,
            n_repeats=2,
            chunk_size=5,
        ),
        Workload(
            name="rtree_exact_checkpointed",
            pool="RTREE",
            mode="checkpointed",
            # Oracle drift keeps the event schedule (and so the cost)
            # fixed across seeds: under ADWIN, RTREE's kappa spread a
            # third or more from seed to seed.
            config={"oracle_drift": True},
            n_features=10,
            n_streams=2,
            segment_length=150,
            n_repeats=2,
            chunk_size=3,
            checkpoint_every=25,
            restart_every=500,
        ),
    )
}


def smoke_variant(workload: Workload) -> Workload:
    """The same workload on one tiny stream (the benchmark's own tests)."""
    return replace(workload, n_streams=1, segment_length=100, n_repeats=1)


def build_ready_system(workload: Workload) -> Any:
    """What ``setup_s`` times: the system ready for its first observation.

    Every workload streams two classes; the checkpointed one also needs
    its StreamRunner.
    """
    system = Ficsum(workload.n_features, 2, workload.make_config())
    if workload.mode != "checkpointed":
        return system
    empty = Inputs(
        X=np.empty((0, workload.n_features)),
        y=np.empty(0, dtype=np.int64),
        concepts=np.empty(0, dtype=np.int64),
        meta=StreamMeta(workload.n_features, 2, 1, 0),
    )
    return StreamRunner(
        system, ArrayStream(empty), chunk_size=workload.chunk_size,
        checkpoint_path=Path(".perfbench_out") / "unused",
        checkpoint_every=workload.checkpoint_every, keep_checkpoints=2,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """One materialised stream: features, labels, ground-truth concepts."""

    X: np.ndarray
    y: np.ndarray
    concepts: np.ndarray
    meta: StreamMeta

    def __len__(self) -> int:
        return len(self.y)


#: Seed of every workload's concept pool.  The pool is part of the
#: workload, like a dataset; ``--seed`` draws the schedule order and the
#: observations.  (A seed-drawn pool would change the concepts'
#: difficulty from run to run, and with it kappa by a third on RTREE.)
POOL_SEED = 0
POOLS = {
    "STAGGER": lambda: stagger_concepts(3),
    "RBF14": lambda: rbf_concepts(14, POOL_SEED, n_features=10, n_classes=2),
    "RTREE": lambda: random_tree_concepts(6, POOL_SEED, n_features=10, n_classes=2),
}


def sub_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent stream seeds drawn from the run seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0] % (2**31 - 1)) for c in children]


def generate(workload: Workload, seed: int) -> List[Inputs]:
    """Materialise every stream of a workload (the load generator)."""
    out = []
    for sub in sub_seeds(seed, workload.n_streams):
        stream = RecurrentStream(
            POOLS[workload.pool](),
            segment_length=workload.segment_length,
            n_repeats=workload.n_repeats,
            seed=sub,
        )
        rows = list(stream)
        out.append(
            Inputs(
                X=np.array([r[0] for r in rows], dtype=np.float64),
                y=np.array([r[1] for r in rows], dtype=np.int64),
                concepts=np.array([r[2] for r in rows], dtype=np.int64),
                meta=stream.meta,
            )
        )
    return out


class ArrayStream(Stream):
    """A pre-generated stream, seekable so StreamRunner can resume it.

    ``pulled[i]`` is when the consumer took observation ``i``: the
    moment it was handed to the system under test.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.pulled = np.zeros(len(inputs))

    @property
    def meta(self) -> StreamMeta:
        return self.inputs.meta

    def __iter__(self) -> Iterator[Observation]:
        return _ArrayIterator(self)

    def iter_resumable(self) -> ResumableIterator:
        return _ArrayIterator(self)


class _ArrayIterator(ResumableIterator):
    def __init__(self, stream: ArrayStream) -> None:
        self.stream = stream
        self.pos = 0

    def __next__(self) -> Observation:
        i = self.pos
        inputs = self.stream.inputs
        if i >= len(inputs):
            raise StopIteration
        self.pos = i + 1
        self.stream.pulled[i] = time.perf_counter()
        return inputs.X[i], int(inputs.y[i]), int(inputs.concepts[i])

    def state_dict(self) -> Dict[str, Any]:
        return {"pos": self.pos}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.pos = int(state["pos"])


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """Everything one replay of one stream produced."""

    stream: int
    n: int
    seconds: float
    predictions: np.ndarray
    state_ids: np.ndarray
    # One latency sample per observation (seconds), a mask marking the
    # first observation of each system call (a chunk's observations
    # share its call's sample), and each sample's event class.
    latency: np.ndarray
    call_start: np.ndarray
    events: np.ndarray
    kappa: float = 0.0
    cf1: float = 0.0
    repository_size: int = 0
    restores_attempted: int = 0
    restores_verified: int = 0

    def valid_predictions(self, n_classes: int) -> int:
        p = self.predictions
        return int(np.count_nonzero((p >= 0) & (p < n_classes)))


def _event_classes(
    n: int, cfg: FicsumConfig, selections: np.ndarray
) -> np.ndarray:
    """Event class of each observation index (before call grouping).

    Fingerprint and repository steps follow the configured periods
    once the window is full; ``selections`` marks observations whose
    processing ran at least one model selection.
    """
    step = np.arange(1, n + 1)
    full = step >= cfg.window_size
    cls = np.full(n, PLAIN, dtype=np.int8)
    cls[full & (step % cfg.fingerprint_period == 0)] = FINGERPRINT
    cls[full & (step % cfg.repository_period == 0)] = REPOSITORY
    cls[selections] = SELECTION
    return cls


def _spread_calls(cls: np.ndarray, bounds: List[Tuple[int, int]]) -> np.ndarray:
    """Give every observation of a call the heaviest class in the call."""
    out = np.empty_like(cls)
    for lo, hi in bounds:
        out[lo:hi] = cls[lo:hi].max()
    return out


def _starts(n: int, bounds: List[Tuple[int, int]]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[[lo for lo, _ in bounds]] = True
    return mask


def _finish(
    result: PassResult, inputs: Inputs, system: Any
) -> PassResult:
    cm = ConfusionMatrix(inputs.meta.n_classes)
    valid = (result.predictions >= 0) & (result.predictions < inputs.meta.n_classes)
    cm.update_many(inputs.y[valid], result.predictions[valid])
    result.kappa = cm.kappa
    result.cf1 = co_occurrence_f1(
        inputs.concepts.tolist(), result.state_ids.tolist()
    )
    result.repository_size = len(system.repository)
    return result


def run_per_obs(
    workload: Workload, inputs: Inputs, k: int,
    attach: Optional[Callable[[Any], None]] = None,
) -> PassResult:
    """``Ficsum.process`` one observation at a time."""
    cfg = workload.make_config()
    system = Ficsum(inputs.meta.n_features, inputs.meta.n_classes, cfg)
    if attach is not None:
        attach(system)
    n = len(inputs)
    X, Y = inputs.X, inputs.y.tolist()
    preds = np.empty(n, dtype=np.int64)
    sids = np.empty(n, dtype=np.int64)
    lat = np.empty(n)
    selected = np.zeros(n, dtype=bool)
    clock = time.perf_counter
    process = system.process
    t0 = clock()
    for i in range(n):
        before = system.selection_events
        a = clock()
        preds[i] = process(X[i], Y[i])
        lat[i] = clock() - a
        sids[i] = system.active_state_id
        selected[i] = system.selection_events != before
    seconds = clock() - t0
    events = _event_classes(n, cfg, selected)
    return _finish(
        PassResult(k, n, seconds, preds, sids, lat, np.ones(n, dtype=bool), events),
        inputs, system,
    )


def _chunk_bounds(concepts: np.ndarray, chunk: int) -> List[Tuple[int, int]]:
    """Chunks of at most ``chunk`` rows, never across a concept boundary."""
    bounds = []
    n = len(concepts)
    cuts = np.flatnonzero(np.diff(concepts)) + 1
    starts = [0, *cuts.tolist()]
    ends = [*cuts.tolist(), n]
    for lo, hi in zip(starts, ends):
        for a in range(lo, hi, chunk):
            bounds.append((a, min(a + chunk, hi)))
    return bounds


def run_chunked(
    workload: Workload, inputs: Inputs, k: int,
    attach: Optional[Callable[[Any], None]] = None,
) -> PassResult:
    """``Ficsum.process_chunk`` with oracle signals at concept boundaries."""
    cfg = workload.make_config()
    system = Ficsum(inputs.meta.n_features, inputs.meta.n_classes, cfg)
    if attach is not None:
        attach(system)
    n = len(inputs)
    preds = np.empty(n, dtype=np.int64)
    sids = np.empty(n, dtype=np.int64)
    lat = np.empty(n)
    selected = np.zeros(n, dtype=bool)
    bounds = _chunk_bounds(inputs.concepts, workload.chunk_size)
    X, Y, C = inputs.X, inputs.y, inputs.concepts
    clock = time.perf_counter
    t0 = clock()
    for lo, hi in bounds:
        # The chunk is handed over before the oracle signals the drift
        # its first observation revealed, so the drift's selection is
        # part of the chunk's latency (as in StreamRunner).
        a = clock()
        before = system.selection_events
        if lo and C[lo] != C[lo - 1]:
            system.signal_drift()
        preds[lo:hi] = system.process_chunk(X[lo:hi], Y[lo:hi], state_ids_out=sids[lo:hi])
        lat[lo:hi] = clock() - a
        if system.selection_events != before:
            selected[lo] = True
    seconds = clock() - t0
    events = _spread_calls(_event_classes(n, cfg, selected), bounds)
    return _finish(
        PassResult(k, n, seconds, preds, sids, lat, _starts(n, bounds), events),
        inputs, system,
    )


class _Capture:
    """Records every ``process_chunk`` call a StreamRunner makes.

    Installed on each system instance (the original and every restored
    one), so the harness sees predictions, state ids and latency
    without changing how the runner drives the system.  An
    observation's latency runs from the runner pulling it off the
    stream to the return of the call carrying its prediction: it
    includes buffering and the oracle drift signal, not the checkpoint
    saves between calls (those show in throughput).
    """

    def __init__(self, n: int, stream: ArrayStream) -> None:
        self.stream = stream
        self.preds = np.empty(n, dtype=np.int64)
        self.sids = np.empty(n, dtype=np.int64)
        self.lat = np.empty(n)
        self.selected = np.zeros(n, dtype=bool)
        self.bounds: List[Tuple[int, int]] = []
        self.pos = 0

    def install(self, system: Any) -> None:
        inner = system.process_chunk
        clock = time.perf_counter
        # Selections since the previous call: the runner's oracle drift
        # signal runs one between calls.
        self.selections = system.selection_events

        def process_chunk(X, y, state_ids_out=None):
            out = inner(X, y, state_ids_out)
            b = clock()
            lo, hi = self.pos, self.pos + len(out)
            self.preds[lo:hi] = out
            self.sids[lo:hi] = state_ids_out
            self.lat[lo:hi] = b - self.stream.pulled[lo:hi]
            self.selected[lo] = system.selection_events != self.selections
            self.selections = system.selection_events
            self.bounds.append((lo, hi))
            self.pos = hi
            return out

        system.process_chunk = process_chunk


def run_checkpointed(
    workload: Workload, inputs: Inputs, k: int,
    attach: Optional[Callable[[Any], None]] = None,
    checkpoint_dir: Optional[Path] = None,
    restarts: bool = True,
) -> PassResult:
    """StreamRunner with frequent checkpoints and restore_latest restarts.

    ``restarts=False`` (with no checkpoint directory) is the
    restart-free chunked replay the restarted trace must equal.
    """
    cfg = workload.make_config()
    n = len(inputs)
    stream = ArrayStream(inputs)
    cap = _Capture(n, stream)
    system = Ficsum(inputs.meta.n_features, inputs.meta.n_classes, cfg)
    if attach is not None:
        attach(system)
    cap.install(system)
    if checkpoint_dir is not None:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        checkpoint_dir.mkdir(parents=True)
    runner = StreamRunner(
        system, stream, chunk_size=workload.chunk_size,
        oracle_drift=cfg.oracle_drift,
        checkpoint_path=checkpoint_dir,
        checkpoint_every=workload.checkpoint_every if checkpoint_dir else None,
        keep_checkpoints=2,
    )
    attempted = verified = 0
    clock = time.perf_counter
    t0 = clock()
    while not runner.exhausted:
        limit = runner.n_seen + workload.restart_every if restarts else None
        runner.run(limit)
        if runner.exhausted or not restarts:
            break
        # A restart: drop the live runner and system, resume from disk.
        attempted += 1
        position = runner.n_seen
        runner = StreamRunner.restore_latest(
            checkpoint_dir, stream, checkpoint_path=checkpoint_dir,
            checkpoint_every=workload.checkpoint_every, keep_checkpoints=2,
        )
        system = runner.system
        if attach is not None:
            attach(system)
        cap.install(system)
        if runner.n_seen != position:
            raise SnapshotError(
                f"restored at {runner.n_seen}, expected {position}"
            )
        verified += 1
    seconds = clock() - t0
    if cap.pos != n:
        raise RuntimeError(f"runner processed {cap.pos} of {n} observations")
    events = _spread_calls(_event_classes(n, cfg, cap.selected), cap.bounds)
    result = PassResult(
        k, n, seconds, cap.preds, cap.sids, cap.lat, _starts(n, cap.bounds), events,
        restores_attempted=attempted, restores_verified=verified,
    )
    return _finish(result, inputs, system)


PASS_RUNNERS = {
    "per_obs": run_per_obs,
    "chunked": run_chunked,
    "checkpointed": run_checkpointed,
}
