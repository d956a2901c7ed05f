"""Model-selection throughput vs repository size: loop vs vectorized.

The selection phase of Algorithm 1 — scoring the active window against
every stored concept with weighted cosine similarity, re-expressing
each concept's stationary record under the current weighting, and
refreshing the dynamic weights — used to run as O(R) Python loops over
tiny numpy vectors, so its cost grew with the repository and dominated
once tens of concepts were stored.  This bench pins the vectorized
engine (contiguous ``FingerprintMatrix`` store, one-scale/one-kernel
candidate scoring, batched record re-expression, matrix-view weights):

* sweeps repository size R in {5, 10, 20, 40},
* per R, times selection events (weight refresh + gate/argmax over the
  stacked candidate fingerprints) on production and on the reference
  oracle (:class:`reference.ReferenceFicsum`: per-state weights,
  sequential scoring loop, unmemoised record re-expression) on
  identically populated twin systems, asserting both pick the same
  state and produce identical weights,
* separately times production's candidate fingerprint stacking —
  reported for context,
* runs a multi-concept recurring stream end to end on production and
  on the oracle and asserts identical predictions, drift points and
  state-id traces.

Asserts the R=40 selection phase clears 3x over the loop path and
emits ``BENCH_selection_throughput.json`` (per-R ``speedup_selection``
ratios plus repository-size metadata for like-for-like regression
comparisons).
"""

from __future__ import annotations

import time

import numpy as np
from _harness import SCALE, render_table, save_bench_json, save_table
from reference import ReferenceFicsum

from repro.core import Ficsum, FicsumConfig
from repro.core.variants import make_ficsum
from repro.evaluation.prequential import prequential_run
from repro.streams.datasets import make_dataset

R_SWEEP = (5, 10, 20, 40)
#: Timed selection events per repository size (scaled for CI).
N_EVENTS = max(5, int(round(30 * min(SCALE, 1.0))))
W = 75
N_FEATURES = 8
#: Cheap component set: selection-phase cost is interpreter round
#: trips, not kernel arithmetic, so heavyweight extractors would only
#: dilute what this bench isolates.
METAFEATURES = ["mean", "std", "skew"]

ROLLING = [
    "mean",
    "std",
    "skew",
    "kurtosis",
    "autocorrelation",
    "partial_autocorrelation",
    "turning_point_rate",
]


def _concept_window(rng: np.ndarray, shift: np.ndarray, n: int):
    X = rng.normal(loc=shift, scale=1.0, size=(n, N_FEATURES))
    y = (X[:, 0] > shift[0]).astype(np.int64)
    return X, y


def build_system(R: int, reference: bool) -> Ficsum:
    """A FiCSUM instance whose repository holds R trained concepts.

    States are populated deterministically (same data for both modes):
    trained classifiers, >= 4 incorporated fingerprints, similarity
    records with retained pairs, error records, a full active window
    and a warmed normaliser.  ``reference`` builds the loop oracle
    instead of production.
    """
    cfg = FicsumConfig(
        window_size=W,
        fingerprint_period=50,
        repository_period=1000,
        oracle_drift=True,
        metafeatures=METAFEATURES,
        max_repository_size=R + 1,
        seed=1,
    )
    system = (ReferenceFicsum if reference else Ficsum)(N_FEATURES, 2, cfg)
    rng = np.random.default_rng(7)
    shifts = rng.normal(scale=2.0, size=(R, N_FEATURES))
    states = [system._active]
    for r in range(1, R):
        states.append(
            system.repository.new_state(
                system.n_dims,
                system._new_classifier(),
                step=r,
                sim_record_samples=cfg.sim_record_samples,
                sim_record_decay=cfg.sim_record_decay,
            )
        )
    for r, state in enumerate(states):
        X, y = _concept_window(rng, shifts[r], 6 * W)
        state.classifier.predict_learn_batch(X, y)
        for k in range(4):
            Xw, yw = _concept_window(rng, shifts[r], W)
            preds = state.classifier.predict_batch(Xw)
            fp = system.pipeline.extract(Xw, yw, preds, state.classifier)
            system.normalizer.update(fp)
            state.fingerprint.incorporate(fp)
            if k:
                sim = system._sim(state.fingerprint.means, fp)
                state.record_similarity(state.fingerprint.means, fp, sim)
            if system._error_dim >= 0:
                state.error_stats.update(float(fp[system._error_dim]))
        Xo, yo = _concept_window(rng, shifts[(r + 1) % R], W)
        preds = state.classifier.predict_batch(Xo)
        fp = system.pipeline.extract(Xo, yo, preds, state.classifier)
        system.normalizer.update(fp)
        state.nonactive.incorporate(fp)
        state.nonactive.incorporate(fp * 1.01)
    # Active window drawn from the active concept.
    Xw, yw = _concept_window(rng, shifts[0], W)
    preds = system._active.classifier.predict_batch(Xw)
    system.window.extend(Xw, yw, preds)
    system._step = 10_000
    system._refresh_weights()
    return system


def _selection_event(system: Ficsum, candidates, fps):
    """One selection event: weight refresh + gates/argmax on the stack.

    The step bump gives each event fresh memo/extraction keys, exactly
    as real drift-time selections see them.
    """
    system._step += 1
    system._refresh_weights()
    return system._select_from_fingerprints(candidates, fps)


def bench_repository_size(R: int) -> dict:
    systems = {
        "reference": build_system(R, reference=True),
        "vectorized": build_system(R, reference=False),
    }
    prepared = {}
    for mode, system in systems.items():
        xa, ya, _ = system.window.arrays()
        candidates = system._candidate_states()
        assert len(candidates) == R, (mode, len(candidates), R)
        start = time.perf_counter()
        fps = system._stack_window_fingerprints(xa, ya, candidates)
        stack_s = time.perf_counter() - start
        # Warm-up: folds the window fingerprints into the normaliser so
        # both modes score against identical, stable ranges.
        _selection_event(system, candidates, fps)
        prepared[mode] = (system, candidates, fps, stack_s)

    # Both modes must make the same decision from the same inputs.
    picks = {}
    for mode, (system, candidates, fps, _) in prepared.items():
        picks[mode] = _selection_event(system, candidates, fps)
    ref_pick, vec_pick = picks["reference"], picks["vectorized"]
    assert (ref_pick is None) == (vec_pick is None), R
    if ref_pick is not None:
        assert ref_pick.state_id == vec_pick.state_id, R
    assert np.array_equal(
        prepared["reference"][0]._weights, prepared["vectorized"][0]._weights
    ), R

    timings = {}
    for mode, (system, candidates, fps, stack_s) in prepared.items():
        start = time.perf_counter()
        for _ in range(N_EVENTS):
            _selection_event(system, candidates, fps)
        timings[mode] = (time.perf_counter() - start) / N_EVENTS
    return {
        "reference_ms_per_event": round(1e3 * timings["reference"], 4),
        "vectorized_ms_per_event": round(1e3 * timings["vectorized"], 4),
        "stacking_ms_per_event": round(
            1e3 * prepared["vectorized"][3], 4
        ),
        "speedup_selection": round(
            timings["reference"] / timings["vectorized"], 2
        ),
    }


def run_stream_equivalence() -> dict:
    """Full recurring-stream runs, production vs reference: same run."""
    out = {}
    for reference in (False, True):
        cfg = FicsumConfig(
            window_size=40,
            fingerprint_period=4,
            repository_period=20,
            grace_period=30,
            drift_warmup_windows=1.0,
            oracle_drift=True,
            metafeatures=ROLLING,
            track_discrimination=True,
        )
        stream = make_dataset(
            "RBF",
            seed=5,
            segment_length=max(90, int(150 * min(SCALE, 1.0))),
            n_repeats=2,
        )
        build = ReferenceFicsum if reference else make_ficsum
        system = build(stream.meta.n_features, stream.meta.n_classes, cfg)
        start = time.perf_counter()
        result = prequential_run(system, stream, oracle_drift=True)
        wall = time.perf_counter() - start
        out[reference] = (result, system, wall)
    (r_on, s_on, wall_on), (r_off, s_off, _) = out[False], out[True]
    assert r_on.accuracy == r_off.accuracy
    assert r_on.state_ids == r_off.state_ids
    assert s_on.drift_points == s_off.drift_points
    assert s_on.discrimination_samples == s_off.discrimination_samples
    return {
        "wall_time_s": round(wall_on, 4),
        "observations": r_on.n_observations,
        "obs_per_sec": round(r_on.n_observations / wall_on, 1),
        "n_drifts": r_on.n_drifts,
        "repository_states": len(s_on.repository),
        "selection_events": s_on.selection_events,
    }


def run_sweep() -> dict:
    sweep = {f"r{R}": bench_repository_size(R) for R in R_SWEEP}
    stream = run_stream_equivalence()
    return {"selection": sweep, "stream": stream}


def build_table(results: dict) -> str:
    rows = []
    for R in R_SWEEP:
        m = results["selection"][f"r{R}"]
        rows.append(
            [
                str(R),
                f"{m['reference_ms_per_event']:.3f}",
                f"{m['vectorized_ms_per_event']:.3f}",
                f"{m['stacking_ms_per_event']:.3f}",
                f"{m['speedup_selection']:.2f}x",
            ]
        )
    return render_table(
        f"Selection-phase throughput vs repository size "
        f"({N_EVENTS} events per cell)",
        ["R", "reference ms/event", "vectorized ms/event", "stack ms", "speedup"],
        rows,
        notes=(
            "Selection phase = dynamic-weight refresh + candidate "
            "gates/argmax over stacked window fingerprints; production's "
            "candidate fingerprint stack is timed separately.  Both "
            "modes select the same state with identical weights; full "
            "stream runs are asserted identical observation for "
            "observation."
        ),
    )


def test_selection_throughput(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_table("selection_throughput.txt", build_table(results))
    stream = results["stream"]
    headline = results["selection"]["r40"]["speedup_selection"]
    save_bench_json(
        "selection_throughput",
        extra={
            "wall_time_s": stream["wall_time_s"],
            "observations_executed": stream["observations"],
            "observations_per_sec": stream["obs_per_sec"],
            "speedup_selection_r40": headline,
            "selection": results["selection"],
            "stream": stream,
        },
        repo_states=max(R_SWEEP),
        selection_events=len(R_SWEEP) * N_EVENTS,
    )
    # >= 3x selection-phase speedup at a 40-state repository over the
    # reference per-state loop.
    assert headline >= 3.0, results["selection"]
