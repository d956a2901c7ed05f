"""Candidate-stacking throughput vs repository size: loop vs forest.

After PR 4 made candidate *scoring* one matmul, a selection event was
dominated by the remaining per-state fan-out in
``Ficsum._stack_window_fingerprints``: one ``predict_batch`` tree
descent plus one dependent-dimension extraction per stored concept
(``stacking_ms_per_event`` in ``BENCH_selection_throughput.json``).
This bench pins the forest-routing engine that removes it — the
:class:`~repro.classifiers.bank.ClassifierBank` routes the active
window through all ``R`` Hoeffding trees in one mask descent + one
batched naive-Bayes kernel, and
:meth:`FingerprintPipeline.extract_partial_many` computes every
candidate's classifier-dependent dimensions over the ``(R, W)``
prediction block at once:

* sweeps repository size R in {5, 10, 20, 40},
* per R, times the full stacking phase (bank route + shared extract +
  block extraction vs the reference oracle's per-state
  ``predict_batch`` + per-state batch extraction) on identically
  populated twin systems, asserting the two paths produce
  **bit-for-bit identical** ``(R, D)`` stacks,
* runs a multi-concept recurring stream end to end on production and
  on :class:`reference.ReferenceFicsum` and asserts identical
  predictions, drift points and state-id traces.

Asserts the R=40 stacking phase clears 2x over the per-state loop and
emits ``BENCH_forest_routing.json`` (per-R ``speedup_stacking`` ratios
plus repository-size metadata for like-for-like regression checks).
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
#: Timed stacking events per repository size (scaled for CI).
N_EVENTS = max(5, int(round(30 * min(SCALE, 1.0))))
W = 75
N_FEATURES = 8
#: The rolling-capable subset: every component has a vectorised row
#: kernel, so the bench isolates the per-candidate fan-out (tree
#: descents + interpreter round trips) the forest path removes rather
#: than Python-loop components that cost the same on both paths.
METAFEATURES = [
    "mean",
    "std",
    "skew",
    "kurtosis",
    "autocorrelation",
    "partial_autocorrelation",
    "turning_point_rate",
]


def _concept_window(rng: np.random.Generator, shift: np.ndarray, n: int):
    X = rng.normal(loc=shift, scale=1.0, size=(n, N_FEATURES))
    y = (X[:, 0] > shift[0]).astype(np.int64)
    return X, y


def build_system(R: int, reference: bool) -> Ficsum:
    """A FiCSUM instance whose repository holds R trained concepts.

    Same deterministic population as the selection bench: trained tree
    classifiers (so routing has real structure to descend), >= 4
    incorporated fingerprints, similarity and error records, a full
    active window and a warmed normaliser.  ``reference`` builds the
    per-state-loop oracle instead of production.
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
    # Active window drawn from the active concept.
    Xw, yw = _concept_window(rng, shifts[0], W)
    preds = system._active.classifier.predict_batch(Xw)
    system.window.extend(Xw, yw, preds)
    system._step = 10_000
    system._refresh_weights()
    return system


def _stack_event(system: Ficsum, candidates):
    """One stacking phase on a fresh window identity.

    The step bump invalidates the shared-extraction key, so every event
    pays exactly what a real selection pays (one shared pass plus one
    dependent-dims block, or one full extraction per candidate).
    """
    system._step += 1
    xa, ya, _ = system.window.arrays()
    return system._stack_window_fingerprints(xa, ya, candidates)


def bench_repository_size(R: int) -> dict:
    systems = {
        "loop": build_system(R, reference=True),
        "forest": build_system(R, reference=False),
    }
    stacks = {}
    for mode, system in systems.items():
        candidates = system._candidate_states()
        assert len(candidates) == R, (mode, len(candidates), R)
        stacks[mode] = _stack_event(system, candidates)  # warm-up
    # Both modes must stack bit-for-bit identical fingerprints.
    assert np.array_equal(stacks["loop"], stacks["forest"]), R

    timings = {}
    for mode, system in systems.items():
        candidates = system._candidate_states()
        start = time.perf_counter()
        for _ in range(N_EVENTS):
            _stack_event(system, candidates)
        timings[mode] = (time.perf_counter() - start) / N_EVENTS
    return {
        "loop_ms_per_event": round(1e3 * timings["loop"], 4),
        "forest_ms_per_event": round(1e3 * timings["forest"], 4),
        "speedup_stacking": round(timings["loop"] / timings["forest"], 2),
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
            metafeatures=METAFEATURES,
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
    return {"stacking": sweep, "stream": stream}


def build_table(results: dict) -> str:
    rows = []
    for R in R_SWEEP:
        m = results["stacking"][f"r{R}"]
        rows.append(
            [
                str(R),
                f"{m['loop_ms_per_event']:.3f}",
                f"{m['forest_ms_per_event']:.3f}",
                f"{m['speedup_stacking']:.2f}x",
            ]
        )
    return render_table(
        f"Candidate-stacking throughput vs repository size "
        f"({N_EVENTS} events per cell)",
        ["R", "loop ms/event", "forest ms/event", "speedup"],
        rows,
        notes=(
            "Stacking phase = re-labelling the active window under "
            "every stored concept's classifier and fingerprinting it: "
            "the reference oracle's per-state predict_batch + batch "
            "extraction (loop) vs one ClassifierBank mask descent + one "
            "shared pass + one extract_partial_many block (forest).  "
            "Both paths produce bit-identical "
            "stacks; full stream runs are asserted identical "
            "observation for observation."
        ),
    )


def test_forest_routing_throughput(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_table("forest_routing.txt", build_table(results))
    stream = results["stream"]
    headline = results["stacking"]["r40"]["speedup_stacking"]
    save_bench_json(
        "forest_routing",
        extra={
            "wall_time_s": stream["wall_time_s"],
            "observations_executed": stream["observations"],
            "observations_per_sec": stream["obs_per_sec"],
            "speedup_stacking_r40": headline,
            "stacking": results["stacking"],
            "stream": stream,
        },
        repo_states=max(R_SWEEP),
        selection_events=len(R_SWEEP) * N_EVENTS,
    )
    # >= 2x stacking-phase speedup at a 40-state repository over the
    # reference per-state loop.
    assert headline >= 2.0, results["stacking"]
