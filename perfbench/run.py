#!/usr/bin/env python3
"""FiCSUM end-to-end benchmark: three workloads, one process each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stagger_exact_obs --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced cycle of the same inputs and prints the
per-layer ledger (spans are written to ``.perfbench_out/``).  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs every workload in its own interpreter and prints them
together.

The benchmark is single-threaded: BLAS/OpenMP pools are pinned to one
thread here, before numpy is imported.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CACHE = ROOT / ".perfbench_cache"
#: Fresh interpreters timed per run for ``setup_s``.  The benchmark
#: process has already imported ``repro`` by then, so the bytecode and
#: page caches are warm for every one of them.
SETUP_PROBES = 3
#: Seconds of ``--seconds`` per timed cycle over every stream.
SECONDS_PER_CYCLE = 12.5


def cycle_count(seconds: float) -> int:
    """Timed cycles over every stream: at least two, more for longer runs.

    Set by ``--seconds`` alone, never by how fast the program runs, so
    both sides of a comparison take the faster of as many cycles.
    """
    return max(2, int(seconds // SECONDS_PER_CYCLE))


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_system_under_test() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no repro package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# setup_s: process start -> system ready for its first observation
# ----------------------------------------------------------------------
def setup_probe(workload_name: str) -> None:
    """Child side: import, build the workload's system, say ready."""
    _import_system_under_test()
    from workloads import WORKLOADS, build_ready_system

    build_ready_system(WORKLOADS[workload_name])
    print("ready", flush=True)


def measure_setup(workload_name: str, probes: int) -> float:
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             workload_name],
            stdout=subprocess.PIPE, cwd=str(ROOT),
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            _die(f"setup probe for {workload_name} failed")
        times.append(elapsed)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def digest(result) -> str:
    h = hashlib.sha256()
    h.update(result.predictions.astype("<i8").tobytes())
    h.update(result.state_ids.astype("<i8").tobytes())
    return h.hexdigest()


def code_hash() -> str:
    """Hash of the code that decides a trace: ``repro`` and the drivers."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), HERE / "workloads.py"]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


class DigestBook:
    """Every pass of one stream at one seed must give the same trace.

    Digests persist in ``.perfbench_cache`` so timed and traced runs of
    one commit in separate invocations are held to the first one
    recorded.  The key holds the workload definition (other inputs,
    other traces) and the code hash (a change of behaviour is a new
    trace, not a failed check).
    """

    def __init__(self, workload, seed: int) -> None:
        self.path = CACHE / "digests.json"
        shape = hashlib.sha256(repr(workload).encode()).hexdigest()[:12]
        self.prefix = f"{workload.name}/{shape}/{code_hash()}/{seed}"
        try:
            self.book = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.book = {}
        self.mismatches: list = []

    def check(self, k: int, value: str, what: str) -> None:
        key = f"{self.prefix}/{k}"
        known = self.book.setdefault(key, value)
        if known != value:
            self.mismatches.append(f"{what}: stream {k} digest {value[:12]} != {known[:12]}")

    def save(self) -> None:
        CACHE.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True))
        tmp.replace(self.path)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Loop:
    """Replays the workload's streams, one fresh system per pass."""

    def __init__(self, workload, inputs, digests, checkpoint_dir) -> None:
        from workloads import PASS_RUNNERS

        self.workload = workload
        self.inputs = inputs
        self.digests = digests
        self.checkpoint_dir = checkpoint_dir
        self.run_pass = PASS_RUNNERS[workload.mode]
        self.attempted = 0
        self.ok = 0
        self.errors: list = []

    def one_pass(self, k: int, attach=None, what: str = "timed"):
        inputs = self.inputs[k]
        kwargs = {"attach": attach}
        if self.workload.mode == "checkpointed":
            kwargs["checkpoint_dir"] = self.checkpoint_dir
        self.attempted += len(inputs)
        try:
            result = self.run_pass(self.workload, inputs, k, **kwargs)
        except Exception as exc:  # a failed pass is counted, not fatal
            self.errors.append(f"{what} pass on stream {k}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += result.restores_attempted
        self.ok += result.valid_predictions(inputs.meta.n_classes)
        self.ok += result.restores_verified
        self.digests.check(k, digest(result), what)
        return result

    def cycles(self, count: int, what: str = "timed") -> list:
        """``count`` cycles, each one pass over streams 0, 1, ..., K-1.

        Returns the cycles in which every pass completed.
        """
        done = []
        for _ in range(count):
            passes = [self.one_pass(k, what=what) for k in range(len(self.inputs))]
            if None not in passes:
                done.append(passes)
        return done


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def throughput(passes: list) -> float:
    """Observations per wall second over the given passes."""
    return sum(p.n for p in passes) / sum(p.seconds for p in passes)


def latency_stats(passes: list) -> dict:
    import numpy as np

    from workloads import EVENT_NAMES

    lat = np.concatenate([p.latency for p in passes]) * 1000.0
    events = np.concatenate([p.events for p in passes])
    starts = np.concatenate([p.call_start for p in passes])
    p50, p99 = np.percentile(lat, [50, 99])
    beyond = lat > p99
    stats = {
        "p50": float(p50),
        "p99": float(p99),
        "samples": int(len(lat)),
        "calls": int(starts.sum()),
        "p99_samples_beyond": int(beyond.sum()),
        "p99_calls_beyond": int((beyond & starts).sum()),
    }
    mode = int(np.bincount(events[lat >= p99]).argmax())
    in_mode = starts & (events == mode)
    stats["p99_mode"] = EVENT_NAMES[mode]
    stats["p99_mode_calls_below"] = int((in_mode & (lat < p99)).sum())
    stats["p99_mode_calls_above"] = int((in_mode & (lat >= p99)).sum())
    for code, name in enumerate(EVENT_NAMES):
        stats[f"share_{name}_pct"] = float(100.0 * np.mean(events == code))
    return stats


def percentile_problems(lat: dict) -> list:
    """Why the reported p99 would not be trustworthy, if it is not.

    At least ten calls (not just observations: a chunk's observations
    share one sample) must lie beyond it, and the event class it falls
    in (fingerprint step, repository step, selection) must have at
    least ten calls on each side of it: the p99 then sits inside a
    populated mode, not on the edge of a rare one.
    """
    problems = []
    if lat["p99_calls_beyond"] < 10:
        problems.append(f"only {lat['p99_calls_beyond']} calls beyond p99")
    below, above = lat["p99_mode_calls_below"], lat["p99_mode_calls_above"]
    if min(below, above) < 10:
        problems.append(
            f"p99 sits on the edge of the {lat['p99_mode']} class "
            f"({below} of its calls below, {above} above)"
        )
    return problems


def end_to_end(cycles, loop, setup_s) -> tuple:
    """End-to-end metrics (and latency stats) over the timed cycles.

    Throughput is that of the faster whole cycle: interference on a
    shared host only ever slows a cycle down.  The percentiles pool the
    latency samples of every pass of every cycle.  Kappa and C-F1 are
    the same in every cycle (the digest check holds them to it).
    """
    lat = latency_stats([p for passes in cycles for p in passes])
    kappa = statistics.mean(p.kappa for p in cycles[0])
    cf1 = statistics.mean(p.cf1 for p in cycles[0])
    return {
        "throughput_obs_s": (max(throughput(passes) for passes in cycles), "obs/s"),
        "latency_p50_ms": (lat["p50"], "ms"),
        "latency_p99_ms": (lat["p99"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "kappa": (kappa, "unitless"),
        "cf1": (cf1, "unitless"),
        "ok_ratio": (loop.ok / loop.attempted, "fraction"),
    }, lat


def per_layer(tracer, inst, collectors, traced, untraced, lat, gen_ms_per_kobs) -> dict:
    from tracer import COMPONENT_PREFIX, LAYERS, component_names

    ledger = tracer.ledger()
    n_obs = sum(p.n for p in traced)
    wall_ns = sum(p.seconds for p in traced) * 1e9
    kobs = n_obs / 1000.0
    out: dict = {}

    def entry(name):
        return ledger.get(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "failures": 0})

    covered = 0.0
    for layer in LAYERS:
        e = entry(layer)
        covered += e["self_ns"]
        out[f"{layer}.calls"] = (e["calls"], "count")
        out[f"{layer}.self_ms_per_kobs"] = (e["self_ns"] / 1e6 / kobs, "ms/kobs")
        out[f"{layer}.share_pct"] = (100.0 * e["self_ns"] / wall_ns, "%")
    for comp in component_names():
        e = entry(COMPONENT_PREFIX + comp)
        covered += e["self_ns"]
        out[f"{COMPONENT_PREFIX}{comp}.calls"] = (e["calls"], "count")
        out[f"{COMPONENT_PREFIX}{comp}.self_ms_per_kobs"] = (e["self_ns"] / 1e6 / kobs, "ms/kobs")
    out["unattributed.share_pct"] = (100.0 * (wall_ns - covered) / wall_ns, "%")

    counters: dict = {}
    for c in collectors:
        for key, value in c.counters.items():
            counters[key] = counters.get(key, 0) + value
    selections = counters.get("selection.events", 0)
    created = counters.get("concept.created", 0)
    out["core.selection.events"] = (selections, "count")
    out["core.selection.reuse_ratio"] = (
        (selections - created) / selections if selections else 0.0, "ratio")
    out["core.repository.size"] = (
        statistics.mean(p.repository_size for p in traced), "count")
    out["detectors.adwin.drifts"] = (inst.adwin_drifts, "count")
    for layer in ("serving.save", "serving.restore"):
        e = entry(layer)
        out[f"{layer}.ms_per_call"] = (e["total_ns"] / 1e6 / e["calls"] if e["calls"] else 0.0, "ms")
        out[f"{layer}.failures"] = (e["failures"], "count")
    out["serving.snapshot_kb"] = (
        statistics.mean(inst.snapshot_bytes) / 1024.0 if inst.snapshot_bytes else 0.0, "KB")
    out["streams.generate.ms_per_kobs"] = (gen_ms_per_kobs, "ms/kobs")
    t_untraced = throughput(untraced)
    t_traced = throughput(traced)
    out["trace_overhead_pct"] = (100.0 * (t_untraced - t_traced) / t_untraced, "%")
    out["trace.spans"] = (len(tracer), "count")
    for key in ("samples", "calls", "p99_samples_beyond", "p99_calls_beyond"):
        out[f"latency.{key}"] = (lat[key], "count")
    for name in ("fingerprint", "repository", "selection"):
        out[f"latency.share_{name}_pct"] = (lat[f"share_{name}_pct"], "%")
    return out


# ----------------------------------------------------------------------
def run(args) -> int:
    _import_system_under_test()
    from tracer import Tracer, TracingCollector, instrument
    from workloads import WORKLOADS, generate, smoke_variant

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_variant(workload)

    t0 = time.perf_counter()
    inputs = generate(workload, args.seed)
    n_gen = sum(len(i) for i in inputs)
    gen_ms_per_kobs = (time.perf_counter() - t0) * 1000.0 / (n_gen / 1000.0)

    setup_s = measure_setup(args.workload, 1 if args.smoke else SETUP_PROBES)

    checkpoint_dir = OUT / f"ckpt-{os.getpid()}"
    digests = DigestBook(workload, args.seed)
    loop = Loop(workload, inputs, digests, checkpoint_dir)
    checks: list = []
    metrics: dict = {}
    lat: dict = {}
    try:
        # Outside the timed loop: the restart-free chunked replay that
        # every restarted pass of stream 0 must equal.
        if workload.mode == "checkpointed":
            from workloads import run_checkpointed

            ref = run_checkpointed(workload, inputs[0], 0, restarts=False)
            digests.check(0, digest(ref), "restart-free replay")

        if not args.trace:
            count = cycle_count(args.seconds)
            cycles = loop.cycles(count)
            if len(cycles) == count:
                metrics, lat = end_to_end(cycles, loop, setup_s)
        else:
            untraced = loop.cycles(1, what="untraced")
            untraced = untraced[0] if untraced else []
            if untraced:
                lat = latency_stats(untraced)
            tracer = Tracer()
            inst = instrument(tracer)
            collectors: list = []

            def attach(system):
                collector = TracingCollector(tracer)
                collectors.append(collector)
                system.attach_observability(metrics=collector)

            traced = []
            for k in range(len(inputs)):
                tracer.run_id = k
                result = loop.one_pass(k, attach=attach, what="traced")
                if result is not None:
                    traced.append(result)
            inst.remove()
            if len(traced) == len(inputs) == len(untraced):
                metrics = per_layer(tracer, inst, collectors, traced, untraced,
                                    lat, gen_ms_per_kobs)
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(OUT / f"trace-{stem}.npz")
            from tracer import COMPONENT_MOVES, LAYERS

            (OUT / f"ledger-{stem}.json").write_text(json.dumps({
                "layers": LAYERS,
                "component_moves": COMPONENT_MOVES,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }, indent=1))
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        digests.save()

    checks.extend(loop.errors)
    checks.extend(digests.mismatches)
    if not metrics:
        checks.append("no metrics: a pass failed")
    elif not args.smoke:  # a smoke run has too few samples for a p99
        checks.extend(percentile_problems(lat))
    failed = loop.attempted - loop.ok
    for line in checks:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    if lat:
        print(f"# latency samples={lat['samples']} calls={lat['calls']} "
              f"beyond_p99={lat['p99_samples_beyond']} ({lat['p99_calls_beyond']} calls) "
              f"p99_mode={lat['p99_mode']} ({lat['p99_mode_calls_below']} calls below, "
              f"{lat['p99_mode_calls_above']} above) "
              f"event shares: " + " ".join(
                  f"{n}={lat[f'share_{n}_pct']:.1f}%"
                  for n in ("fingerprint", "repository", "selection")))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not checks and bool(metrics),
        "attempted": int(loop.attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined summary."""
    combined: dict = {}
    correct = True
    attempted = failed = 0
    _import_system_under_test()
    from workloads import WORKLOADS

    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _die(f"workload {name} exited with {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            combined[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name (see BENCHMARK.json), or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one setup probe (the benchmark's own tests)")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
