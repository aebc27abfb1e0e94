"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {street,city,pool} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.
Set-up is repeated three times and its median reported.  Episodes (see
``workloads.py``) are then repeated until ``--seconds`` would be
exceeded, at least twice, and their fingerprints must all agree.

``--trace 0`` reports the end-to-end metrics, with tracing off:
``setup_s`` (a fresh interpreter importing the CLI plus the workload's
input generation), ``run_s`` (median episode wall time) and
``peak_rss_mb`` (this process's peak resident memory).
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics of the traced ones (medians), including the tracing
overhead; the spans go to ``.bench_work/traces/``.

Earlier lines of standard output describe the run for a reader: the
workload-specific figures, the determinism fingerprint and the traffic
mix.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are
those of ``BENCHMARK.json``.  Exit code 0 when a result is printed, 2 when
the benchmark cannot start.
"""

from __future__ import annotations

import os

# One caller, no hidden threads: pin BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
MIN_EPISODES = 2


def _import_program():
    """Import rekpool from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rekpool", "__init__.py")):
        raise ImportError(f"no rekpool package under {SRC}")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import rekpool
    if os.path.dirname(os.path.dirname(os.path.abspath(rekpool.__file__))) != SRC:
        raise ImportError(f"rekpool imported from {rekpool.__file__}, not {SRC}")


def import_seconds():
    """Wall time of a fresh interpreter importing the CLI, as each CLI call pays."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rekpool.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def layer_metrics(t):
    """Per-layer figures from one traced episode's Tracer."""
    calls, cnt = t.calls, t.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("geometry.ray_box_intersect", "geometry.segment_blocked",
                 "propagation.trace_paths", "propagation.path_loss",
                 "features.extract_features", "forest.fit",
                 "forest.permutation_importance", "forest.predict", "pool.ingest",
                 "pool.query", "pool.sort_and_evict", "predict.predict_rekp",
                 "cli.main"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = t.self_s(name)
    for name in ("features.realize", "pipeline.simulate_trajectory",
                 "pipeline.learn_positions", "pipeline.build_pool",
                 "pipeline.loo_evaluate", "predict.context_for"):
        m[name + ".self_s"] = t.self_s(name)
    for module in ("geometry", "propagation", "features", "forest", "spectrum",
                   "pool", "predict", "pipeline", "cli"):
        m[module + ".self_s"] = t.module_self_s(module)
    m["geometry.as_vec3.calls"] = calls["geometry.as_vec3"]
    m["features.realize.rows"] = cnt["features.realize.rows"]
    m["propagation.traces_per_realization"] = ratio(cnt["features.realize.traces"],
                                                    cnt["features.realize.rows"])
    m["features.save_dataset_s"] = t.total_s("features.save_dataset")
    m["features.load_dataset_s"] = t.total_s("features.load_dataset")
    m["features.dataset_bytes"] = cnt["features.dataset_bytes"]
    m["forest.fit.rows"] = cnt["forest.fit.rows"]
    m["forest.predict.rows"] = cnt["forest.predict.rows"]
    m["forest.tree_row_evals"] = cnt["forest.tree_row_evals"]
    for kind in ("fit", "importance"):
        lookups = calls["pipeline.fitcache." + kind]
        hits = cnt[f"pipeline.fitcache.{kind}_hits"]
        m[f"pipeline.fitcache.{kind}_lookups"] = lookups
        m[f"pipeline.fitcache.{kind}_hits"] = hits
        m[f"pipeline.fitcache.{kind}_hit_ratio"] = ratio(hits, lookups)
    m["spectrum.group_weights.calls"] = calls["spectrum.group_weights"]
    for outcome in ("answered", "refined", "transferred", "generated"):
        m["pool.ingest." + outcome] = cnt["pool.ingest." + outcome]
    m["pool.query.hits"] = cnt["pool.query.hits"]
    m["pool.query.hit_ratio"] = ratio(cnt["pool.query.hits"], calls["pool.query"])
    m["pool.evicted"] = cnt["pool.evicted"]
    m["pool.save_pool.s"] = t.total_s("pool.save_pool")
    m["pool.save_pool.bytes"] = cnt["pool.save_pool.bytes"]
    m["pool.load_pool.s"] = t.total_s("pool.load_pool")
    m["predict.fallbacks"] = cnt["predict.fallbacks"]
    m["predict.fallback_ratio"] = ratio(cnt["predict.fallbacks"],
                                        calls["predict.predict_rekp"])
    m["trace.spans"] = len(t.spans)
    return m


def split_problems(workload, m, run_s):
    """The traced split each workload was chosen for; empty when it holds."""
    if workload == "street":
        share = m["forest.self_s"] / run_s
        return [] if share > 0.5 else [f"forest self time is {share:.0%} of run_s"]
    if workload == "city":
        oracle = m["geometry.self_s"] + m["propagation.self_s"] + m["features.self_s"]
        problems = [] if oracle / run_s > 0.5 else [
            f"oracle and features self time is {oracle / run_s:.0%} of run_s"]
        if m["forest.fit.calls"] or m["forest.predict.calls"]:
            problems.append("the forest ran on city")
        return problems
    return [] if m["pool.evicted"] > 0 else ["the pool never evicted"]


def _guarded(episode, inputs, tracer=None):
    """One episode; an exception is reported and counts as a failed operation."""
    try:
        return episode(inputs, tracer)
    except Exception as exc:
        traceback.print_exc()
        from perfbench.workloads import Episode
        return Episode(attempted=1, failed=1, errors=[f"{type(exc).__name__}: {exc}"])


def _median_dict(dicts):
    keys = sorted(set().union(*dicts))
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def run(workload, seed, seconds, trace, size=None, work_root=WORK):
    """Run one workload; returns (result, report) where result is the JSON
    object for the last line and report holds the details for the reader."""
    from perfbench import workloads
    from perfbench.tracer import Tracer, instrument

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    setup, episode, default_size = workloads.WORKLOADS[workload]
    size = size or default_size
    workdir = os.path.join(work_root, f"{workload}-{seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            inputs = setup(seed, size, workdir)
            setups.append(t_import + time.perf_counter() - t0)

        eps, times, traced = [], [], []   # traced: (episode, seconds, tracer)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            eps.append(_guarded(episode, inputs))
            times.append(time.perf_counter() - t0)
            if trace:
                tracer = Tracer()
                with instrument(tracer):
                    t0 = time.perf_counter()
                    ep = _guarded(episode, inputs, tracer)
                    traced.append((ep, time.perf_counter() - t0, tracer))
                eps.append(ep)
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(times)
            if len(eps) >= MIN_EPISODES and elapsed + per_round > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(e.attempted for e in eps)
    failed = sum(e.failed for e in eps)
    problems = sorted({msg for e in eps for msg in e.errors})
    if any(e.fingerprint != eps[0].fingerprint for e in eps):
        problems.append("episodes with the same seed produced different outputs")
    run_s = statistics.median(times)
    report = {"workload": workload, "seed": seed, "episodes": len(eps),
              "setup_runs_s": setups, "episode_s": times,
              "fingerprint": eps[0].fingerprint, "traffic": eps[0].traffic,
              "stats": _median_dict([e.stats for e in eps]),
              "error_rate": failed / attempted if attempted else 1.0}

    if trace:
        layers = [layer_metrics(t) for _, _, t in traced]
        traced_s = [s for _, s, _ in traced]
        for m, s in zip(layers, traced_s):
            m["trace.run_s"] = s
            m["trace.untraced_run_s"] = run_s
            m["trace.overhead_s"] = s - run_s
            problems += split_problems(workload, m, s)
        values = _median_dict(layers)
        names = spec["per_layer"]
        traced[0][2].write_jsonl(os.path.join(work_root, "traces",
                                              f"{workload}-seed{seed}.jsonl"))
    else:
        values = {"setup_s": statistics.median(setups), "run_s": run_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        names = spec["end_to_end"]
    for kind in eps[0].samples:
        pooled = [v for e in eps for v in e.samples[kind]]
        report["stats"].update({f"{kind}_p50_ms": workloads.percentile(pooled, 0.5),
                                f"{kind}_p95_ms": workloads.percentile(pooled, 0.95),
                                f"{kind}_samples": len(pooled)})
    report["problems"] = problems
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in names}}
    return result, report


def print_report(report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"episodes {report['episodes']}  error_rate {report['error_rate']:.4g}")
    for k, v in sorted(report["stats"].items()):
        print(f"  {k:24s} {v:.6g}")
    print("  setup runs (s): " + " ".join(f"{s:.3f}" for s in report["setup_runs_s"]))
    print("  episodes (s):   " + " ".join(f"{s:.3f}" for s in report["episode_s"]))
    print("  traffic: " + json.dumps(report["traffic"], sort_keys=True))
    print("  fingerprint: " + json.dumps(report["fingerprint"], sort_keys=True))
    problems = report["problems"]
    for p in problems[:10]:
        print(f"  FAILED CHECK: {p}")
    if len(problems) > 10:
        print(f"  ... and {len(problems) - 10} more failed checks")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("street", "city", "pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
