"""Run the benchmark: ``python3 -m bench.run [--workload NAME] ...``.

With ``--workload`` this process runs that one workload and prints, as
its last line, the JSON object ``BENCHMARK.json``'s contract asks for.
Without it, every workload is run in its own subprocess, untraced and
traced, and the two tables are printed together.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` alternates such repeats with repeats under the bench-owned
wrappers of :mod:`bench.tracing`: the traced ones give the per-layer
table, the others the baseline of ``obs.trace_overhead_frac``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.serve import clear_servers  # noqa: E402
from repro.storage import clear_simulated_buckets  # noqa: E402
from repro.util.ids import seed_ids  # noqa: E402

from bench import tracing, workloads  # noqa: E402
from bench.tracing import pick  # noqa: E402

OUT_DIR = os.path.join(ROOT, "bench", "out")

#: per-layer metric -> (``repro.obs.snapshot()`` name, label filter): where
#: a count is read when the public stats attribute it comes from is gone
OBS_FALLBACK = {
    "storage.get_requests": ("storage.get_requests", "SimulatedObjectStore"),
    "storage.put_requests": ("storage.put_requests", "SimulatedObjectStore"),
    "storage.bytes_read": ("storage.bytes_read", "SimulatedObjectStore"),
    "storage.bytes_written": ("storage.bytes_written", "SimulatedObjectStore"),
    "storage.retries": ("objectstore.retries", ""),
    "lru_cache.hits": ("cache.hits", ""),
    "lru_cache.misses": ("cache.misses", ""),
    "lru_cache.evictions": ("cache.evictions", ""),
    "chunk_engine.chunks_flushed": ("chunk_engine.chunks_flushed", ""),
    "chunk_engine.chunk_cache_hits": ("chunk_engine.decoded_cache_hits", ""),
    "chunk_engine.chunk_cache_misses":
        ("chunk_engine.decoded_cache_misses", ""),
    "tql.rows_scanned": ("tql.rows_scanned", ""),
    "tql.cells_fetched": ("tql.cells_fetched", ""),
    "tql.chunks_skipped": ("tql.chunks_skipped", ""),
    "serve.prefetch_issued": ("serve.prefetch_issued", ""),
    "serve.prefetch_hits": ("serve.prefetch_hits", ""),
    "serve.prefetch_wasted": ("serve.prefetch_wasted", ""),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def header(seed: int, sizes: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit, "seed": seed,
        "sizes": sizes, "setup_repeats": workloads.SETUP_REPEATS,
        "workers": workloads.WORKERS,
    }


def _obs_totals() -> dict:
    """Sum of every numeric series of each registry metric, by name and
    by (name, label filter) for the filters :data:`OBS_FALLBACK` uses."""
    snap = repro.obs.snapshot()
    totals = {}
    for _metric, (name, label) in OBS_FALLBACK.items():
        series = snap.get(name, {})
        totals[(name, label)] = sum(
            v for labels, v in series.items()
            if isinstance(v, (int, float)) and label in labels
        )
    return totals


def repeats(w, budget_s: float, least: int, rec=None) -> list:
    """Timed repeats of ``w.unit`` until the next would overrun the time.

    With a recorder, untraced and traced repeats alternate, so that the
    machine's drift falls on both sides of ``obs.trace_overhead_frac``.
    """
    units, walls = [], []
    start = perf_counter()
    modes = (False, True) if rec is not None else (False,)
    while len(units) < least * len(modes) or (
        perf_counter() - start + statistics.median(walls) <= budget_s
    ):
        rep = len(units)
        traced = modes[rep % len(modes)]
        w.rec = rec if traced else None
        gc.collect()
        t0 = perf_counter()
        if traced:
            before = _obs_totals()
            with tracing.installed(rec, w.codecs):
                unit = w.unit(rep)
            after = _obs_totals()
            unit["obs"] = {k: after[k] - before[k] for k in after}
        else:
            unit = w.unit(rep)
        walls.append(perf_counter() - t0)
        unit.update(rep=rep, traced=traced)
        units.append(unit)
    return units


def layer_metrics(unit: dict, table: dict) -> dict:
    """One traced repeat's per-layer numbers: public counters read by the
    workload, plus span sums.  None marks a source that no longer exists."""
    m = dict(unit["counts"])
    for metric, key in OBS_FALLBACK.items():
        if metric in m and m[metric] is None:
            m[metric] = unit["obs"].get(key)
    # flushed chunks have no public attribute: the registry is the source
    m["chunk_engine.chunks_flushed"] = unit["obs"].get(
        OBS_FALLBACK["chunk_engine.chunks_flushed"])

    def spans(layer, name, field="self_s"):
        return pick(table, layer, [name], field)

    items = unit["items"]
    plans = spans("chunk_engine", "plan_reads", "calls")
    handle_s = spans("serve", "handle", "total_s")
    m.update({
        "storage.busy_s": pick(table, "storage", field="total_s"),
        "lru_cache.self_s": pick(table, "lru_cache"),
        "chunk_engine.plan_s": spans("chunk_engine", "plan_reads"),
        "chunk_engine.execute_self_s": spans("chunk_engine", "execute"),
        "chunk_engine.plans": plans,
        "chunk_engine.rows_per_plan":
            spans("chunk_engine", "plan_reads", "n") / plans if plans else 0.0,
        "chunk_engine.stage_s": spans("chunk_engine", "stage_appends"),
        "chunk_engine.commit_s": spans("chunk_engine", "commit_appends"),
        "chunk_engine.flush_s": spans("chunk_engine", "flush"),
        "chunk_engine.extend_self_s": spans("chunk_engine", "extend"),
        "compression.decode_s": spans("compression", "decode"),
        "compression.decode_calls": spans("compression", "decode", "calls"),
        "compression.decode_bytes_out": spans("compression", "decode", "n"),
        "compression.encode_s": spans("compression", "encode"),
        "compression.encode_calls": spans("compression", "encode", "calls"),
        "compression.encode_bytes_in": spans("compression", "encode", "n"),
        "dataloader.collate_s": spans("dataloader", "collate"),
        "dataloader.read_rows_calls":
            spans("chunk_engine", "read_rows", "calls"),
        "dataloader.read_rows_busy_s":
            spans("chunk_engine", "read_rows", "total_s"),
        "tql.parse_s": spans("tql", "parse"),
        "tql.plan_s": spans("tql", "plan"),
        "tql.execute_s": spans("tql", "execute"),
        "serve.handle_busy_s": handle_s,
        "serve.queue_and_wire_s":
            max(m.get("serve.client_latency_s", 0.0) - handle_s, 0.0),
        # a commit's cost is the flush and round trips it causes: inclusive
        "version_control.commit_s":
            spans("version_control", "commit", "total_s"),
        "obs.span_count": sum(row["calls"] for row in table.values()),
    })
    if m.get("storage.round_trips") is not None:
        m["storage.round_trips_per_1k_items"] = (
            1000.0 * m["storage.round_trips"] / items)
    root_self = spans("root", "unit")
    m["obs.unattributed_s"] = max(root_self - unit["wait_s"], 0.0)
    m["obs.attributed_frac"] = 1.0 - m["obs.unattributed_s"] / unit["seconds"]
    return m


def _median(values):
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, corrupt: str = None) -> dict:
    """Set up, measure and verify one workload in this process."""
    spec = load_spec()
    sizes = (workloads.SMOKE_SIZES if smoke else workloads.SIZES)[name]
    seed_ids(seed)
    clear_simulated_buckets()
    clear_servers()
    w = workloads.WORKLOADS[name](seed, sizes, corrupt)
    least = 1 if smoke else workloads.MIN_REPEATS

    setup_samples = []
    for _ in range(workloads.SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        w.setup()
        setup_samples.append(perf_counter() - t0)

    rec = tracing.Recorder() if trace else None
    try:
        w.open(None)
        if trace:
            with tracing.installed(rec, w.codecs):
                w.open(rec)
        every = repeats(w, seconds, least, rec)
        base = [u for u in every if not u["traced"]]
        units = [u for u in every if u["traced"]] if trace else base
        extras = {}
        if trace:
            with tracing.installed(rec, w.codecs):
                extras = w.extras()
    finally:
        w.close()

    samples = {
        "items_per_s": [u["items"] / u["seconds"] for u in units],
        "cpu_s_per_1k_items":
            [1000.0 * u["cpu_s"] / u["items"] for u in units],
        "first_result_ms": [1000.0 * u["first_result_s"] for u in units],
        "setup_s": setup_samples,
    }
    values = {key: _median(vals) for key, vals in samples.items()}
    values["stored_bytes_per_user_byte"] = w.stored_bytes / w.user_bytes
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    missing = []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.dump(os.path.join(OUT_DIR, f"{name}.spans.jsonl"))
        per_unit = [layer_metrics(u, rec.table(u["rep"])) for u in units]
        for key in per_unit[0]:
            samples[key] = [m[key] for m in per_unit]
            if None in samples[key]:
                missing.append(key)  # its source was renamed away
            else:
                values[key] = _median(samples[key])
        values.update(extras)
        base_s = _median([u["seconds"] for u in base])
        values["obs.trace_overhead_frac"] = (
            _median([u["seconds"] for u in units]) / base_s - 1.0)

    # a layer the workload never enters did no work: zero, not absent
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0),
                         "unit": metric["unit"]}
        for metric in spec["per_layer" if trace else "end_to_end"]
    }

    attempted = sum(u["attempted"] for u in every)
    failed = sum(u["failed"] for u in every)
    return {
        "workload": name, "item": w.item, "trace": int(trace),
        "header": header(seed, sizes), "repeats": len(units),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ops_frac": failed / attempted,
        "metrics": metrics, "samples": samples,
        "undeclared": {k: v for k, v in values.items()
                       if k not in metrics and v is not None},
        "missing_layer_metrics": missing,
    }


def print_result(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"== {result['workload']}: {kind}, seed {result['header']['seed']}, "
          f"{result['repeats']} repeats, items = {result['item']}, "
          f"failed {result['failed']}/{result['attempted']} ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    for name in result["missing_layer_metrics"]:
        print(f"  {name:<42} {'null':>16} (source missing)", file=sys.stderr)


def run_all(args) -> int:
    """Every workload, each in its own subprocess, untraced then traced."""
    spec = load_spec()
    runs = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for workload in spec["workloads"]:
            for trace in (0, 1):
                out = os.path.join(tmp, "run.json")
                command = [
                    sys.executable, "-m", "bench.run",
                    "--workload", workload["name"], "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", out,
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, cwd=ROOT,
                                      stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    return done.returncode
                with open(out) as f:
                    runs.extend(json.load(f))
    for result in runs:
        print_result(result)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat: a check of the code "
                             "paths, not a measurement")
    parser.add_argument("--out", help="also write the full result(s) here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke)
    print_result(result)
    if args.out:
        with open(args.out, "w") as f:
            json.dump([result], f, indent=1)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
