"""Benchmark of hirota-trace: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload field-export --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
each cycle twice in a row for ``--seconds``, untraced and then with every
call into the package recorded as a span, and reports the per-layer metrics
plus the tracing overhead between the two runs of the same cycles.  One
further cycle, untimed, measures the allocation peak of the evaluations.  The
last line of standard output is the result object; the line before it is
the run's metadata.  ``--workload all`` runs each workload in its own
process and prints every metric by name with its unit.  Every timing is
rescaled to a reference machine speed (``calibration.py``); the metadata
repeats the timing metrics from wall times.

Run from the root of a checkout: the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
#: set-up runs at least SETUP_MIN_ROUNDS times, and more (up to
#: SETUP_MAX_ROUNDS) until SETUP_MIN_S have been spent, so that the median
#: of a sub-second set-up rests on many rounds
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 25
SETUP_MIN_S = 1.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> dict[str, str]:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var)
        if current is None or not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timings(records, setup_times: list[float],
            tail_beyond: int, attr: str) -> dict:
    """Throughputs, latency quantiles and set-up time from the records'
    ``attr`` times.  The throughputs count every operation of a kind at
    that kind's median time, so a slow stretch within the run moves them
    no more than it moves the medians."""
    lats = sorted(getattr(r, attr) for r in records)
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r)
    busy = sum(len(rs) * statistics.median(getattr(r, attr) for r in rs)
               for rs in kinds.values())
    passed = [r for r in records if not r.problems]
    return {
        "points_per_s": sum(r.points for r in passed) / busy,
        "ops_per_s": len(passed) / busy,
        "latency_p50_s": statistics.median(lats),
        "latency_tail_s": lats[len(lats) - tail_beyond - 1],
        "setup_s": statistics.median(setup_times),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: int) -> dict[str, str]:
    """Units of the metrics a run reports, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"]
            for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


def workload_why(name: str) -> str:
    return next(w["why"] for w in benchmark_spec()["workloads"]
                if w["name"] == name)


def run_workload(args) -> int:
    blas = cap_blas_threads()
    if not (ROOT / "src" / "hirota_trace" / "__init__.py").is_file():
        print(f"no hirota_trace package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import hirota_trace
    if Path(hirota_trace.__file__).resolve().parent != ROOT / "src" / "hirota_trace":
        print(f"imported {hirota_trace.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    import calibration
    import spans
    import workloads

    tmp = TMP_DIR / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp, args.seconds)
        tracer = spans.Tracer() if args.trace else None
        setup_times, setup_walls, setup_compile = [], [], []
        while len(setup_times) < SETUP_MIN_ROUNDS or (
                sum(setup_walls) < SETUP_MIN_S
                and len(setup_times) < SETUP_MAX_ROUNDS):
            workloads.COMPILE_CACHE.cache_clear()
            first_span = len(tracer.spans) if tracer else 0
            with tracer.patched() if tracer else nullcontext():
                _, scaled, wall = wl.probe.timed(wl.setup_round)
            setup_times.append(scaled)
            setup_walls.append(wall)
            if tracer:
                setup_compile.append(sum(
                    s["end"] - s["start"] for s in tracer.spans[first_span:]
                    if s["name"] == "trace_engine.compiled"))
        wl.prepare()
        warmup_ops = workloads.warm_up(wl) if wl.cycles is None else 0
        meta = {"workload": wl.name, "why": workload_why(args.workload),
                "spec": wl.spec,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "git_commit": git_commit(), "python": sys.version.split()[0],
                "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
                "blas_threads": blas, "load": "closed loop, 1 client",
                "calibration": {"reference_s": {
                    k.__name__: calibration.REFERENCE_S[k]
                    for k in wl.probe.kernels},
                    "probe_runs": calibration.PROBE_RUNS},
                "setup_rounds": len(setup_times), "setup_times_s": setup_times,
                "setup_wall_times_s": setup_walls,
                "warmup_ops": warmup_ops}

        if not args.trace:
            records = workloads.run_cycles(wl, args.seconds, workloads.MIN_OPS)
            metrics = timings(records, setup_times, workloads.TAIL_BEYOND,
                              "latency")
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            n = len(records)
            meta.update({
                "latency_tail_percentile":
                    100.0 * (n - workloads.TAIL_BEYOND) / n,
                "latency_samples": n,
                "wall_time_metrics": timings(records, setup_walls,
                                             workloads.TAIL_BEYOND, "wall")})
            span_log = None
        else:
            setup_spans = tracer.spans
            tracer.spans = []
            plain, records = [], []

            def on_op(i: int) -> None:
                tracer.op_id = len(records) + i

            def traced(k: int) -> list:
                with tracer.patched():
                    return workloads.run_cycle(wl, k, on_op)

            # each cycle untraced and again traced, so the overhead compares
            # the same inputs at nearly the same time; the order alternates,
            # since a cycle's second run finds the machine's caches warm
            start = perf_counter()
            k = 0
            while wl.cycles is None or k < wl.cycles:
                if k % 2:
                    records += traced(k)
                    wl.rewind()
                    plain += workloads.run_cycle(wl, k)
                else:
                    plain += workloads.run_cycle(wl, k)
                    wl.rewind()
                    records += traced(k)
                k += 1
                if perf_counter() - start >= args.seconds:
                    break
            wl.rewind()
            with spans.eval_peak() as peaks:
                peak_records = workloads.run_cycle(wl, 0)
            metrics = spans.layer_metrics(
                tracer.spans, len(records),
                (sum(r.hits for r in records), sum(r.misses for r in records)),
                sum(r.nbytes for r in records))
            metrics["trace_engine.setup_compile_s"] = \
                statistics.median(setup_compile)
            metrics["trace_engine.eval_peak_mb"] = \
                max(peaks, default=0) / spans.MIB
            metrics["trace.overhead_frac"] = (
                sum(r.latency for r in records)
                / sum(r.latency for r in plain) - 1)
            records = plain + records + peak_records
            span_log = {"setup": setup_spans, "timed": tracer.spans}

        failed = [r for r in records if r.problems]
        by_kind = {}
        for r in records:
            by_kind.setdefault(r.kind, []).append(r.latency)
        meta.update({"cycles": len({r.cycle for r in records}),
                     "ops": len(records),
                     "median_latency_by_kind_s": {
                         k: statistics.median(v) for k, v in by_kind.items()},
                     "busy_s": sum(r.latency for r in records),
                     "failures": [f"{r.kind}: {'; '.join(r.problems)}"
                                  for r in failed[:10]]})
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(
            {"meta": meta,
             "latencies": [[r.kind, r.latency, r.wall] for r in records],
             "spans": span_log}))
        units = metric_units(args.trace)
        if set(units) != set(metrics):
            print(f"metrics {sorted(metrics)} do not match BENCHMARK.json's "
                  f"{sorted(units)}", file=sys.stderr)
            return 2
        result = {"correct": not failed, "attempted": len(records),
                  "failed": len(failed),
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}}
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for name in workload_names():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            if not lines:
                continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
