"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Every correctness check passes on a genuine output and rejects a
   deliberately corrupted one.  Corruptions are made here, on outputs or by
   patching names inside this process, never in the package's source.
2. A short run of every workload, untraced and traced, prints a result
   whose metric names and units are exactly those of BENCHMARK.json, with
   no failed operation, and the traced run puts the expected layer on top.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hirota_trace import verify  # noqa: E402
from hirota_trace.core import Medium  # noqa: E402
from hirota_trace.verify import EquationKind  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(("ok   " if ok else "FAIL ") + label, flush=True)
    if not ok:
        failures.append(label)


def expect_fires(label: str, problems: list[str]) -> None:
    expect(f"{label} is rejected ({problems[0] if problems else 'accepted'})",
           bool(problems))


def field_checks(tmp: Path) -> None:
    grid = inputs.FIELD_GRID
    sset = inputs.soliton_set(1, 7, 0)
    config = inputs.write_config(tmp / "field.json", inputs.MEDIUM, sset, grid)
    refs = checks.field_samples(grid, sset, inputs.MEDIUM,
                                inputs.rng(7, 1), 16)
    row = min(refs)
    for fmt in ("csv", "json"):
        out = tmp / f"field.{fmt}"
        rc, _ = workloads.cli_call(["field", "--config", str(config),
                                    "--out", str(out), "--format", fmt])
        text = out.read_text()
        expect(f"field {fmt}: genuine output passes",
               checks.check_field(rc, text, fmt, grid, refs) == [])
        expect_fires(f"field {fmt}: exit code 2",
                     checks.check_field(2, text, fmt, grid, refs))
        if fmt == "csv":
            lines = text.split("\n")
            cols = lines[row + 1].split(",")
            cols[2] = repr(float(cols[2]) + 1e-6)
            lines[row + 1] = ",".join(cols)
            expect_fires("field csv: tampered sampled row",
                         checks.check_field(rc, "\n".join(lines), fmt, grid,
                                            refs))
            expect_fires("field csv: dropped last row",
                         checks.check_field(rc, text.rsplit("\n", 2)[0] + "\n",
                                            fmt, grid, refs))
        else:
            data = json.loads(text)
            data[row]["im_psi"] += 1e-6
            expect_fires("field json: tampered sampled row",
                         checks.check_field(rc, json.dumps(data), fmt, grid,
                                            refs))
            data[row]["im_psi"] -= 1e-6
            data[row], data[row + 1] = data[row + 1], data[row]
            expect_fires("field json: swapped rows",
                         checks.check_field(rc, json.dumps(data), fmt, grid,
                                            refs))


def residual_checks() -> None:
    grid = inputs.FIELD_GRID
    sset = inputs.soliton_set(2, 7, 1)
    kind = EquationKind.HIROTA
    report = verify.residual_report(kind, sset, inputs.MEDIUM, grid)
    expect("residual: genuine report passes",
           checks.check_residual(report, grid) == [])
    # the field of one medium checked against the equation of another
    wrong = Medium(rho=2.0, sigma=1.0, lam=8.0)
    original = verify.analytic_derivatives_grid
    verify.analytic_derivatives_grid = \
        lambda s, m, x, t, **kw: original(s, wrong, x, t, **kw)
    try:
        corrupt = verify.residual_report(kind, sset, inputs.MEDIUM, grid)
    finally:
        verify.analytic_derivatives_grid = original
    expect_fires("residual: field checked against the wrong medium",
                 checks.check_residual(corrupt, grid))
    expect_fires("residual: degenerate points reported",
                 checks.check_residual(
                     dataclasses.replace(report, n_degenerate=1), grid))


def cold_checks(tmp: Path) -> None:
    probe = workloads.ColdProbe(7, tmp, 1.0)
    probe.setup_round()
    ops = {op.kind: op for op in probe.cycle(0)}
    for kind in ("residual", "series", "identity"):
        record = workloads.run_op(ops[kind])
        expect(f"cold {kind}: genuine output passes", record.problems == [])
    rc, stdout = ops["series"].call()
    out = json.loads(stdout)
    out["orders"][checks.SERIES_ORDER]["error"] = 1e-9 * max(
        1.0, abs(complex(*out["closed"])))
    expect_fires("cold series: order-20 error too large",
                 checks.check_series(rc, json.dumps(out)))
    expect_fires("cold identity: exit code 3", checks.check_exit(3))
    # the same set again hits the compile cache, which the run asserts against
    expect_fires("cold residual: repeated set (no compile-cache miss)",
                 workloads.run_op(ops["residual"]).problems)


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def short_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            proc = bench(["--workload", w["name"], "--seed", "7",
                          "--seconds", "1", "--trace", str(trace)])
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(f"{label}: prints a result\n{proc.stderr}", False)
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(f"{label}: exit 0, correct, no failed operation",
                   proc.returncode == 0 and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1)
            expect(f"{label}: metrics and units match BENCHMARK.json",
                   set(result) == {"correct", "attempted", "failed", "metrics"}
                   and got == want)
            if trace:
                top_layer(w["name"], {k: m["value"] for k, m
                                      in result["metrics"].items()})


def top_layer(workload: str, m: dict) -> None:
    """The layer each workload is meant to stress takes the most time."""
    times = {k: v for k, v in m.items() if k.endswith("_s")
             and k != "trace_engine.setup_compile_s"}
    top, contains = {
        "field-export": ("cli.serialize_s", "cli.self_s"),
        "residual-sweep": ("trace_engine.eval_s", "trace_engine.self_s"),
        "cold-probe": ("trace_engine.compile_s", "trace_engine.self_s"),
    }[workload]
    others = {k: v for k, v in times.items() if k not in (top, contains)}
    rival = max(others, key=others.get)
    expect(f"{workload}: {top} {times[top]:.4g} s/op exceeds every other "
           f"layer time (largest: {rival} {others[rival]:.4g})",
           times[top] > others[rival])


def empty_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(["--workload", "field-export", "--seed", "1", "--seconds",
                  "1", "--trace", "0"], cwd=bare)
    expect("bare directory: non-zero exit and no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout)


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / f"smoke-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        field_checks(tmp)
        residual_checks()
        cold_checks(tmp)
        empty_directory(tmp)
        short_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
