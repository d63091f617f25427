"""The three benchmark workloads and the closed loop that runs them.

A workload is set up in identical rounds (each round draws the inputs from
the seed and compiles every soliton set the timed phase will reuse, with
the compile cache emptied first), then runs whole cycles of operations, one
at a time, each starting when the previous one returned.
Every cycle has the same mix, so where the time runs out does not change
the mix of a run.  Only the call into the program is timed, and its time is
rescaled to a reference machine speed (``calibration.py``); input writing,
output parsing and checks run between operations.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from hirota_trace import cli, trace_engine, verify
from hirota_trace.verify import EquationKind

import calibration
import checks
import inputs
from inputs import COARSE_GRID, FIELD_GRID, MEDIUM, MKDV_MEDIUM, NLS_MEDIUM

#: the memoized compile entry point, kept unwrapped for its cache counters
COMPILE_CACHE = trace_engine.compiled
#: a run makes at least this many operations, so the latency sample with
#: ten beyond it lies above the median
TAIL_BEYOND = 10
MIN_OPS = 2 * TAIL_BEYOND + 1
IN_CACHE = calibration.Probe((calibration.in_cache,))
#: a workload whose cycles repeat first runs its first cycle's operations,
#: untimed, until this much wall time has passed: without it, residual-sweep's
#: first N = 3 reports ran 4-28 % slower than the later ones
WARMUP_S = 1.5


def cache_counts() -> tuple[int, int]:
    info = COMPILE_CACHE.cache_info()
    return info.hits, info.misses


@dataclass
class Op:
    """One operation: a timed call and an untimed verification.

    ``verify`` maps the call's result to (problems, bytes written).
    ``misses`` is the asserted growth of the compile-cache misses, or None.
    """

    kind: str
    call: Callable[[], object]
    verify: Callable[[object], tuple[list[str], int]]
    points: int
    misses: int | None = None


@dataclass
class Record:
    kind: str
    cycle: int
    #: time of the call rescaled to the reference machine speed
    latency: float
    #: wall time of the call
    wall: float
    points: int
    nbytes: int
    problems: list[str]
    #: growth of the compile cache's hits and misses during the call
    hits: int
    misses: int


def cli_call(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout and stderr captured; looked up at call time so a
    traced run sees the wrapped entry point."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_op(op: Op, cycle: int = 0,
           probe: calibration.Probe = IN_CACHE) -> Record:
    hits0, misses0 = cache_counts()
    result, latency, wall = probe.timed(op.call)
    hits1, misses1 = cache_counts()
    problems, nbytes = op.verify(result)
    if op.misses is not None:
        problems = problems + checks.check_misses(misses1 - misses0, op.misses)
    return Record(op.kind, cycle, latency, wall, op.points, nbytes, problems,
                  hits1 - hits0, misses1 - misses0)


def run_cycle(workload, k: int,
              on_op: Callable[[int], None] | None = None) -> list[Record]:
    """Cycle k of the workload; ``on_op`` gets each operation's index."""
    records = []
    for i, op in enumerate(workload.cycle(k)):
        if on_op is not None:
            on_op(i)
        records.append(run_op(op, k, workload.probe))
    return records


def warm_up(workload) -> int:
    """Untimed operations of the first cycle for WARMUP_S; returns how many
    ran."""
    start = perf_counter()
    ran = 0
    for op in workload.cycle(0):
        if perf_counter() - start >= WARMUP_S:
            break
        op.call()
        ran += 1
    return ran


def run_cycles(workload, seconds: float, min_ops: int = 1) -> list[Record]:
    """Whole cycles until the operations' rescaled times add up to
    ``seconds`` and at least ``min_ops`` ran, or until the workload has no
    further cycle.  Counting rescaled time, not wall time, keeps the number
    of cycles, and with it where the median and the tail sample fall in
    the mix, from changing with the speed of the host."""
    records: list[Record] = []
    k = 0
    while workload.cycles is None or k < workload.cycles:
        records += run_cycle(workload, k)
        k += 1
        if (sum(r.latency for r in records) >= seconds
                and len(records) >= min_ops):
            break
    return records


class Workload:
    """Inputs, set-up and operation cycle of one workload; BENCHMARK.json
    says why each workload was chosen."""

    name = ""
    spec: dict = {}
    #: cycles the inputs are drawn for, or None when cycles repeat
    cycles: int | None = None
    #: kernels that rescale the times; the workloads' own arrays fit in
    #: the caches unless a workload says otherwise
    probe = IN_CACHE

    def __init__(self, seed: int, tmp: Path, seconds: float) -> None:
        self.seed = seed
        self.tmp = tmp

    def setup_round(self) -> None:
        """Draw the inputs and compile what the timed phase reuses; every
        round does the same work on an empty compile cache."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after set-up, such as the checks' reference values."""

    def rewind(self) -> None:
        """Make a cycle that ran once run again as it did the first time."""

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError


class FieldExport(Workload):
    """``cli field`` on the 401x201 grid, output to a file."""

    name = "field-export"
    #: N of each operation of a cycle; each slot gets its own set.  The
    #: format alternates from one operation to the next, and for each slot
    #: from one cycle to the next, so every set is exported both ways.
    #: Five of the eight are N = 3, the slowest kind: in three cycles the
    #: median and the sample with ten beyond it both fall among the seven
    #: N = 3 CSV exports, which span all five N = 3 sets.
    mix = (3, 3, 1, 1, 3, 3, 2, 3)
    formats = ("csv", "json")
    samples = 16
    spec = {"grid": [401, 201],
            "mix": [f"field N={n}" for n in mix],
            "format": "slot i of cycle k: csv if i + k is even, else json",
            "reference_rows_per_set": samples}

    def __init__(self, seed: int, tmp: Path, seconds: float) -> None:
        super().__init__(seed, tmp, seconds)
        self.sets = []
        self.configs: list[Path] = []
        self.refs: list[dict[int, complex]] = []

    def setup_round(self) -> None:
        self.sets = []
        for slot, n in enumerate(self.mix):
            sset = inputs.soliton_set(n, self.seed, 0, slot)
            trace_engine.compiled(sset, MEDIUM)
            self.sets.append(sset)

    def prepare(self) -> None:
        for slot, sset in enumerate(self.sets):
            self.configs.append(inputs.write_config(
                self.tmp / f"field-{slot}.json", MEDIUM, sset, FIELD_GRID))
            self.refs.append(checks.field_samples(
                FIELD_GRID, sset, MEDIUM, inputs.rng(self.seed, 1, slot),
                self.samples))

    def cycle(self, k: int) -> list[Op]:
        return [self._op(slot, self.formats[(slot + k) % 2])
                for slot in range(len(self.mix))]

    def _op(self, slot: int, fmt: str) -> Op:
        n = self.mix[slot]
        config = self.configs[slot]
        out = self.tmp / f"field.{fmt}"
        argv = ["field", "--config", str(config), "--out", str(out),
                "--format", fmt]
        refs = self.refs[slot]

        def verify_(result):
            rc, stdout = result
            text = out.read_text()
            problems = checks.check_field(rc, text, fmt, FIELD_GRID, refs)
            return problems, len(text) + len(stdout)

        return Op(f"field-n{n}-{fmt}", lambda: cli_call(argv), verify_,
                  FIELD_GRID.nx * FIELD_GRID.nt)


class ResidualSweep(Workload):
    """``verify.residual_report`` on the 401x201 grid, sets compiled in set-up."""

    name = "residual-sweep"
    #: (label, equation, medium, N) of each operation of a cycle.  With two
    #: N >= 4 reports and four N = 3 ones per cycle, the median and the
    #: sample with ten beyond it both fall among the N = 3 reports for runs
    #: of 2 to 5 cycles, so they do not jump between clusters when the
    #: cycle count changes.
    mix = (("nls", EquationKind.NLS, NLS_MEDIUM, 2),
           ("n3", EquationKind.HIROTA, MEDIUM, 3),
           ("n4", EquationKind.HIROTA, MEDIUM, 4),
           ("n3", EquationKind.HIROTA, MEDIUM, 3),
           ("mkdv", EquationKind.MKDV, MKDV_MEDIUM, 2),
           ("n3", EquationKind.HIROTA, MEDIUM, 3),
           ("n5", EquationKind.HIROTA, MEDIUM, 5),
           ("n3", EquationKind.HIROTA, MEDIUM, 3))
    spec = {"grid": [401, 201],
            "mix": [f"{kind.value} N={n} rho={m.rho} sigma={m.sigma}"
                    for _, kind, m, n in mix]}
    #: the terms-by-points arrays (45 MB at N = 3, ~1 GB at N = 5) stream
    #: from memory, which a slow stretch of the host slows less than work
    #: in the caches
    probe = calibration.Probe((calibration.in_cache, calibration.streaming))

    def __init__(self, seed: int, tmp: Path, seconds: float) -> None:
        super().__init__(seed, tmp, seconds)
        self.sets: dict = {}

    def setup_round(self) -> None:
        self.sets = {}
        for label, _, medium, n in self.mix:
            if label not in self.sets:
                sset = inputs.soliton_set(n, self.seed, 0, n, len(self.sets))
                trace_engine.compiled(sset, medium)
                self.sets[label] = sset

    def cycle(self, k: int) -> list[Op]:
        return [self._op(label, kind, medium, self.sets[label])
                for label, kind, medium, _ in self.mix]

    def _op(self, label, kind, medium, sset) -> Op:
        def call():
            return verify.residual_report(kind, sset, medium, FIELD_GRID)

        def verify_(report):
            return checks.check_residual(report, FIELD_GRID), 0

        return Op(f"residual-{label}", call, verify_,
                  FIELD_GRID.nx * FIELD_GRID.nt)


class ColdProbe(Workload):
    """One-shot CLI commands, each on a soliton set never compiled before."""

    name = "cold-probe"
    residual_n = 4
    series_n = 3
    #: commands of one cycle; every operation gets freshly drawn inputs.
    #: Three of the five are residual probes, so the median and the sample
    #: with ten beyond it both fall among them.  ``collide`` is held out:
    #: about 3 % of two-soliton sets that pass its own five-width guard
    #: exit 3 on its 1e-4 elasticity tolerance.
    mix = ("residual", "series", "residual", "identity", "residual")
    #: measured time of one cycle on a 2-core virtual machine, and the
    #: factor of headroom the drawn cycles leave over --seconds
    cycle_s = 1.8
    draw_headroom = 4
    spec = {"mix": list(mix),
            "residual": {"n": residual_n, "grid": [101, 51], "fd_check": True},
            "series": {"n": series_n, "max_order": checks.SERIES_ORDER,
                       "q_max": inputs.SERIES_Q_MAX},
            "identity": {"n_max": 3, "trials": 100}}

    def __init__(self, seed: int, tmp: Path, seconds: float) -> None:
        super().__init__(seed, tmp, seconds)
        self.cycles = max(math.ceil(self.draw_headroom * seconds / self.cycle_s),
                          math.ceil(MIN_OPS / len(self.mix)))
        self.draws: list[list] = []

    def setup_round(self) -> None:
        self.draws = [self._draw(k) for k in range(self.cycles)]

    def rewind(self) -> None:
        COMPILE_CACHE.cache_clear()

    def _draw(self, k: int) -> list:
        """The soliton set, point or trial seed of each slot of cycle k."""
        seed = self.seed
        out = []
        for slot, cmd in enumerate(self.mix):
            if cmd == "residual":
                out.append(inputs.soliton_set(self.residual_n, seed, 2, k, slot))
            elif cmd == "series":
                sset = inputs.soliton_set(self.series_n, seed, 2, k, slot)
                out.append((sset, inputs.series_point(sset, seed, 3, k, slot)))
            else:
                out.append(int(inputs.rng(seed, 2, k, slot).integers(2 ** 31)))
        return out

    def cycle(self, k: int) -> list[Op]:
        """Ops of cycle k; their config files are written here, untimed."""
        return [self._op(self.tmp / f"cold-{k}-{slot}.json", cmd, draw)
                for slot, (cmd, draw) in enumerate(zip(self.mix,
                                                       self.draws[k]))]

    def _op(self, path: Path, cmd: str, draw) -> Op:
        if cmd == "residual":
            inputs.write_config(path, MEDIUM, draw, COARSE_GRID)
            argv = ["residual", "--config", str(path), "--fd-check"]
            points, misses = COARSE_GRID.nx * COARSE_GRID.nt, 1
        elif cmd == "series":
            sset, pt = draw
            inputs.write_config(path, MEDIUM, sset, FIELD_GRID)
            argv = ["series", "--config", str(path),
                    f"--point={pt.x!r},{pt.t!r}",
                    "--max-order", str(checks.SERIES_ORDER)]
            points, misses = 1, 0
        else:
            argv = ["identity", "--n-max", "3", "--trials", "100",
                    "--seed", str(draw)]
            points, misses = 0, 0

        def verify_(result):
            rc, stdout = result
            if cmd == "series":
                return checks.check_series(rc, stdout), len(stdout)
            return checks.check_exit(rc), len(stdout)

        return Op(cmd, lambda: cli_call(argv), verify_, points, misses)


WORKLOADS = {w.name: w for w in (FieldExport, ResidualSweep, ColdProbe)}
