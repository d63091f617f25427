"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hirota_trace import (
    CompiledSolution,
    compiled,
    random_admissible_set,
    trace_engine,
)
from hirota_trace import cli as cli_module
from hirota_trace.cli import (
    FIELD_BLOCK_ROWS,
    _build_parser,
    cmd_field,
    dump_config,
    load_config,
    main,
    parse_config,
)
from hirota_trace.errors import ConfigError

CANONICAL = {
    "medium": {"rho": 1.0, "sigma": 1.0, "lambda": 8.0},
    "solitons": [{"p": [1.0, 0.0], "a0": [math.sqrt(2.0), 0.0]}],
    "grid": {"x": [-2.0, 2.0, 5], "t": [0.0, 0.0, 1]},
}

TWO_SOLITON = {
    "medium": {"rho": 1.0, "sigma": 1.0, "lambda": 8.0},
    "solitons": [{"p": [0.5, 0.2], "a0": [1.0, 0.2]},
                 {"p": [1.2, -0.3], "a0": [0.8, -0.5]}],
    "grid": {"x": [-160.0, 160.0, 4001], "t": [-5.0, 5.0, 11]},
}


@pytest.fixture
def canonical_path(tmp_path):
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(CANONICAL))
    return str(path)


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigParsing:
    def test_defaults_applied(self, canonical_path):
        cfg = load_config(canonical_path)
        assert cfg.tolerance == 1e-8
        assert cfg.series_order == 20
        assert cfg.seed == 42

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("medium"),
        lambda d: d["medium"].pop("rho"),
        lambda d: d["medium"].update(bogus=1),
        lambda d: d.update(extra_key=1),
        lambda d: d["solitons"][0].update(p=[1.0]),
        lambda d: d["solitons"][0].update(p=[-1.0, 0.0]),
        lambda d: d["grid"].update(x=[-2.0, 2.0, 5.5]),
        lambda d: d["medium"].update({"lambda": -8.0}),
    ])
    def test_malformed_configs_rejected(self, mutate):
        data = json.loads(json.dumps(CANONICAL))
        mutate(data)
        with pytest.raises(ConfigError):
            parse_config(data)

    @pytest.mark.parametrize("flags", [["residual"],
                                       ["field", "--dump-config"]])
    @pytest.mark.parametrize("options, message", [
        ({"tolerance": math.nan}, "tolerance must be a finite number >= 0"),
        ({"tolerance": math.inf}, "tolerance must be a finite number >= 0"),
        ({"tolerance": -1e-8}, "tolerance must be a finite number >= 0"),
        ({"tolerance": 10 ** 400}, "tolerance must be a finite number >= 0"),
        ({"tolerance": "1e-8"}, "tolerance must be a finite number >= 0"),
        ({"tolerance": True}, "tolerance must be a finite number >= 0"),
        ({"series_order": 2.7}, "series_order must be an integer >= 0"),
        ({"series_order": -1}, "series_order must be an integer >= 0"),
        ({"series_order": True}, "series_order must be an integer >= 0"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 1.0}, "seed must be an integer"),
    ])
    def test_invalid_options_are_config_errors(self, tmp_path, capsys, flags,
                                               options, message):
        cfg = dict(CANONICAL, options=options)
        assert main([*flags, "--config", write_cfg(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: options.{message}\n"

    def test_edge_options_accepted(self):
        cfg = parse_config(dict(CANONICAL, options={
            "tolerance": 0, "series_order": 0, "seed": -3}))
        assert (cfg.tolerance, cfg.series_order, cfg.seed) == (0.0, 0, -3)
        assert type(cfg.tolerance) is float

    def test_unreadable_and_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))


class TestDumpConfig:
    def test_round_trip_is_byte_identical(self, canonical_path):
        first = dump_config(load_config(canonical_path))
        second = dump_config(parse_config(json.loads(first)))
        assert first == second

    def test_key_order_is_canonical(self, canonical_path):
        text = dump_config(load_config(canonical_path))
        assert text.index('"medium"') < text.index('"solitons"') \
            < text.index('"grid"') < text.index('"options"')

    def test_cli_flag(self, canonical_path, capsys):
        assert main(["field", "--config", canonical_path,
                     "--dump-config"]) == 0
        out1 = capsys.readouterr().out
        assert main(["field", "--config", canonical_path,
                     "--dump-config"]) == 0
        assert capsys.readouterr().out == out1


class TestFieldCommand:
    def test_canonical_csv_row(self, canonical_path, capsys):
        assert main(["field", "--config", canonical_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,t,re_psi,im_psi,abs_psi"
        assert len(lines) == 1 + 5
        middle = lines[1 + 2].split(",")
        assert middle[0] == "0" and middle[1] == "0"
        assert float(middle[2]) == pytest.approx(1.0, abs=1e-10)
        assert float(middle[3]) == pytest.approx(0.0, abs=1e-10)
        assert float(middle[4]) == pytest.approx(1.0, abs=1e-10)

    def test_empty_soliton_set(self, tmp_path, capsys):
        data = json.loads(json.dumps(CANONICAL))
        data["solitons"] = []
        assert main(["field", "--config", write_cfg(tmp_path, data)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(r.split(",")[2:] == ["0", "0", "0"] for r in rows)

    def test_single_point_grid(self, tmp_path, capsys):
        data = json.loads(json.dumps(CANONICAL))
        data["grid"] = {"x": [0.0, 0.0, 1], "t": [0.0, 0.0, 1]}
        assert main(["field", "--config", write_cfg(tmp_path, data)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_coupling_below_eight_times_the_least_double(self, tmp_path,
                                                         capsys):
        # lam / 8 rounds to 0; the envelope centre of p = 1 + 0.3i is near
        # x = 187
        data = dict(CANONICAL, medium={"rho": 1.0, "sigma": 1.0,
                                       "lambda": 1e-323},
                    solitons=[{"p": [1.0, 0.3], "a0": [0.8, 0.2]}],
                    grid={"x": [180.0, 195.0, 31], "t": [-1.0, 1.0, 5]})
        assert main(["field", "--config", write_cfg(tmp_path, data)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        peak = max(float(r.split(",")[4])
                   for r in captured.out.strip().splitlines()[1:])
        # the peak sqrt(8 / lam) Re p is on the grid
        assert peak == pytest.approx(math.sqrt(8) / math.sqrt(1e-323),
                                     rel=1e-2)

    def test_json_format_and_out_file(self, canonical_path, tmp_path):
        out = tmp_path / "field.json"
        assert main(["field", "--config", canonical_path,
                     "--format", "json", "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 5
        assert set(records[0]) == {"x", "t", "re_psi", "im_psi", "abs_psi"}

    def test_t_major_row_order(self, tmp_path, capsys):
        data = json.loads(json.dumps(CANONICAL))
        data["grid"] = {"x": [0.0, 1.0, 2], "t": [0.0, 1.0, 2]}
        assert main(["field", "--config", write_cfg(tmp_path, data)]) == 0
        rows = [r.split(",")[:2] for r in
                capsys.readouterr().out.strip().splitlines()[1:]]
        assert rows == [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["field", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err


def soliton_config(n: int, seed: int, x=(-10.0, 10.0, 41),
                   t=(-5.0, 5.0, 21)) -> dict:
    return {
        "medium": {"rho": 1.0, "sigma": 1.0, "lambda": 8.0},
        "solitons": [{"p": [s.p.real, s.p.imag],
                      "a0": [s.a0.real, s.a0.imag]}
                     for s in random_admissible_set(n, seed).solitons],
        "grid": {"x": list(x), "t": list(t)}}


def reference_field(cfg, fmt: str) -> tuple[int, str, str]:
    """(exit code, table, stderr) of ``field`` formatted row by row: each
    CSV value through format(v, ".17g"), the JSON table through json.dumps
    of the row dicts."""
    xs, ts = cfg.grid.xs(), cfg.grid.ts()
    d = compiled(cfg.solitons, cfg.medium).derivatives(
        xs[:, None], ts[None, :], orders=[(0, 0)], check_degenerate=False)
    rows = [(xs[ix], ts[it], d["psi"][ix, it])
            for it in range(len(ts)) for ix in range(len(xs))
            if not d["degenerate"][ix, it]]
    if fmt == "csv":
        lines = ["x,t,re_psi,im_psi,abs_psi"]
        lines += [",".join(format(float(v), ".17g")
                           for v in (x, t, psi.real, psi.imag, abs(psi)))
                  for x, t, psi in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{"x": x, "t": t, "re_psi": psi.real,
                            "im_psi": psi.imag, "abs_psi": abs(psi)}
                           for x, t, psi in rows]) + "\n"
    n_bad = int(np.count_nonzero(d["degenerate"]))
    if n_bad:
        return 2, text, f"skipped {n_bad} degenerate point(s)\n"
    return 0, text, ""


class TestFieldByteContract:
    """``field`` writes exactly the bytes of the row-by-row formatter, to a
    file and to stdout, in both formats."""

    def check(self, tmp_path, capsys, data: dict) -> tuple[int, str]:
        """Exit code and CSV table, once both formats are compared."""
        path = write_cfg(tmp_path, data)
        for fmt in ("json", "csv"):
            want = reference_field(load_config(path), fmt)
            out = tmp_path / f"field.{fmt}"
            rc = main(["field", "--config", path, "--format", fmt,
                       "--out", str(out)])
            assert (rc, out.read_bytes().decode(), capsys.readouterr().err) \
                == want
            rc = main(["field", "--config", path, "--format", fmt])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == want
        return want[0], want[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_soliton_sets(self, tmp_path, capsys, n):
        assert self.check(tmp_path, capsys,
                          soliton_config(n, 20 + n))[0] == 0

    def test_partial_last_block_and_zero_coordinate(self, tmp_path, capsys):
        data = soliton_config(2, 5, x=(-4.0, 4.0, 129), t=(0.0, 2.0, 33))
        rows = 129 * 33
        assert rows > FIELD_BLOCK_ROWS and rows % FIELD_BLOCK_ROWS
        rc, csv = self.check(tmp_path, capsys, data)
        assert rc == 0
        assert "\n-4,0," in csv and "\n0,0," in csv

    def test_some_rows_skipped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trace_engine, "CANCEL_TOL", 0.99)
        rc, csv = self.check(tmp_path, capsys, soliton_config(3, 7))
        assert rc == 2
        assert 1 < csv.count("\n") < 1 + 41 * 21

    def test_every_row_skipped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trace_engine, "CANCEL_TOL", 1e6)
        self.check(tmp_path, capsys, soliton_config(3, 7))
        path = str(tmp_path / "cfg.json")
        for fmt, table in (("csv", "x,t,re_psi,im_psi,abs_psi\n"),
                           ("json", "[]\n")):
            assert main(["field", "--config", path, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == table
            assert captured.err == f"skipped {41 * 21} degenerate point(s)\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_field_value_is_an_error(tmp_path, capsys, monkeypatch,
                                            fmt):
    derivatives = CompiledSolution.derivatives

    def one_nan(self, *args, **kwargs):
        out = derivatives(self, *args, **kwargs)
        assert not out["degenerate"][3, 2]
        out["psi"][3, 2] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(CompiledSolution, "derivatives", one_nan)
    path = write_cfg(tmp_path, soliton_config(2, 5))
    out = tmp_path / "field.out"
    assert main(["field", "--config", path, "--format", fmt,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["field", "--config", path, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: non-finite psi at 1 non-degenerate grid point(s), "
        "first at (x, t) = (-8.5, -4)"] * 2


def test_non_finite_residual_report_is_an_error(tmp_path, capsys,
                                               monkeypatch):
    report = cli_module.residual_report

    def nan_max_abs(*args, **kwargs):
        return dataclasses.replace(report(*args, **kwargs), max_abs=math.nan)

    monkeypatch.setattr(cli_module, "residual_report", nan_max_abs)
    path = write_cfg(tmp_path, soliton_config(2, 5))
    assert main(["residual", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: non-finite max_abs, max_rel in the "
                            "hirota residual report\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_out_into_missing_directory_is_an_error(tmp_path, capsys, fmt):
    path = write_cfg(tmp_path, soliton_config(2, 5))
    out = tmp_path / "missing" / "field.out"
    assert main(["field", "--config", path, "--format", fmt,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(out) in captured.err
    assert not (tmp_path / "missing").exists()


def test_residual_of_empty_set(tmp_path, capsys):
    data = soliton_config(1, 0, x=(-10.0, 10.0, 401), t=(-5.0, 5.0, 201))
    data["solitons"] = []
    assert main(["residual", "--config", write_cfg(tmp_path, data)]) == 0
    assert json.loads(capsys.readouterr().out)["max_rel"] == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_working_memory_is_bounded(tmp_path, fmt):
    """Working memory of ``field`` at 401x201, N = 3: the table streams in
    blocks of FIELD_BLOCK_ROWS rows (peak about 5 MiB in either format)."""
    cfg = parse_config(soliton_config(3, 14, x=(-10.0, 10.0, 401),
                                      t=(-5.0, 5.0, 201)))
    out = str(tmp_path / "field.out")
    compiled(cfg.solitons, cfg.medium)
    tracemalloc.start()
    try:
        assert cmd_field(cfg, out, fmt) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


class TestResidualCommand:
    def test_hirota_passes(self, canonical_path, capsys):
        assert main(["residual", "--config", canonical_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["max_rel"] <= 1e-8

    def test_mismatched_reduction_is_config_error(self, canonical_path,
                                                  capsys):
        assert main(["residual", "--config", canonical_path,
                     "--equation", "nls"]) == 1
        assert main(["residual", "--config", canonical_path,
                     "--equation", "mkdv"]) == 1
        capsys.readouterr()

    def test_tolerance_failure_exit(self, tmp_path, capsys):
        data = json.loads(json.dumps(CANONICAL))
        data["options"] = {"tolerance": 1e-30}
        assert main(["residual", "--config",
                     write_cfg(tmp_path, data)]) == 3
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_fd_check_reports_order(self, canonical_path, capsys):
        assert main(["residual", "--config", canonical_path,
                     "--fd-check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fd_order_estimate"] is None \
            or report["fd_order_estimate"] > 3.0


class TestSeriesCommand:
    def test_tail_point_converges(self, canonical_path, capsys):
        assert main(["series", "--config", canonical_path,
                     "--point=-1,0", "--max-order", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_radius_q"] == pytest.approx(math.exp(-4.0),
                                                            rel=1e-8)
        assert not report["diverges"]
        assert report["orders"][-1]["error"] <= 1e-12

    def test_core_point_flags_divergence(self, canonical_path, capsys):
        assert main(["series", "--config", canonical_path,
                     "--point", "0,0", "--max-order", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diverges"]
        assert report["closed"][0] == pytest.approx(1.0, abs=1e-12)

    def test_order_zero_is_first_term(self, canonical_path, capsys):
        assert main(["series", "--config", canonical_path,
                     "--point=-1,0", "--max-order", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["orders"][0]["partial"][0] == pytest.approx(
            2 * math.exp(-2.0), rel=1e-12)

    def test_bad_point_is_config_error(self, canonical_path, capsys):
        assert main(["series", "--config", canonical_path,
                     "--point", "nope"]) == 1
        capsys.readouterr()


class TestIdentityCommand:
    def test_suite_passes(self, capsys):
        assert main(["identity", "--n-max", "2", "--trials", "25",
                     "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0

    @pytest.mark.parametrize("n_max,trials,seed,checks", [
        (3, 100, 42, 600), (3, 100, 7, 600), (1, 1, 0, 2), (5, 20, 3, 200)])
    def test_output_pinned(self, capsys, n_max, trials, seed, checks):
        assert main(["identity", "--n-max", str(n_max), "--trials",
                     str(trials), "--seed", str(seed)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "{\n"
            f'  "n_max": {n_max},\n'
            f'  "trials": {trials},\n'
            f'  "checks": {checks},\n'
            '  "failures": 0,\n'
            f'  "seed": {seed},\n'
            '  "passed": true\n'
            "}\n")
        assert captured.err == ""

    @pytest.mark.parametrize("options,flags,seed", [
        ({"seed": 7}, [], 7), ({"seed": 7}, ["--seed", "3"], 3),
        ({}, [], 42)])
    def test_seed_from_config(self, tmp_path, capsys, options, flags, seed):
        # options.seed applies unless --seed is given, as options.series_order
        # does for series unless --max-order is
        path = write_cfg(tmp_path, dict(CANONICAL, options=options))
        assert main(["identity", "--n-max", "2", "--trials", "5",
                     "--config", path, *flags]) == 0
        got = capsys.readouterr().out
        assert main(["identity", "--n-max", "2", "--trials", "5",
                     "--seed", str(seed)]) == 0
        assert got == capsys.readouterr().out
        assert json.loads(got)["seed"] == seed

    def test_zero_n_max_is_error(self, capsys):
        assert main(["identity", "--n-max", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_max and trials must be positive\n"


class TestCollideCommand:
    def test_elastic_collision(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TWO_SOLITON)
        assert main(["collide", "--config", path, "--t-far", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_rel_mismatch"] <= 1e-4

    def test_wrong_soliton_count(self, canonical_path, capsys):
        assert main(["collide", "--config", canonical_path]) == 1
        capsys.readouterr()


class TestConsoleScript:
    def test_entry_point_runs(self, canonical_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hirota_trace.cli", "field",
             "--config", canonical_path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,t,re_psi,im_psi,abs_psi")

    @pytest.mark.parametrize("command", ["field", "residual"])
    @pytest.mark.parametrize("lam, a0, x", [
        (8.0, [1e160], [-372.0, -364.0, 81]),
        (8.0, [1e-160], [364.0, 372.0, 81]),
        (1e300, [1.0, 1.0], [-175.0, -167.0, 81]),
    ], ids=["a0-1e160", "a0-1e-160", "lambda-1e300"])
    def test_extreme_amplitude_and_coupling_evaluate(self, tmp_path, command,
                                                     lam, a0, x):
        # term coefficients a0^4 ~ 1e+-640 and (lambda / 8)^2 ~ 1e598 leave
        # double range, their logs do not.  The grid holds the envelope
        # centre of the soliton p = 1 (near x = -171 for lambda = 1e300,
        # with the second soliton near x = -344).  In a subprocess, so that
        # stderr is seen whole, NumPy warnings too
        solitons = [{"p": p, "a0": [v, 0.0]}
                    for p, v in zip([[1.0, 0.0], [0.5, 0.3]], a0)]
        cfg = dict(CANONICAL, medium={"rho": 1.0, "sigma": 1.0, "lambda": lam},
                   solitons=solitons, grid={"x": x, "t": [-0.5, 0.5, 5]})
        proc = subprocess.run(
            [sys.executable, "-m", "hirota_trace.cli", command,
             "--config", write_cfg(tmp_path, cfg)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        if command == "residual":
            report = json.loads(proc.stdout)
            assert report["passed"] and report["n_degenerate"] == 0
            # the peak sqrt(8 / lambda) Re p is on the grid
            assert report["normalizer"] == pytest.approx(
                math.sqrt(8 / lam), rel=1e-2)
        else:
            assert proc.stdout.count("\n") == 1 + 81 * 5

    @pytest.mark.parametrize("command", ["field", "residual"])
    @pytest.mark.parametrize("x, message", [
        ([-math.inf, 2.0, 5], "grid bounds must be finite"),
        ([math.nan, 2.0, 5], "grid bounds must be finite"),
        ([1e308, 1.7e308, 5],
         "grid bounds must be at most 8.98847e+307 in magnitude"),
    ], ids=["minus-infinity", "nan", "overflowing-centre"])
    def test_unusable_grid_bound_is_config_error(self, tmp_path, command, x,
                                                 message):
        # in a subprocess, so that stderr is seen whole, NumPy warnings too
        cfg = dict(CANONICAL, grid={"x": x, "t": [-1.0, 1.0, 3]})
        proc = subprocess.run(
            [sys.executable, "-m", "hirota_trace.cli", command,
             "--config", write_cfg(tmp_path, cfg)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["field", "residual"])
    def test_overflowing_exponent_is_one_error_line(self, tmp_path, command):
        # a grid GridSpec accepts, but 4 * 8e307 overflows the exponent of
        # f's term at the tile centre: one error line, no NumPy warning
        cfg = dict(CANONICAL, grid={"x": [5e307, 8e307, 5],
                                    "t": [-1.0, 1.0, 3]})
        proc = subprocess.run(
            [sys.executable, "-m", "hirota_trace.cli", command,
             "--config", write_cfg(tmp_path, cfg)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: mode exponent outside double range on the grid x in "
            "[5e+307, 8e+307], t in [-1, 1]\n")

    def test_overflowing_residual_coefficient_is_one_error_line(self,
                                                                tmp_path):
        # 3 alpha = 3 lam sigma leaves double range although lam is finite
        cfg = dict(TWO_SOLITON, medium={"rho": 1.0, "sigma": 1.0,
                                        "lambda": 1.7e308},
                   grid={"x": [-5.0, 5.0, 21], "t": [-1.0, 1.0, 5]})
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "hirota_trace.cli", "residual",
             "--config", write_cfg(tmp_path, cfg)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: residual coefficients")
        assert proc.stderr.count("\n") == 1

    def test_determinism(self, canonical_path):
        runs = [subprocess.run(
            [sys.executable, "-m", "hirota_trace.cli", "residual",
             "--config", canonical_path], capture_output=True, text=True)
            for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout


def test_main_in_sequence_matches_fresh_processes(tmp_path, capsys):
    # main keeps one parser for the process: calls in sequence, whose
    # options and defaults differ, print what separate processes print
    nls = dict(CANONICAL, medium={"rho": 1.0, "sigma": 0.0, "lambda": 8.0},
               grid={"x": [-3.0, 3.0, 21], "t": [-0.5, 0.5, 5]},
               options={"series_order": 6})
    path = write_cfg(tmp_path, nls)
    parser = _build_parser()
    built = _build_parser.cache_info()
    runs = [["series", "--config", path, "--point=-1,0", "--max-order", "3"],
            ["series", "--config", path, "--point=-1,0"],
            ["residual", "--config", path, "--equation", "nls"],
            ["residual", "--config", path],
            ["identity"],
            ["identity", "--n-max", "2", "--seed", "5"],
            ["identity"]]
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-m", "hirota_trace.cli", *argv],
            capture_output=True, text=True)
        assert main(argv) == fresh.returncode == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
    after = _build_parser.cache_info()
    assert after.misses == built.misses
    assert after.hits == built.hits + len(runs)
    assert _build_parser() is parser
