"""Tests for the command-line front end: subcommands, CSV schemas, exit codes."""

import csv

import pytest

from fptsim.cli import main


def _run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BASE = ["--model", "constant:mu=1", "--x", "0", "--level", "2",
        "--kappa", "0.5", "--scan-from", "-50"]


def test_sample_writes_csv_with_schema(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["sample", *BASE, "--variant", "a1", "--n", "50", "--seed", "42",
                 "--out", "s.csv"])
    assert code == 0
    rows = _rows(tmp_path / "s.csv")
    assert rows[0] == ["index", "value", "iterations", "total_points"]
    assert len(rows) == 51
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(50)]


def test_sample_rerun_is_byte_identical(tmp_path, monkeypatch):
    argv = ["sample", *BASE, "--variant", "a1", "--n", "80", "--seed", "7"]
    _run(tmp_path, monkeypatch, argv + ["--out", "a.csv"])
    _run(tmp_path, monkeypatch, argv + ["--out", "b.csv"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sample_workers_do_not_change_output(tmp_path, monkeypatch):
    argv = ["sample", *BASE, "--variant", "a1", "--n", "60", "--seed", "3"]
    _run(tmp_path, monkeypatch, argv + ["--out", "w1.csv"])
    _run(tmp_path, monkeypatch, argv + ["--workers", "3", "--out", "w3.csv"])
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


def test_sample_histogram_output(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["sample", *BASE, "--variant", "a1", "--n", "200", "--seed", "1",
                 "--out", "s.csv", "--hist", "h.csv", "--bins", "12"])
    assert code == 0
    rows = _rows(tmp_path / "h.csv")
    assert rows[0] == ["bin_left", "bin_right", "density"]
    assert len(rows) == 13


def test_compare_writes_delta_schema(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["compare", "--model", "sine", "--level", "2", "--kappa", "5",
                 "--scan-from", "-50", "--n", "60", "--seed", "5", "--out", "d.csv"])
    assert code == 0
    rows = _rows(tmp_path / "d.csv")
    assert rows[0] == ["n", "mean_delta", "std_delta", "t_stat", "ratio"]
    assert rows[1][0] == "60"


def test_split_scan_schema_and_sweep(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["split-scan", "--model", "sine", "--level", "2", "--kappa", "5",
                 "--scan-from", "-50", "--k", "2..4", "--n", "60", "--seed", "5",
                 "--out", "sc.csv"])
    assert code == 0
    rows = _rows(tmp_path / "sc.csv")
    assert rows[0] == ["k", "mean_total_points", "stderr"]
    assert [r[0] for r in rows[1:]] == ["2", "3", "4"]


def test_bench_runs_and_reports(tmp_path, monkeypatch, capsys):
    code = _run(tmp_path, monkeypatch,
                ["bench", *BASE, "--variant", "a1", "--n", "400", "--seed", "2",
                 "--out", "bench.csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean iterations" in out
    rows = _rows(tmp_path / "bench.csv")
    assert rows[0][0] == "n"


def test_invalid_combination_exits_2(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["sample", "--model", "sine", "--level", "2", "--kappa", "5",
                 "--scan-from", "-50", "--variant", "a3", "--n", "5", "--seed", "1"])
    assert code == 2


def test_failed_certificate_exits_2(tmp_path, monkeypatch):
    # kappa=1 does not bound the sine field (max ~4.54)
    code = _run(tmp_path, monkeypatch,
                ["sample", "--model", "sine", "--level", "2", "--kappa", "1",
                 "--scan-from", "-50", "--n", "5", "--seed", "1"])
    assert code == 2


def test_budget_exhaustion_exits_3(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["sample", "--model", "sine", "--level", "2", "--kappa", "5",
                 "--scan-from", "-50", "--n", "5", "--seed", "1",
                 "--max-iterations", "1"])
    assert code == 3


def test_shift_without_floor_exits_2(tmp_path, monkeypatch):
    # neg-arctan has gamma min < 0: no positive floor exists for the shift
    code = _run(tmp_path, monkeypatch,
                ["sample", "--model", "neg-arctan", "--level", "1",
                 "--variant", "a1-shift", "--scan-from", "-50",
                 "--n", "5", "--seed", "1"])
    assert code == 2


@pytest.mark.slow
def test_validate_suite_passes(tmp_path, monkeypatch):
    assert _run(tmp_path, monkeypatch,
                ["validate", "--model", "constant:mu=1", "--level", "2",
                 "--seed", "11"]) == 0


@pytest.mark.slow
def test_split_scan_has_interior_minimum(tmp_path, monkeypatch):
    # at a high level the cost first falls then rises again with the slice
    # count, so the sweep's minimum sits strictly inside the scanned range
    code = _run(tmp_path, monkeypatch,
                ["split-scan", "--model", "sine", "--level", "5", "--kappa", "5",
                 "--scan-from", "-50", "--k", "4..40", "--n", "300",
                 "--seed", "9", "--out", "scan5.csv"])
    assert code == 0
    rows = _rows(tmp_path / "scan5.csv")[1:]
    ks = [int(r[0]) for r in rows]
    means = [float(r[1]) for r in rows]
    best = ks[means.index(min(means))]
    assert ks[0] < best < ks[-1]


@pytest.mark.parametrize("command", ["sample", "validate", "bench", "split-scan", "compare"])
def test_nonpositive_grid_step_exits_2(tmp_path, monkeypatch, capsys, command):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, [command, *BASE, "--grid-step", "0"])
    assert err.value.code == 2
    assert "--grid-step" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", [["--kappa", "0.5"], []], ids=["kappa", "derived"])
def test_sample_scans_the_grid_once(tmp_path, monkeypatch, kappa):
    # deriving the bounds and certifying them share one pass over the grid
    import fptsim.cli as cli
    import fptsim.drift as drift
    calls = []
    real = drift._scan_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(drift, "_scan_grid", counted)
    monkeypatch.setattr(cli, "_scan_grid", counted)
    argv = ["sample", "--model", "constant:mu=1", "--level", "2", "--scan-from", "-50",
            *kappa, "--n", "3", "--out", "s.csv"]
    assert _run(tmp_path, monkeypatch, argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["sample", "validate", "bench", "split-scan", "compare"])
def test_nonpositive_n_exits_2(tmp_path, monkeypatch, capsys, command):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, [command, *BASE, "--n", "0"])
    assert err.value.code == 2
    assert "--n" in capsys.readouterr().err
