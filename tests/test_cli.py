"""Tests for the command-line front end: subcommands, CSV schemas, exit codes."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fptsim
from fptsim.cli import build_parser, main


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


def test_split_scan_verbose_reports_each_slice_count(tmp_path, monkeypatch, capsys):
    code = _run(tmp_path, monkeypatch,
                ["split-scan", *BASE, "--k", "1..3", "--n", "30", "--seed", "5",
                 "--out", "sc.csv", "--verbose"])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("k=")]
    assert [line.split(":")[0] for line in lines] == ["k=1", "k=2", "k=3"]
    means = [float(row[1]) for row in _rows(tmp_path / "sc.csv")[1:]]
    for line, mean in zip(lines, means):
        assert f"mean N_sigma {mean:.4g} +- " in line


def test_bench_runs_and_reports(tmp_path, monkeypatch, capsys):
    code = _run(tmp_path, monkeypatch,
                ["bench", *BASE, "--variant", "a1", "--n", "400", "--seed", "2",
                 "--out", "bench.csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean iterations" in out
    rows = _rows(tmp_path / "bench.csv")
    assert rows[0][0] == "n"


def test_split_bench_writes_no_identity(tmp_path, monkeypatch, capsys):
    # the iteration identity holds for unsplit runs only: a split run leaves
    # its three cells empty rather than report a z-score against a wrong target
    code = _run(tmp_path, monkeypatch,
                ["bench", *BASE, "--variant", "a1", "--k", "3", "--n", "200", "--seed", "2",
                 "--out", "bench.csv"])
    assert code == 0
    assert "identity" not in capsys.readouterr().out
    header, row = _rows(tmp_path / "bench.csv")
    cells = dict(zip(header, row))
    assert [cells[c] for c in ("identity_target", "z_score", "upper_bound")] == ["", "", ""]
    assert float(cells["mean_iterations"]) > 0 and float(cells["mean_total_points"]) > 0


def test_conditional_bench_writes_no_identity(tmp_path, monkeypatch, capsys):
    # a3 draws are conditioned on tau <= t0, and the identity does not hold for them
    code = _run(tmp_path, monkeypatch,
                ["bench", "--model", "neg-arctan", "--level", "1", "--variant", "a3",
                 "--t0", "1", "--scan-from", "-50", "--n", "400", "--seed", "1",
                 "--out", "bench.csv"])
    assert code == 0
    assert "identity" not in capsys.readouterr().out
    header, row = _rows(tmp_path / "bench.csv")
    cells = dict(zip(header, row))
    assert [cells[c] for c in ("identity_target", "z_score", "upper_bound")] == ["", "", ""]


def test_bench_identity_reads_gamma0_only_when_shifted(tmp_path, monkeypatch, capsys):
    # a1 ignores gamma0, so a gamma0 given to it moves neither the identity
    # nor the bound; a1-shift subtracts it: 225 exp(-2 sqrt(0.5)) = 54.7
    argv = ["bench", "--model", "sine", "--level", "2", "--kappa", "5",
            "--scan-from", "-50", "--n", "400", "--seed", "1", "--out", "b.csv"]
    runs = []
    for extra in ([], ["--gamma0", "0.25"], ["--variant", "a1-shift", "--gamma0", "0.25"]):
        assert _run(tmp_path, monkeypatch, [*argv, *extra]) == 0
        runs.append((capsys.readouterr().out, (tmp_path / "b.csv").read_bytes()))
    assert runs[1] == runs[0]
    assert "vs identity 225 " in runs[0][0]
    assert "vs identity 54.7 " in runs[2][0]


def test_validate_threshold_scales_with_n(tmp_path, monkeypatch, capsys):
    # at n = 200 an exact sampler's KS distance is ~0.06, far above the 0.02
    # that suits the default n = 10000; the threshold is 2/sqrt(n)
    code = _run(tmp_path, monkeypatch,
                ["validate", "--n", "200", "--seed", "1", "--scan-from", "-50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS, threshold 0.1414)") == 4


def test_invalid_combination_exits_2(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch,
                ["sample", "--model", "sine", "--level", "2", "--kappa", "5",
                 "--scan-from", "-50", "--variant", "a3", "--n", "5", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize("address", [["--seed", "-1"], ["--streams", "-3"],
                                     ["--seed", str(2**64)], ["--streams", str(2**64 + 5)]],
                         ids=["seed-neg", "streams-neg", "seed-wide", "streams-wide"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_stream_address_outside_64_bits_exits_2(address, workers, tmp_path, monkeypatch, capsys):
    # such an address used to be taken modulo 2**64 and draw another's draws
    code = _run(tmp_path, monkeypatch,
                ["sample", *BASE, "--variant", "a1", "--n", "5", "--workers", workers, *address])
    assert code == 2
    assert "seeds and stream ids lie in [0, 2**64)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_m_outside_a3_exits_2(tmp_path, monkeypatch, capsys):
    code = _run(tmp_path, monkeypatch,
                ["sample", *BASE, "--variant", "a1", "--m", "0.3", "--n", "5", "--seed", "1"])
    assert code == 2
    assert "--m only applies to variant a3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_descending_slice_range_exits_2(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, ["split-scan", *BASE, "--k", "5..3", "--n", "5"])
    assert err.value.code == 2
    assert "bad slice range '5..3'" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value", [("--kappa", "nan"), ("--level", "inf"),
                                         ("--scan-from", "nan"), ("--grid-step", "inf")])
def test_non_finite_bounds_and_grid_ends_exit_2(tmp_path, monkeypatch, capsys, flag, value):
    code = _run(tmp_path, monkeypatch,
                ["sample", *BASE, flag, value, "--n", "32", "--seed", "1"])
    assert code == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--scan-from=-1e300"],
                                  ["--scan-from", "-50", "--grid-step", "1e-300"]],
                         ids=["wide", "fine"])
def test_unwalkable_certification_grid_exits_2(tmp_path, monkeypatch, capsys, grid):
    # a finite grid of ~1e303 or ~5e301 points once ran until killed
    code = _run(tmp_path, monkeypatch,
                ["sample", "--model", "constant:mu=1", "--level", "2", "--kappa", "0.5",
                 *grid, "--n", "1"])
    assert code == 2
    assert "grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# every catalog model and every variant, split and rho included, through the
# library's set-up, certification, sampling and comparator
NO_SCIPY_LIBRARY = """
import fptsim, fptsim.cli
from fptsim import (BoundCertificate, GammaField, RandomStream, SamplerConfig,
                    certify_bounds, delta_compare, model_from_spec, sample_batch,
                    scan_gamma_range, truncate_drift, validate_config)
from fptsim.drift import _CATALOG
from fptsim.samplers import VARIANTS

CASES = [  # spec, variant, split_k, rho, t0
    ("constant:mu=1", "a1", 1, None, None), ("constant:mu=1", "a2-shift", 1, None, None),
    ("sine", "a1", 1, None, None), ("sine", "a1", 4, None, None),
    ("sine", "a2", 1, None, None), ("sine", "a1-shift", 1, None, None),
    ("arctan-shift", "a2", 1, None, None), ("neg-arctan", "a3", 1, None, 2.0),
    ("ou:alpha=0.3,beta=1", "a1", 1, 5.0, None), ("ou:alpha=0.3,beta=1", "a2", 1, 5.0, None)]
assert {case[0].partition(":")[0] for case in CASES} == set(_CATALOG)
assert {case[1] for case in CASES} == set(VARIANTS)
for spec, variant, split_k, rho, t0 in CASES:
    model = model_from_spec(spec)
    effective = truncate_drift(model, rho) if rho is not None else model
    # the margin on kappa covers the fields' approach to their sup below the grid
    gmin, gmax = scan_gamma_range(effective, 1.0, lo=-2000.0, grid_step=1e-2)
    cert = BoundCertificate(kappa=gmax + 1e-2,
                            gamma0=gmin - 1e-6 if variant.endswith("-shift") else 0.0,
                            m=max(0.0, -gmin) + 1e-6 if variant == "a3" else 0.0,
                            domain_hint=-2000.0)
    assert certify_bounds(GammaField(effective), cert, grid_step=1e-2, level=1.0).passed
    config = SamplerConfig(x=0.0, L=1.0, model=model, cert=cert, variant=variant,
                           split_k=split_k, t0=t0, rho=rho)
    validate_config(config)
    assert len(sample_batch(config, 20, RandomStream(1))) == 20
    if (spec, variant, split_k) == ("sine", "a1", 1):
        assert delta_compare(config, 20, RandomStream(2)).n == 20
"""

NO_SCIPY_CLI = """
from fptsim.cli import main
assert main(["sample", "--model", "sine", "--level", "2", "--scan-from", "-50",
             "--n", "8", "--workers", "2", "--seed", "1"]) == 0
"""

# the recurrence probes: p on the sine grid, the v branch of a drift away
# from the level, and a drift with no closed-form beta
NO_SCIPY_RECURRENCE = """
import numpy as np
from fptsim import constant_drift, custom_drift, recurrence_diagnostic, sine_drift
bare = custom_drift(lambda y: 2.0 + np.sin(y), np.cos)
for model, answer in ((sine_drift(), "yes"), (constant_drift(-1.0), "no"), (bare, "yes")):
    assert recurrence_diagnostic(model).verdict.startswith("recurrent: " + answer)
"""

# geometric BM through the Lamperti map: certified, sampled and probed
NO_SCIPY_LAMPERTI = """
import numpy as np
from fptsim import (BoundCertificate, GammaField, RandomStream, SamplerConfig,
                    certify_bounds, lamperti_drift, recurrence_diagnostic, sample_batch)
gbm = lamperti_drift(lambda y: 0.5 * y, lambda y: 0.5 + 0.0 * y, lambda y: 0.5 * y,
                     lambda y: 0.5 + 0.0 * y, lambda y: 0.0 * y, lambda z: np.exp(0.5 * z))
cert = BoundCertificate(kappa=0.5, domain_hint=-100.0)
assert certify_bounds(GammaField(gbm), cert, level=2.0).passed
config = SamplerConfig(x=0.0, L=2.0, model=gbm, cert=cert, variant="a1")
assert len(sample_batch(config, 40, RandomStream(1))) == 40
assert recurrence_diagnostic(gbm).verdict.startswith("recurrent: yes")
"""

# beta and the scale function by the numpy quadrature, read by the rho bound
# and the iteration identity
NO_SCIPY_QUADRATURE = """
import numpy as np
from fptsim import (custom_drift, eval_beta, eval_scale_p, iteration_identity_target,
                    ou_drift, rho_distance_bound)
bare = custom_drift(lambda y: 2.0 + np.sin(y), np.cos)
assert abs(eval_beta(bare, -3.0) - (-5.0 - np.cos(3.0))) < 1e-9
assert eval_scale_p(ou_drift(0.3, 1.0), -5.0) < -5.0
assert 0.0 < rho_distance_bound(ou_drift(0.3, 1.0), 0.0, 1.0, 5.0) < 1.0
assert iteration_identity_target(bare, 0.0, 2.0) > 1.0
"""


def _src_env():
    """The environment of a fresh interpreter that imports this fptsim."""
    src = str(Path(fptsim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("script", [NO_SCIPY_LIBRARY, NO_SCIPY_CLI, NO_SCIPY_RECURRENCE,
                                    NO_SCIPY_LAMPERTI, NO_SCIPY_QUADRATURE],
                         ids=["library", "cli", "recurrence", "lamperti", "quadrature"])
def test_import_certification_and_sampling_load_no_scipy(tmp_path, script):
    # scipy is imported by the CDF and chi-square helpers only;
    # a fresh interpreter shows what the set-up and sampling path loaded
    check = ("\nimport sys\nloaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
             "\nassert not loaded, f'{len(loaded)} scipy modules loaded: {loaded[:4]}'\n")
    done = subprocess.run([sys.executable, "-c", script + check], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_sample_into_a_closed_pipe_writes_the_csv_and_exits_quietly(tmp_path, monkeypatch):
    # stdout is a pipe whose reader has gone, as once ``| head -1`` exits:
    # the printed report is lost, but the CSV is still written in full, and
    # the command exits 0 with no traceback
    argv = ["sample", *BASE, "--variant", "a1", "--n", "50", "--seed", "42", "--verbose"]
    _run(tmp_path, monkeypatch, argv + ["--out", "ref.csv"])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "fptsim.cli", *argv, "--out", "s.csv"],
                              cwd=tmp_path, env=_src_env(), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.slow
def test_validate_suite_passes(tmp_path, monkeypatch):
    assert _run(tmp_path, monkeypatch, ["validate", "--seed", "11"]) == 0


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


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "constant:mu=1", "--level", "2", "--scan-from", "-50",
     "--kappa", "0.5", "--n", "3", "--out", "s.csv"],
    ["sample", "--model", "constant:mu=1", "--level", "2", "--scan-from", "-50",
     "--n", "3", "--out", "s.csv"],
    ["validate", "--scan-from", "-50", "--n", "200", "--seed", "1"],
], ids=["kappa", "derived", "validate"])
def test_sample_scans_the_grid_once(tmp_path, monkeypatch, argv):
    # deriving the bounds and certifying them share one pass over gamma's
    # range, and validate's four suites share one certified claim
    import fptsim.cli as cli
    import fptsim.drift as drift
    calls = []
    real = drift._gamma_range

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(drift, "_gamma_range", counted)
    monkeypatch.setattr(cli, "_gamma_range", counted)
    assert _run(tmp_path, monkeypatch, argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("variant", ["a1", "a1-shift"])
def test_derived_bounds_pass_their_own_certificate(variant):
    # the derived kappa and gamma0 come from the range certification judges,
    # so at no scan start does the CLI reject the bounds it derived itself
    from fptsim.cli import _resolve
    parser = build_parser()
    for lo in range(-10, -61, -1):
        args = parser.parse_args(["sample", "--model", "sine", "--level", "2",
                                  "--variant", variant, f"--scan-from={lo}"])
        assert _resolve(args).cert.domain_hint == lo


@pytest.mark.parametrize("command", ["sample", "validate", "bench", "split-scan", "compare"])
def test_nonpositive_n_exits_2(tmp_path, monkeypatch, capsys, command):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, [command, *BASE, "--n", "0"])
    assert err.value.code == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--bins", "0"), ("--workers", "-3")])
def test_nonpositive_bins_and_workers_exit_2(tmp_path, monkeypatch, capsys, flag, value):
    # argparse rejects the value before a draw is made or a file written
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch,
             ["sample", *BASE, "--n", "2000", "--hist", "h.csv", flag, value])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


RUN_FLAGS = ["--n", "--seed", "--streams", "--scan-from", "--grid-step",
             "--max-iterations", "--verbose"]
CONFIG_FLAGS = ["--model", "--x", "--level", "--variant", "--kappa", "--gamma0", "--m",
                "--t0", "--rho", "--out"]
FLAGS_READ = {
    "sample": CONFIG_FLAGS + RUN_FLAGS + ["--k", "--workers", "--hist", "--bins"],
    "bench": CONFIG_FLAGS + RUN_FLAGS + ["--k", "--workers"],
    "split-scan": CONFIG_FLAGS + RUN_FLAGS + ["--k"],
    "compare": CONFIG_FLAGS + RUN_FLAGS,
    "validate": RUN_FLAGS,
}


@pytest.mark.parametrize("command", sorted(FLAGS_READ))
def test_help_lists_exactly_the_flags_read(capsys, command):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([command, "--help"])
    assert err.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == set(FLAGS_READ[command])


# a valid value for every flag some subcommand does not read
DROPPED = {"--model": "constant:mu=1", "--x": "0", "--level": "2", "--variant": "a1",
           "--kappa": "0.5", "--gamma0": "0.5", "--m": "0.1", "--t0": "1", "--rho": "3",
           "--k": "3", "--workers": "2", "--out": "o.csv", "--hist": "h.csv", "--bins": "12"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in sorted(FLAGS_READ) for flag in DROPPED
    if flag not in FLAGS_READ[command]])
def test_subcommand_rejects_flags_it_does_not_read(capsys, command, flag):
    # validate fixes its own model and bounds; the other commands need theirs
    base = [] if command == "validate" else ["--model", "sine", "--level", "2"]
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([command, *base, flag, DROPPED[flag]])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} {DROPPED[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compare", "--model", "sine", "--level", "2", "--k", "20"],  # not --kappa 20
    ["sample", *BASE, "--lev", "3"],                             # not --level 3
    ["sample", *BASE, "--max-iter", "5"],                        # not --max-iterations 5
], ids=["k-kappa", "lev-level", "max-iter"])
def test_flags_are_spelled_in_full(capsys, argv):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_package_has_every_name_the_benchmark_reads():
    # perfbench/ reaches the package only as ``F.<name>`` and changes on its
    # own schedule, so deleting one of these names would break the benchmark
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = {name for path in bench.glob("*.py")
             for name in re.findall(r"\bF\.([A-Za-z_]\w*)", path.read_text())}
    assert names
    assert sorted(name for name in names if not hasattr(fptsim, name)) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_workers_share_the_cpus(workers, monkeypatch):
    # each of w workers makes its refill waves on c // w of the c CPUs, so
    # workers that fill the machine start no refill helper
    from fptsim import cli, rng
    monkeypatch.setattr(rng, "_CPUS", rng._CPUS)
    cli._share_cpus(workers)
    assert rng._CPUS == len(os.sched_getaffinity(0)) // workers
