"""Self-test of the benchmark: the law gate rejects wrong laws, and every workload
emits every metric name of BENCHMARK.json.

    python3 perfbench/selftest.py

Run from the repository root; takes about three minutes on 2 cores.  Exits 0
when every check holds and prints one PASS/FAIL line per check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fptsim as F  # noqa: E402

import configs  # noqa: E402
import gate  # noqa: E402
import spec  # noqa: E402

SEED = 4242  # self-test streams use ids 950 and up, which no workload uses
N = 2000


def _draws(config, stream_id):
    return F.sample_batch(config, N, F.RandomStream(SEED, stream_id))


def _fail_rate(checks):
    attempted, failed = gate.tally(N, 0, checks)
    return failed / attempted


def gate_cases():
    """(label, fail_rate, expect_failure) for right- and wrong-law samples."""
    ref = gate.load_reference("sine-L2")
    sine = configs.build(F, "sine-a1")
    right = _draws(sine, 950)
    wrong_level = _draws(configs.build(F, "sine-a1", level=2.2), 951)
    stream = F.RandomStream(SEED, 952)
    driftless = [F.draw_brownian_fpt(stream, 2.0).value for _ in range(N)]
    unit = F.SamplerConfig(x=0.0, L=2.0, model=F.constant_drift(1.0),
                           cert=F.BoundCertificate(kappa=0.5), variant="a1")
    unit_values = [d.value for d in _draws(unit, 953)]

    def sine_checks(draws):
        values = [d.value for d in draws]
        iters = [d.stats.iterations for d in draws]
        return [gate.ks_check(F, "ks", values, ref),
                gate.identity_check(F, "identity", iters, sine.model, 0.0, 2.0)]

    return [
        ("sine L=2 against the sine L=2 reference", _fail_rate(sine_checks(right)), False),
        ("sine L=2.2 against the sine L=2 reference", _fail_rate(sine_checks(wrong_level)), True),
        ("driftless hitting times against the sine L=2 reference",
         _fail_rate([gate.ks_check(F, "ks", driftless, ref)]), True),
        ("unit-drift a1 against the closed-form IG law",
         _fail_rate([gate.ig_check(F, "ig", unit_values, 2.0, 1.0)]), False),
        ("driftless hitting times against the closed-form IG law",
         _fail_rate([gate.ig_check(F, "ig", driftless, 2.0, 1.0)]), True),
        ("a comparator whose a2 scan costs more",
         _fail_rate(gate.compare_checks(2000, 150.0, 1500.0, 1780.0)), True),
    ]


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def emitted_names(workload, trace):
    """Metric names a one-second run prints in its last line, or None if it failed."""
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return set(result["metrics"]) if result["correct"] else None


def bare_directory_fails():
    """The benchmark must fail, and print no result, without the library sources."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "deep-a1", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main():
    ok = True

    def report(label, passed):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}", flush=True)

    for label, rate, expect_failure in gate_cases():
        passed = rate > 0.0 if expect_failure else rate == 0.0
        report(f"gate: {label}: fail_rate {rate:.4f}", passed)

    bench = spec.load()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"] for m in bench[key]}
        for workload in spec.workload_names():
            names = emitted_names(workload, trace)
            report(f"tiny run: {workload} --trace {trace} emits every {key} metric",
                   names == wanted)
    report("bare directory: run.py fails without printing a result", bare_directory_fails())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
