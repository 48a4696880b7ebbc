"""fptsim benchmark: runs one named workload and prints its metrics.

    python3 perfbench/run.py --workload deep-a1 --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  The
workload runs in its own process (workload.py).  For the set-up time of the
in-process workloads, SETUP_REPEATS - 1 more processes stop at their first
sampling call and the median is reported.  Each metric is printed on a line
with its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, with --trace 1 the per-layer ones, and the spans are
written to perfbench/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import spec
import speed
from proc import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
# the workload process must end this long before DEADLINE_S, so that it can
# kill its own CLI calls before this process would kill it
CHILD_MARGIN_S = 20.0


def _child(args, deadline, setup_only=False):
    """(set-up seconds scaled to the reference speed, parsed last output line) of one
    workload process; set-up runs from the spawn to the first sampling call."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--deadline", repr(deadline - CHILD_MARGIN_S)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    code, out, err, probes = run_child(cmd, max(1.0, deadline - t_spawn))
    sys.stderr.write(err)
    if code != 0:
        raise SystemExit(f"workload process exited with code {code}")
    result = json.loads(out.strip().splitlines()[-1])
    if "t_first_sample" not in result:
        return None, result
    loops = [v for t, v in probes if t <= result["t_first_sample"]] or [speed.calibrate()]
    return (result["t_first_sample"] - t_spawn) * speed.scale(loops), result


def main():
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fptsim" / "__init__.py").is_file() or not spec.PATH.is_file():
        print(f"error: no fptsim sources under {ROOT / 'src'} or no {spec.PATH.name}",
              file=sys.stderr)
        return 2
    bench = spec.load()
    parser = argparse.ArgumentParser(description="fptsim benchmark")
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    speed.warm_up()
    setups = []
    if args.workload != "cli-a2" and not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child(args, deadline, setup_only=True)[0])
    setup_s, result = _child(args, deadline)

    if args.trace:
        values = result["layers"]
    else:
        setups = result["setups"] if args.workload == "cli-a2" else setups + [setup_s]
        values = {
            "draws_per_s": statistics.median(rate for rate, _ in result["rates"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }

    for name, ok, detail in result["checks"]:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} fail_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} {values[m['name']]:.6g} {m['unit']}")
    if args.trace:
        print(f"spans written to {result['trace_file']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
