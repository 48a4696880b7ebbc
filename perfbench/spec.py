"""BENCHMARK.json at the repository root: the benchmark's workloads and metrics."""

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load():
    return json.loads(PATH.read_text(encoding="utf-8"))


def workload_names():
    return [w["name"] for w in load()["workloads"]]
