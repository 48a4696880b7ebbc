"""Regenerate the reference samples in perfbench/reference/ that the law gate tests against.

Run from the repository root:

    python3 perfbench/make_reference.py

Each sample holds REF_SIZE exact draws of its configuration at seed REF_SEED
on a stream id no workload uses (see configs.py), stored as float32: the KS
distance does not need more digits.  Takes about 25 s on a 2-core x86 box.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fptsim as F  # noqa: E402

import configs  # noqa: E402
from gate import REFERENCE_DIR  # noqa: E402


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, config_name in configs.REF_CONFIG.items():
        config = configs.build(F, config_name)
        stream = F.RandomStream(configs.REF_SEED, configs.REF_STREAM[name])
        draws = F.sample_batch(config, configs.REF_SIZE, stream)
        values = np.array([d.value for d in draws], dtype=np.float32)
        np.save(REFERENCE_DIR / f"{name}.npy", values)
        print(f"{name}: {len(values)} draws of {config_name}, mean {values.mean():.5f}")


if __name__ == "__main__":
    main()
