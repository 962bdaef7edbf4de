"""Record the input and output digests that run.py checks for the default seeds.

Run from the root of a checkout whose outputs are known to be right,
only when the inputs or outputs are meant to change:

    python3 perfbench/record_digests.py [--seeds 1-10]

Each workload runs one pass per seed at its default size. Rewrites
perfbench/digests.json; refuses if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import worker


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    lo, hi = map(int, args.seeds.split("-"))
    root = Path.cwd().resolve()
    table = {}
    for name in worker.WORKLOADS:
        for seed in range(lo, hi + 1):
            result = run.run_workload(root, name, seed, 0.0, 0, None)
            if result["failed"] or result["input_errors"]:
                print(f"{name} seed {seed}: output checks failed: {result['errors']}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {"inputs": result["inputs"], "outputs": result["outputs"]}
            print(f"{name} seed {seed}: recorded", flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
