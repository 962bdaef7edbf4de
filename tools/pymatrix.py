"""Run tier-1 under several Python interpreters, with nothing installed.

    python3 tools/pymatrix.py --site-packages DIR PYTHON [PYTHON ...]

``DIR`` provides pytest and hypothesis. Both are pure Python, so one
interpreter's ``site-packages`` serves the others. Each ``PYTHON`` runs
the tier-1 suite with ``src`` and ``DIR`` on its path and warnings as
errors, as CI does. An interpreter that cannot import pytest from there
(an older Python may lack a backport pytest needs, such as
``exceptiongroup``) runs the benchmark's digest check instead,
``perfbench/run.py --workload all --seed 1 --seconds 0``, so its output
bytes are still checked. Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
DIGEST_CHECK = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0"]
PROBE = "import sys; print(sys.version.split()[0]); import pytest"


def run(python: str, site_packages: str) -> tuple[str, bool]:
    """Run tier-1, or the digest check, under ``python``; return what ran
    and whether it passed."""
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), site_packages]))
    try:
        probe = subprocess.run([python, "-c", PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True)
    except OSError as exc:
        return f"{python}: cannot run ({exc.strerror})", False
    version = probe.stdout.strip() or "?"
    if probe.returncode == 0:
        what, argv = "tier-1", TIER1
    else:
        reason = (probe.stderr.strip().splitlines() or ["no output"])[-1]
        what, argv = f"digest check (pytest does not import: {reason})", DIGEST_CHECK
    label = f"{python} ({version}): {what}"
    print(f"== {label}", flush=True)
    return label, subprocess.run([python, *argv], env=env, cwd=ROOT).returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--site-packages", required=True, metavar="DIR",
                        help="directory that provides pytest and hypothesis")
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter to run")
    args = parser.parse_args(argv)
    results = [run(python, args.site_packages) for python in args.pythons]
    print("\n== summary")
    for label, ok in results:
        print(f"{'pass' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
