"""Fast self-test of the benchmark: tiny inputs, one pass per workload.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402

N = 48  # small enough for a few seconds per run, large enough for every case type


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy of the files the benchmark sees: BENCHMARK.json, perfbench/ and src/."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "*.so", "*.c")
    shutil.copytree(REPO / "src", root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", root)
    return root


def bench(root: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def results(root: Path, workload: str, seed: int, trace: int) -> dict:
    path = root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.worker.WORKLOADS)


def test_untraced_pass_of_every_workload_is_correct(checkout):
    code, out = bench(checkout, "--workload", "all", "--seed", "7", "--seconds", "0", "--n", str(N))
    line = json.loads(out[-1])
    assert code == 0 and line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {f"{w}.{m}" for w in run.worker.WORKLOADS for m in run.END_TO_END}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    printed = {row.split()[0] for row in out}
    for name in ("setup_s", "pipeline_s", "generate_s", "validate_s", "evaluate_s", "evaluate_mixed_s",
                 "compare_s", "sweep_s", "classify_p50_ms", "classify_p99_ms", "peak_rss_mib",
                 "failed_ratio"):
        assert name in printed


def test_traced_run_counts_match_the_analytic_values(checkout):
    code, out = bench(checkout, "--workload", "all", "--seed", "7", "--seconds", "0", "--n", str(N),
                      "--trace", "1")
    line = json.loads(out[-1])
    assert code == 0 and line["correct"]
    assert set(line["metrics"]) == {f"{w}.{m}" for w in run.worker.WORKLOADS for m in run.PER_LAYER}
    rules = 14
    calls = results(checkout, "scale", 7, 1)["breakdown"]
    assert [calls[c]["chains_folded"] for c in ("evaluate", "compare", "sweep")] == \
        [N * rules, 3 * N * rules, 3 * N * rules]
    assert [calls[c]["decisions"] for c in ("evaluate", "compare", "sweep")] == [N, 3 * N, 33 * N]
    audit = results(checkout, "audit", 7, 1)["per_layer"]
    assert audit["engine.trail_use_ratio"] == 1.0
    assert results(checkout, "paper", 7, 1)["per_layer"]["engine.trail_use_ratio"] == 0.0


def test_recorded_digest_mismatch_fails_the_run(checkout, tmp_path):
    root = tmp_path / "c"
    shutil.copytree(checkout, root, ignore=shutil.ignore_patterns(".perfbench"))
    (root / "perfbench" / "digests.json").write_text(json.dumps(
        {"paper": {"3": {"inputs": {"dataset.jsonl": "0" * 64}, "outputs": {}}}}))
    code, out = bench(root, "--workload", "paper", "--seed", "3", "--seconds", "0")
    assert code == 1 and json.loads(out[-1])["correct"] is False


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    code, out = bench(tmp_path, "--workload", "paper", "--seed", "1", "--seconds", "1")
    assert code != 0 and not any(line.startswith("{") for line in out)


# -- the oracle itself -------------------------------------------------------

def test_lukasiewicz_fold_short_circuits_on_one():
    x = 0.30000000000000004
    assert oracle.fold("lukasiewicz", [1.0, x]) == x
    assert oracle.fold("lukasiewicz", [0.7, 0.6, 0.9]) == max(0.0, 0.7 + 0.6 - 1.0 + 0.9 - 1.0)
    assert oracle.fold("goedel", [0.7, 0.2, 0.9]) == 0.2


def test_mcnemar_matches_enumeration():
    from math import comb
    for b, c in ((0, 0), (3, 9), (12, 4), (40, 41)):
        n = b + c
        tail = sum(comb(n, k) for k in range(min(b, c) + 1))
        assert oracle.mcnemar(b, c)["p_one_sided"] == tail / 2 ** n


def test_checks_reject_a_wrong_report():
    tally = oracle.Tally()
    tally.add("high_risk", "high_risk", "clear")
    tally.add("minimal_risk", "high_risk", "marginal")
    good = tally.report()
    assert oracle.check_evaluate(json.dumps(good).encode(), good, "t") == []
    bad = dict(good, fp_count=0)
    assert oracle.check_evaluate(json.dumps(bad).encode(), good, "t")
    assert oracle.check_evaluate(b"not json", good, "t")
