"""End-to-end benchmark of the riskrules CLI, with a traced per-layer mode.

Run from the root of a checkout (riskrules need not be installed; the
benchmark puts ``src`` on the path itself):

    python3 perfbench/run.py --workload paper|scale|audit|all --seed N --seconds S --trace 0|1

Workloads (why each was chosen):

* ``paper`` -- the paper's configuration at n=1035: generate, validate,
  evaluate (goedel), evaluate --mixed, compare (3 operators) and sweep
  (3 operators x 11 thresholds). Fixed per-call costs are a large share
  here, and it is the only workload with the generate write path and
  with evaluate --mixed, which builds a proof trail per case.
* ``scale`` -- evaluate, compare and sweep on 100k cases, where per-case
  layers (parse, fold, decide, aggregate, McNemar) do nearly all the work.
* ``audit`` -- classify --case calls over distinct case files, cycling
  goedel, lukasiewicz, product and --mixed: the one-trail-per-request
  path, which a batch scoring path would bypass.

Each run sets its workload up several times, each time in a fresh
process (``setup_s`` is their median: interpreter start, ``import
riskrules``, input generation and writing), and the last of those
processes measures in a closed loop of passes over the workload's calls
(``pipeline_s`` is the median pass). Every output is checked against an
independent oracle and digested. The last stdout line is the JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Detailed results and spans go to ``.perfbench/results/``.

On paper and audit, whose calls take milliseconds, call and set-up times
are in seconds at a reference host speed: a fixed program-like probe
(see ``worker.HostProbe``) runs between calls and set-ups, and each time
is scaled by the reference probe time over the probe times around it. On a shared host
this removes most of the drift between runs; raw wall times are printed
beside them. scale's calls take seconds, and its times are raw wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
#: A run must end within this many seconds, its set-ups included.
RUN_LIMIT_S = 170.0

#: Metrics of the --trace 0 result line: the ones every workload has.
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}

#: Metrics of the --trace 1 result line. Layer times that are exactly
#: zero on some workload (for example load_case_ms outside audit) are
#: left out of it; the traced run's report prints them all.
PER_LAYER = {
    "cli.parse_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.out_bytes": "B",
    "rules.load_ms": "ms",
    "benchmark.cases_parsed": "count",
    "engine.chains_folded": "count",
    "engine.decide_s": "s",
    "engine.decisions": "count",
    "engine.proof_steps": "count",
    "engine.trail_use_ratio": "ratio",
    "engine.trail_bytes": "B",
    "evaluation.reports_built": "count",
    "evaluation.discordant_pairs": "count",
    "tnorms.scores_validated": "count",
    "tnorms.apply_calls": "count",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.calib_ms": "ms",
    "python.gc_collections": "count",
}

#: Per-command metric names in the human-readable report.
COMMAND_METRICS = {
    "generate": "generate_s", "validate": "validate_s", "evaluate": "evaluate_s",
    "evaluate_mixed": "evaluate_mixed_s", "compare": "compare_s", "sweep": "sweep_s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_bytes", "B"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment(root: Path) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "riskrules").glob("*.py*")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


def spawn(argv, root: Path, deadline: float) -> tuple[dict, float]:
    """Run one worker; return its result and its set-up time in seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = worker.ready_clock()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv, cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["t_ready"] - t0


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, n: int | None) -> dict:
    spec = worker.WORKLOADS[name]
    n = spec.n if n is None else n
    deadline = time.monotonic() + RUN_LIMIT_S
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    spans = results_dir / f"{name}-seed{seed}-spans.json"
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / ".perfbench"))
    host = worker.HostProbe(tmp) if spec.short_calls else None
    try:
        setup_times, setup_ref, inputs = [], [], []
        for i in range(1 if trace else spec.setups):
            argv = ["--root", str(root), "--workload", name, "--seed", str(seed), "--n", str(n),
                    "--dir", str(tmp / f"setup{i}")]
            last = i == (0 if trace else spec.setups - 1)
            if last:
                argv += ["--measure", "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
            before = host.probe() if host else None
            result, setup_s = spawn(argv, root, deadline)
            setup_times.append(setup_s)
            if host:  # scaled like the calls; the measuring worker probes right after its set-up
                after = result["probe_s"][0] if last else host.probe()
                setup_s *= 2 * worker.REFERENCE_PROBE_S / (before + after)
            setup_ref.append(setup_s)
            inputs.append(result["inputs"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(workload=name, seed=seed, n=n, seconds=seconds, trace=trace, setup_times=setup_times,
                  setup_ref=setup_ref)
    problems = [] if all(d == inputs[0] for d in inputs) else ["set-ups generated different inputs"]
    problems += check_digests(result, name, seed, n == spec.n)
    result["problems"] = problems
    return result


def check_digests(result: dict, name: str, seed: int, default_n: bool) -> list[str]:
    """Compare input and output digests with the values recorded for this seed, if any."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    want = recorded.get(name, {}).get(str(seed)) if default_n else None
    result["digests_recorded"] = want is not None
    if want is None:
        return []
    problems = []
    for kind in ("inputs", "outputs"):
        for key, digest in want[kind].items():
            if result[kind].get(key) != digest:
                problems.append(f"{kind[:-1]} {key}: sha256 {result[kind].get(key)} != recorded {digest}")
    return problems


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] if len(samples) > 1 else samples[0]


def summarise(result: dict) -> tuple[dict, list]:
    """The result-line metrics and the report rows (name, value, unit, samples)."""
    if result["trace"]:
        metrics = {k: result["per_layer"][k] for k in PER_LAYER}
        rows = [(k, v, unit_of(k), len(result["traced_passes"])) for k, v in result["per_layer"].items()]
        return metrics, rows
    passes = result["passes"]
    metrics = {
        "setup_s": statistics.median(result["setup_ref"]),
        "pipeline_s": statistics.median(result["passes_ref"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    rows = [("setup_s", metrics["setup_s"], "s", len(result["setup_times"])),
            ("setup_wall_s", statistics.median(result["setup_times"]), "s", len(result["setup_times"])),
            ("pipeline_s", metrics["pipeline_s"], "s", len(passes)),
            ("pipeline_wall_s", statistics.median(passes), "s", len(passes))]
    for label, samples in result["samples"].items():
        if label == "classify":
            rows += [("classify_p50_ms", statistics.median(samples) * 1e3, "ms", len(samples)),
                     ("classify_p99_ms", percentile(samples, 99) * 1e3, "ms", len(samples))]
        else:
            rows.append((COMMAND_METRICS[label], statistics.median(samples), "s", len(samples)))
    rows += [("peak_rss_mib", metrics["peak_rss_mib"], "MiB", 1),
             ("failed_ratio", result["failed"] / result["attempted"], "ratio", result["attempted"])]
    return metrics, rows


def report(result: dict, env: dict, rows) -> None:
    r = result
    print(f"== perfbench {r['workload']}  seed={r['seed']} n={r['n']} seconds={r['seconds']:g} "
          f"trace={r['trace']}")
    print(f"   env: git={env['git_sha']} src={env['src_sha256'][:12]} backend={r['backend']} "
          f"python={env['python']} nproc={env['nproc']} "
          f"host.calib_ms={r['probe_s'][0] * 1e3:.3f}->{r['probe_s'][-1] * 1e3:.3f} "
          f"(reference {worker.REFERENCE_PROBE_S * 1e3:g}, {len(r['probe_s'])} probes)")
    for kind in ("inputs", "outputs"):
        print(f"   {kind}: " + " ".join(f"{k}={v[:12]}" for k, v in r[kind].items()))
    print("   digests: " + ("checked against the values recorded for this seed"
                            if r["digests_recorded"] else "no recorded values for this seed and n"))
    print(f"   {'metric':<30} {'value':>14}  {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"   {name:<30} {value:>14.6g}  {unit:<6} {samples}")
    if r["trace"]:
        print("   per command: wall per call, self time share per layer, uncovered share")
        for label, b in r["breakdown"].items():
            shares = " ".join(f"{layer}={s / b['wall_s']:.1%}" for layer, s in b["layer_self_s"].items() if s)
            print(f"   {label:<15} {b['wall_s'] / b['calls'] * 1e3:10.2f} ms x{b['calls']}  {shares}  "
                  f"uncovered={b['uncovered_share']:.2%}  chains_folded/call={b['chains_folded'] / b['calls']:.0f} "
                  f"decisions/call={b['decisions'] / b['calls']:.0f}")
        print("   set-up spans: " + " ".join(f"{k}={v:.4f}s" for k, v in r["setup_trace"].items()))
    for problem in r["problems"] + r["errors"]:
        print(f"   FAIL: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="End-to-end and per-layer benchmark of the riskrules CLI.")
    p.add_argument("--workload", choices=sorted(worker.WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time per run; at least one pass always runs (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, help="override the workload's case count (digests are then not checked)")
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that spawn() stops its worker before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    if not (root / "src" / "riskrules" / "__init__.py").is_file():
        print(f"perfbench: no src/riskrules under {root}; run from the root of a riskrules checkout",
              file=sys.stderr)
        return 2
    env = environment(root)
    names = sorted(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(root, name, args.seed, args.seconds, args.trace, args.n)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        result["env"] = env
        metrics, rows = summarise(result)
        report(result, env, rows)
        out = root / ".perfbench" / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(dict(result, rows=rows), indent=1), encoding="utf-8")
        summary["correct"] &= not (result["problems"] or result["failed"] or result["input_errors"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
