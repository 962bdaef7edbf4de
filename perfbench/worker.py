"""One benchmark process: set up a workload's inputs, then optionally measure it.

run.py starts this script once per set-up, each time in a fresh
interpreter, so interpreter start and ``import riskrules`` are part of
set-up and are not paid once per CLI call. The last process of a run
also measures: it calls ``riskrules.cli.main(argv)`` in-process, from
one thread, in a closed loop (the next call starts when the previous one
returned), with ``--out`` pointing at a scratch file. Output checks and
digests run between calls, outside the timed region.

Usage (run.py passes these):
    python3 perfbench/worker.py --root ROOT --workload NAME --seed N --n CASES --dir DIR
        [--measure --seconds S --trace 0|1 --spans PATH]

It prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import oracle
import tracing

OPS = ("lukasiewicz", "product", "goedel")
SWEEP = ("0.25", "0.75", "0.05")
#: classify modes the audit workload cycles through.
MODES = ("goedel", "lukasiewicz", "product", "mixed")
#: Distinct case files the audit workload draws from its dataset.
AUDIT_CASES = 64


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ready_clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: Probe time on a quiet 2-vCPU Xeon VM under CPython 3.11; scaled
#: timings read as seconds on such a host.
REFERENCE_PROBE_S = 0.0060
#: Least time between two host probes in a measuring loop.
PROBE_EVERY_S = 0.25


class HostProbe:
    """How fast the host runs a fixed, CLI-like piece of work right now.

    A shared host's speed flips by tens of percent within seconds and
    drifts over minutes, so raw wall times of millisecond calls differ
    from run to run by more than the changes the benchmark must resolve.
    The probe (about 7 ms) does what a CLI call does, with the standard
    library and the oracle only, so a change to the program cannot move
    it: it builds and runs an argparse parser, writes a proof-trail-like
    JSON file and reads it back, and folds and decides rule chains over
    JSON records. Probed between calls at most PROBE_EVERY_S apart, it
    tracks the host closely enough to scale each call by the reference
    probe time over the probe times just before and after it.
    """

    def __init__(self, scratch: Path):
        self.file = scratch / "probe.json"
        rng = random.Random(2603)
        conditions = [f"c{i}" for i in range(22)]
        self.rules = [oracle.Rule(f"r{i}", oracle.CATEGORIES[i % 3], tuple(rng.sample(conditions, 3)),
                                  0.5, None) for i in range(14)]
        self.lines = [json.dumps({"scores": {c: rng.random() for c in rng.sample(conditions, 3)}})
                      for _ in range(20)]
        self.trail = {"rules": [{"rule_id": r.rule_id, "score": 0.5, "steps": [
            {"step_index": i, "condition_id": c, "accumulated": 0.25, "missing_condition": False}
            for i, c in enumerate(r.conditions)]} for r in self.rules]}
        self.starts, self.values = [], []

    def _once(self) -> None:
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("classify", "evaluate", "compare", "sweep", "generate", "validate"):
            p = sub.add_parser(name)
            p.add_argument("--case")
            p.add_argument("--rules", default="default")
            p.add_argument("--out")
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--tnorm", choices=OPS)
            group.add_argument("--mixed", action="store_true")
        parser.parse_args(["classify", "--case", "case.json", "--tnorm", "goedel", "--out", "out.json"])
        self.file.write_text(json.dumps(self.trail, indent=2) + "\n", encoding="utf-8")
        json.loads(self.file.read_text(encoding="utf-8"))
        for line in self.lines:
            scores = json.loads(line)["scores"]
            oracle.decide(self.rules, oracle.chain_scores(self.rules, scores, "goedel"))

    def probe(self) -> float:
        """Run the probe; record and return its time in seconds."""
        t0 = perf_counter()
        self._once()
        self._once()
        self.starts.append(t0)
        self.values.append(perf_counter() - t0)
        return self.values[-1]

    def maybe_probe(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the mean of the probes around [start, end]."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        return 2 * REFERENCE_PROBE_S / (self.values[before] + self.values[after])


@dataclasses.dataclass(frozen=True)
class Call:
    label: str       # metric group, e.g. "compare"
    key: str         # identity of the call: identical keys must give identical output
    argv: tuple
    out: Path


class Workload:
    """Inputs, call sequence and output checks of one workload."""

    def __init__(self, d: Path, seed: int, n: int):
        self.dir, self.seed, self.n = d, seed, n
        self.out_dir = d / "out"
        self.dataset = d / "dataset.jsonl"
        self.rules = d / "rules.json"
        self.rules_mixed = d / "rules_mixed.json"

    def setup(self, rr) -> None:
        """Generate and write the inputs with the program's own generator."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        dataset = rr.benchmark.generate_synthetic(self.n, self.seed)
        self.dataset.write_text(rr.benchmark.dataset_to_jsonl(dataset), encoding="utf-8")
        default = rr.rules.default_ruleset()
        self.rules.write_text(rr.rules.ruleset_to_json(default), encoding="utf-8")
        # The default rules annotated for mixed mode: prohibited rules
        # demand joint confirmation (strong), all others are bottlenecks.
        std = rr.rules.ConjunctionStandard
        annotated = rr.rules.RuleSet(default.vocabulary, tuple(
            dataclasses.replace(r, standard=std.STRONG if r.category.value == "prohibited"
                                else std.BOTTLENECK)
            for r in default.rules))
        self.rules_mixed.write_text(rr.rules.ruleset_to_json(annotated), encoding="utf-8")

    def input_digests(self) -> dict:
        return {p.name: sha256(p.read_bytes()) for p in (self.dataset, self.rules, self.rules_mixed)}

    def prepare_checks(self) -> list[str]:
        """Compute what the outputs must be; returns errors in the inputs."""
        return []

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def check(self, call: Call, data: bytes) -> list[str]:
        raise NotImplementedError

    def cross_check(self, outputs: dict) -> list[str]:
        return []

    def output_digests(self, digests: dict) -> dict:
        """What a result records of the per-call output digests."""
        return dict(digests)


class DatasetWorkload(Workload):
    """paper and scale: dataset commands whose reports the oracle recomputes."""

    def __init__(self, d, seed, n, commands):
        super().__init__(d, seed, n)
        self.commands = commands

    def prepare_checks(self):
        rules = oracle.read_rules(self.rules)
        mixed = oracle.read_rules(self.rules_mixed) if "evaluate_mixed" in self.commands else None
        self.expect = oracle.DatasetExpectation(rules, self.dataset, OPS, mixed,
                                                tuple(map(float, SWEEP)))
        if "generate" in self.commands:
            self.dataset_bytes = self.dataset.read_bytes()
        return oracle.check_dataset(self.expect, self.n)

    def calls(self):
        ds = str(self.dataset)
        ops = ",".join(OPS)
        argv = {
            "generate": ("generate", "--n", str(self.n), "--seed", str(self.seed)),
            "validate": ("validate", "--dataset", ds),
            "evaluate": ("evaluate", "--dataset", ds, "--tnorm", "goedel"),
            "evaluate_mixed": ("evaluate", "--dataset", ds, "--rules", str(self.rules_mixed), "--mixed"),
            "compare": ("compare", "--dataset", ds, "--tnorms", ops),
            "sweep": ("sweep", "--dataset", ds, "--tnorms", ops, "--theta-min", SWEEP[0],
                      "--theta-max", SWEEP[1], "--theta-step", SWEEP[2]),
        }
        return [Call(c, c, argv[c] + ("--out", str(self.out_dir / c)), self.out_dir / c)
                for c in self.commands]

    def check(self, call, data):
        e = self.expect
        if call.label == "generate":
            return [] if data == self.dataset_bytes else \
                ["generate: output differs from the set-up dataset of the same n and seed"]
        if call.label == "validate":
            return oracle.check_validate(data, e)
        if call.label == "evaluate":
            return oracle.check_evaluate(data, e.reports["goedel"].report(), "evaluate")
        if call.label == "evaluate_mixed":
            return oracle.check_evaluate(data, e.mixed.report(), "evaluate --mixed")
        if call.label == "compare":
            return oracle.check_compare(data, e)
        return oracle.check_sweep(data, e)

    def cross_check(self, outputs):
        return oracle.cross_check(outputs)


class AuditWorkload(Workload):
    """audit: one classify --case call per request, cycling operators and mixed mode."""

    def setup(self, rr):
        super().setup(rr)
        cases = self.dir / "cases"
        cases.mkdir(exist_ok=True)
        lines = self.dataset.read_text(encoding="utf-8").splitlines()[:AUDIT_CASES]
        for i, line in enumerate(lines):
            (cases / f"{i:04d}.json").write_text(line + "\n", encoding="utf-8")

    def _case_files(self):
        return sorted((self.dir / "cases").glob("*.json"))

    def input_digests(self):
        digests = super().input_digests()
        digests["cases"] = sha256("".join(sha256(p.read_bytes()) for p in self._case_files()).encode())
        return digests

    def prepare_checks(self):
        self.plain = oracle.read_rules(self.rules)
        self.mixed = oracle.read_rules(self.rules_mixed)
        return oracle.check_dataset(oracle.DatasetExpectation(self.plain, self.dataset, OPS), self.n)

    def calls(self):
        # A pass classifies every case file once in each mode, so it
        # covers every (case, mode) pair exactly once.
        out = self.out_dir / "classify.json"
        calls = []
        for path in self._case_files():
            for mode in MODES:
                op = ("--mixed", "--rules", str(self.rules_mixed)) if mode == "mixed" else ("--tnorm", mode)
                calls.append(Call("classify", f"{path.stem}:{mode}",
                                  ("classify", "--case", str(path)) + op + ("--out", str(out)), out))
        return calls

    def output_digests(self, digests):
        # One digest over the pass's calls in order, not one per (case, mode).
        return {"classify": sha256("".join(digests[c.key] for c in self.calls()).encode())}

    def check(self, call, data):
        # Recomputed per call rather than cached, so the measuring process
        # holds no more live objects than the program's own.
        stem, mode = call.key.split(":")
        obj = json.loads((self.dir / "cases" / f"{stem}.json").read_text(encoding="utf-8"))
        expected = oracle.expected_trail(self.mixed if mode == "mixed" else self.plain,
                                         obj["case_id"], obj["scores"], mode)
        return oracle.check_trail(data, expected, f"classify {call.key}")


class Spec(NamedTuple):
    n: int              # default case count
    setups: int         # set-ups per run
    short_calls: bool   # calls take milliseconds: probe-scaled times, one warm-up pass
    make: Callable      # (directory, seed, n) -> Workload


# scale's calls run for seconds: they average the host's drift themselves,
# probes only at their ends would add noise, and a warm-up pass would
# double the run for first-call costs under 0.1% of it.
WORKLOADS = {
    "paper": Spec(1035, 7, True, lambda d, s, n: DatasetWorkload(
        d, s, n, ("generate", "validate", "evaluate", "evaluate_mixed", "compare", "sweep"))),
    "scale": Spec(100_000, 3, False, lambda d, s, n: DatasetWorkload(d, s, n, ("evaluate", "compare", "sweep"))),
    "audit": Spec(1035, 7, True, AuditWorkload),
}


class Measurement:
    """Closed-loop passes over a workload's calls, with checks between calls."""

    def __init__(self, cli, work: Workload, host: HostProbe | None):
        self.cli, self.work, self.host = cli, work, host
        self.calls = work.calls()
        self.digests = {}       # call key -> sha256 of its first output
        self.attempted = self.failed = 0
        self.errors = []

    def run(self, seconds: float, tracer=None) -> list[list[tuple]]:
        """Passes for ``seconds``; returns each pass's (label, start, seconds) per call.

        The first pass always runs; another starts only if a pass as long
        as the last one would end in time, so a run of long passes does
        not overrun its time by most of a pass.
        """
        deadline = perf_counter() + seconds
        passes = []
        while not passes or perf_counter() + sum(dt for _, _, dt in passes[-1]) <= deadline:
            passes.append(self._pass(tracer))
        if self.host:
            self.host.probe()
        return passes

    def _pass(self, tracer) -> list[tuple]:
        timed = []
        outputs = {}
        failed_calls = set()
        for call in self.calls:
            call.out.unlink(missing_ok=True)
            if self.host:
                self.host.maybe_probe()
            if tracer:
                tracer.set_label(call.label)
            crash = None
            t0 = perf_counter()
            try:
                rc = self.cli.main(list(call.argv))
            except SystemExit as exc:  # argparse rejects a usage error this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the CLI would exit 1 with this traceback
                rc, crash = 1, traceback.format_exc(limit=-3)
            dt = perf_counter() - t0
            timed.append((call.label, t0, dt))
            self.attempted += 1
            data = call.out.read_bytes() if call.out.exists() else b""
            errors = [f"{call.key}: exit code {rc} {crash or ''}"] if rc != 0 else self._check(call, data)
            digest = sha256(data)
            if self.digests.setdefault(call.key, digest) != digest:
                errors.append(f"{call.key}: output differs from an earlier identical call")
            outputs[call.label] = data
            if errors:
                failed_calls.add(call.key)
                self.errors += errors
        if not failed_calls:
            cross = self.work.cross_check(outputs)
            if cross:
                failed_calls.add(self.calls[-1].key)
                self.errors += cross
        self.failed += len(failed_calls)
        return timed

    def _check(self, call, data) -> list[str]:
        try:
            return self.work.check(call, data)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            return [f"{call.key}: output has an unexpected shape: {exc!r}"]

    def times(self, passes) -> tuple[list[float], list[float], dict]:
        """Wall and reference-speed time per pass, and reference-speed times per call label."""
        wall, ref, calls = [], [], {}
        for timed in passes:
            wall.append(sum(dt for _, _, dt in timed))
            scaled = [(label, dt * self.host.scale(t0, t0 + dt) if self.host else dt)
                      for label, t0, dt in timed]
            ref.append(sum(dt for _, dt in scaled))
            for label, dt in scaled:
                calls.setdefault(label, []).append(dt)
        return wall, ref, calls

    def output_digests(self) -> dict:
        return self.work.output_digests(self.digests)


def gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(rr, work: Workload, spec: Spec, args, tracer) -> dict:
    errors = work.prepare_checks()
    host = HostProbe(work.out_dir)
    m = Measurement(rr.cli, work, host if spec.short_calls else None)
    result = {"backend": rr.BACKEND, "setup_rss_mib": peak_rss_mib()}
    host.probe()
    if spec.short_calls:
        m.run(0)  # warm-up: lazy imports and first-call caches fill outside the timed passes
    gc.collect()
    passes = m.run(args.seconds / 2 if tracer else args.seconds)
    result["passes"], result["passes_ref"], result["samples"] = m.times(passes)
    if tracer is not None:
        labels = list(dict.fromkeys(c.label for c in m.calls))
        gc_before = gc_collections()
        tracer.install()
        try:
            traced = m.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        gc_after = gc_collections()
        traced_wall, traced_ref, _ = m.times(traced)
        per_layer = tracing.per_layer_metrics(tracer, labels, len(traced))
        per_layer["trace.overhead_ratio"] = (statistics.median(traced_ref)
                                             / statistics.median(result["passes_ref"]) - 1)
        per_layer["python.gc_collections"] = (gc_after - gc_before) / len(traced)
        setup_stats = tracer.span_stats(["setup"])
        result.update(
            traced_passes=traced_wall,
            per_layer=per_layer,
            breakdown=tracing.layer_breakdown(tracer, labels),
            setup_trace={name: cell[1] for (_, name), cell in setup_stats.items()},
        )
        Path(args.spans).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    host.probe()
    if tracer is not None:
        result["per_layer"]["host.calib_ms"] = statistics.median(host.values) * 1e3
    result.update(
        probe_s=host.values,
        attempted=m.attempted,
        failed=m.failed,
        errors=(errors + m.errors)[:20],
        input_errors=len(errors),
        outputs=m.output_digests(),
        peak_rss_mib=peak_rss_mib(),
    )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--measure", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import riskrules as rr
    import riskrules.cli  # noqa: F401  (the package does not import its CLI)
    if Path(rr.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported riskrules from {rr.__file__}, not from {src}", file=sys.stderr)
        return 3

    spec = WORKLOADS[args.workload]
    work = spec.make(args.dir, args.seed, args.n)
    tracer = tracing.Tracer(rr) if args.trace else None
    if tracer:
        tracer.install()
    try:
        work.setup(rr)
    finally:
        if tracer:
            tracer.uninstall()
    result = {"t_ready": ready_clock(), "inputs": work.input_digests()}
    if args.measure:
        result.update(measure(rr, work, spec, args, tracer))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
