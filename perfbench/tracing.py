"""Layer tracing for the benchmark's traced run, installed without editing src/.

Coarse calls get spans: name, start, end, parent span and the CLI
invocation they belong to. Per-case functions (``rule_chain_scores``,
``predicted_category``, ``score_rule`` and the trail path's decision)
get aggregated counters instead, because the 100k-case sweep makes
3.3M decisions. Every wrapper replaces a name where its caller looks it
up: ``evaluation`` imports ``rule_chain_scores`` directly, so the counter
sits on ``evaluation.rule_chain_scores``.

Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import collections
from time import perf_counter

#: Span-wrapped functions, as (module attribute of riskrules, name, span name).
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "classify", "engine.classify"),
    ("cli", "classify_mixed", "engine.classify_mixed"),
    ("cli", "outcome_to_json", "engine.outcome_to_json"),
    ("rules", "default_ruleset", "rules.default_ruleset"),
    ("rules", "load_ruleset", "rules.load_ruleset"),
    ("benchmark", "load_dataset", "benchmark.load_dataset"),
    ("benchmark", "load_case", "benchmark.load_case"),
    ("benchmark", "generate_synthetic", "benchmark.generate_synthetic"),
    ("benchmark", "dataset_to_jsonl", "benchmark.dataset_to_jsonl"),
    ("benchmark", "validate_case_types", "benchmark.validate_case_types"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "evaluate_mixed", "evaluation.evaluate_mixed"),
    ("evaluation", "compare_operators", "evaluation.compare_operators"),
    ("evaluation", "threshold_sweep", "evaluation.threshold_sweep"),
    ("evaluation", "build_report", "evaluation.build_report"),
    ("evaluation", "mcnemar_exact", "evaluation.mcnemar_exact"),
    ("evaluation", "classify_mixed", "engine.classify_mixed"),
    ("evaluation", "report_to_json", "evaluation.export"),
    ("evaluation", "comparison_to_json", "evaluation.export"),
    ("evaluation", "sweep_to_csv", "evaluation.export"),
)

#: Counter-wrapped per-case functions, as (module, name, counter, units per call).
COUNTED = (
    ("evaluation", "rule_chain_scores", "engine.fold", len),
    ("evaluation", "predicted_category", "engine.decide", None),
    ("engine", "_finish", "engine.decide", None),
    ("engine", "score_rule", "engine.trail_build", lambda rs: len(rs.steps)),
)

#: Count-only wrappers on the t-norm layer's entry points (no clock reads).
TALLIED = (
    ("benchmark", "unit_score", "tnorms.unit_score"),
    ("engine", "apply", "tnorms.apply"),
)

#: Counts recorded when a span ends: span name -> (counter, units from (args, result)).
SPAN_COUNTS = {
    "cli.emit": (("cli.out_bytes", lambda args, _: len(args[0].encode("utf-8")) + (not args[0].endswith("\n"))),),
    "benchmark.load_dataset": (("benchmark.cases", lambda _, ds: len(ds.cases)),),
    "benchmark.load_case": (("benchmark.cases", lambda _, case: 1),),
    "engine.outcome_to_json": (
        ("engine.trail_bytes", lambda _, text: len(text.encode("utf-8"))),
        ("engine.steps_serialised", lambda args, _: sum(len(rs.steps) for rs in args[0].rule_scores)),
    ),
    "evaluation.build_report": (("evaluation.reports", lambda _, report: 1),),
    "evaluation.mcnemar_exact": (("evaluation.discordant", lambda _, res: res.n_discordant),),
}

LAYERS = ("cli", "rules", "benchmark", "engine", "evaluation", "tnorms")


class Tracer:
    """Spans and counters of one traced run, grouped by the benchmark's call label."""

    def __init__(self, riskrules):
        self._pkg = riskrules
        self._restore = []
        self.spans = []       # [name, start, end, parent index, invocation, counted child s, label]
        self._stack = []
        self.invocation = 0
        self.label = "setup"
        self.counters = {}    # label -> {counter: [calls, seconds, units]}
        self._cur = self._counters_for("setup")

    def set_label(self, label: str) -> None:
        self.label = label
        self._cur = self._counters_for(label)

    def _counters_for(self, label):
        return self.counters.setdefault(label, collections.defaultdict(lambda: [0, 0.0, 0]))

    def count(self, key: str, units) -> None:
        cell = self._cur[key]
        cell[0] += 1
        cell[2] += units

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "cli.main":
                tracer.invocation += 1
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.invocation, 0.0, tracer.label]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            return after(args, result) if after else result
        return wrapper

    def _counter(self, key, fn, units):
        tracer = self
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            cell = tracer._cur[key]
            cell[0] += 1
            cell[1] += dt
            cell[2] += units(result) if units else 1
            if stack:
                spans[stack[-1]][5] += dt
            return result
        return wrapper

    def _tally(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._cur[key][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name):
        """Post-call hook of a span: record its counts, or trace the parser it returns."""
        if name == "cli.build_parser":
            def wrap_parse(args, parser):
                parser.parse_args = self._span("cli.parse_args", parser.parse_args)
                return parser
            return wrap_parse
        counts = SPAN_COUNTS.get(name)
        if counts is None:
            return None

        def record(args, result):
            for key, units in counts:
                self.count(key, units(args, result))
            return result
        return record

    def install(self) -> None:
        pkg = self._pkg
        for mod, attr, name in SPANNED:
            self._patch(getattr(pkg, mod), attr, self._span(name, getattr(getattr(pkg, mod), attr),
                                                            self._after(name)))
        for mod, attr, key, units in COUNTED:
            self._patch(getattr(pkg, mod), attr, self._counter(key, getattr(getattr(pkg, mod), attr), units))
        for mod, attr, key in TALLIED:
            self._patch(getattr(pkg, mod), attr, self._tally(key, getattr(getattr(pkg, mod), attr)))
        commands = pkg.cli._COMMANDS
        for cmd, fn in list(commands.items()):
            self._restore.append((commands.__setitem__, cmd, fn))
            commands[cmd] = self._span(f"cli.{cmd}", fn)

    def _patch(self, obj, attr, wrapper):
        self._restore.append((lambda a, v, o=obj: setattr(o, a, v), attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            put, key, original = self._restore.pop()
            put(key, original)

    # -- reduction ----------------------------------------------------------

    def span_stats(self, labels):
        """Per (label, span name): calls, total seconds, self seconds.

        A span's self time is its duration minus its child spans and the
        counted per-case calls made inside it.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, rec in enumerate(self.spans):
            if rec[6] in labels:
                cell = stats[rec[6], rec[0]]
                cell[0] += 1
                cell[1] += rec[2] - rec[1]
                cell[2] += rec[2] - rec[1] - child[i] - rec[5]
        return stats

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "invocation", "counted_child_s", "label"],
            "spans": self.spans,
            "counters": {label: dict(c) for label, c in self.counters.items()},
        }


def _total(stats, labels, names, field=1):
    return sum(stats[label, name][field] for label in labels for name in names
               if (label, name) in stats)


def layer_breakdown(tracer: Tracer, labels) -> dict:
    """Per call label: wall time, self time per layer and the uncovered share.

    Uncovered time is the self time of ``cli.main`` and the command
    handler span: glue that no layer wrapper accounts for.
    """
    stats = tracer.span_stats(labels)
    out = {}
    for label in labels:
        mine = {name: cell for (lab, name), cell in stats.items() if lab == label}
        if "cli.main" not in mine:
            continue
        calls, wall = mine["cli.main"][0], mine["cli.main"][1]
        layers = dict.fromkeys(LAYERS, 0.0)
        uncovered = 0.0
        for name, (_, _, self_s) in mine.items():
            if name == "cli.main" or (name.startswith("cli.") and name[4:] in tracer._pkg.cli._COMMANDS):
                uncovered += self_s
            else:
                layers[name.split(".")[0]] += self_s
        for key, (_, seconds, _) in tracer.counters[label].items():
            layers[key.split(".")[0]] += seconds
        counters = tracer.counters[label]
        out[label] = {
            "calls": calls,
            "wall_s": wall,
            "layer_self_s": layers,
            "uncovered_s": uncovered,
            "uncovered_share": uncovered / wall if wall else 0.0,
            "chains_folded": counters["engine.fold"][2] + counters["engine.trail_build"][0],
            "decisions": counters["engine.decide"][0],
        }
    return out


def per_layer_metrics(tracer: Tracer, labels, passes: int) -> dict:
    """The per-layer metrics of the traced passes.

    ``_s`` times and counts are per pass; ``_ms`` times and byte sizes
    are per call of the operation named.
    """
    stats = tracer.span_stats(labels)
    counters = collections.defaultdict(lambda: [0, 0.0, 0])
    for label in labels:
        for key, cell in tracer.counters.get(label, {}).items():
            for i in range(3):
                counters[key][i] += cell[i]

    def calls(*names):
        return _total(stats, labels, names, 0)

    def seconds(*names, field=1):
        return _total(stats, labels, names, field)

    def per(total, n):
        return total / n if n else 0.0

    cli_calls = calls("cli.main")
    trails = calls("engine.classify", "engine.classify_mixed")
    steps_built = counters["engine.trail_build"][2]
    commands = layer_breakdown(tracer, labels).values()
    uncovered = sum(c["uncovered_s"] for c in commands)
    wall = sum(c["wall_s"] for c in commands)
    return {
        "cli.parse_ms": per(seconds("cli.build_parser", "cli.parse_args"), cli_calls) * 1e3,
        "cli.emit_ms": per(seconds("cli.emit"), cli_calls) * 1e3,
        "cli.out_bytes": per(counters["cli.out_bytes"][2], cli_calls),
        "rules.load_ms": per(seconds("rules.default_ruleset", "rules.load_ruleset"),
                             calls("rules.default_ruleset", "rules.load_ruleset")) * 1e3,
        "benchmark.load_dataset_s": per(seconds("benchmark.load_dataset"), passes),
        "benchmark.cases_parsed": per(counters["benchmark.cases"][2], passes),
        "benchmark.load_case_ms": per(seconds("benchmark.load_case"), calls("benchmark.load_case")) * 1e3,
        "benchmark.generate_s": per(seconds("benchmark.generate_synthetic"), passes),
        "benchmark.serialise_s": per(seconds("benchmark.dataset_to_jsonl"), passes),
        "benchmark.validate_s": per(seconds("benchmark.validate_case_types"), passes),
        "engine.fold_s": per(counters["engine.fold"][1], passes),
        "engine.chains_folded": per(counters["engine.fold"][2] + counters["engine.trail_build"][0], passes),
        "engine.decide_s": per(counters["engine.decide"][1], passes),
        "engine.decisions": per(counters["engine.decide"][0], passes),
        "engine.trail_build_ms": per(counters["engine.trail_build"][1], trails) * 1e3,
        "engine.proof_steps": per(steps_built, passes),
        "engine.trail_use_ratio": per(counters["engine.steps_serialised"][2], steps_built),
        "engine.trail_serialise_ms": per(seconds("engine.outcome_to_json"),
                                         calls("engine.outcome_to_json")) * 1e3,
        "engine.trail_bytes": per(counters["engine.trail_bytes"][2], calls("engine.outcome_to_json")),
        "evaluation.aggregate_s": per(seconds("evaluation.build_report"), passes),
        "evaluation.reports_built": per(counters["evaluation.reports"][2], passes),
        "evaluation.sweep_self_s": per(seconds("evaluation.threshold_sweep", field=2), passes),
        "evaluation.mcnemar_s": per(seconds("evaluation.mcnemar_exact"), passes),
        "evaluation.discordant_pairs": per(counters["evaluation.discordant"][2], passes),
        "evaluation.export_ms": per(seconds("evaluation.export"), calls("evaluation.export")) * 1e3,
        "tnorms.scores_validated": per(counters["tnorms.unit_score"][0], passes),
        "tnorms.apply_calls": per(counters["tnorms.apply"][0], passes),
        "trace.coverage_ratio": 1.0 - per(uncovered, wall),
    }
