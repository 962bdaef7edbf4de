"""Command-line front end.

Subcommands: classify, evaluate, compare, sweep, generate, validate.
Outputs go to --out or stdout, always ending in a newline, and contain
no timestamps or other nondeterminism: identical arguments and input
files give byte-identical output. Exit codes: 0 success, 1 validation
or input error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from riskrules import benchmark, evaluation, rules
from riskrules.engine import classify, classify_mixed, outcome_to_json
from riskrules.tnorms import TNormKind

_TNORM_NAMES = [k.value for k in TNormKind]


def _tnorm_csv(text: str) -> list[TNormKind]:
    try:
        return [TNormKind.from_name(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_rules(source: str) -> rules.RuleSet:
    if source == "default":
        return rules.default_ruleset()
    return rules.load_ruleset(source)


def _theta(value: float | None) -> float | None:
    if value is None:
        return None
    if not 0.0 < value < 1.0:
        raise ValueError(f"theta out of range (0, 1): {value}")
    return float(value)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrules",
        description="Fuzzy-conjunction risk classification and operator benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rules(p):
        p.add_argument("--rules", default="default", metavar="PATH|default",
                       help="rule file, or 'default' for the built-in rule set")

    def add_out(p):
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")

    def add_operator_choice(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--tnorm", choices=_TNORM_NAMES, help="conjunction operator")
        group.add_argument("--mixed", action="store_true",
                           help="per-rule operators from each rule's conjunction standard")

    p = sub.add_parser("classify", help="classify one case and emit its proof trail")
    p.add_argument("--case", required=True, metavar="PATH", help="JSON case record")
    add_rules(p)
    add_operator_choice(p)
    p.add_argument("--theta", type=float, help="global threshold override")
    add_out(p)

    p = sub.add_parser("evaluate", help="score a dataset and report accuracy/errors")
    p.add_argument("--dataset", required=True, metavar="PATH", help="JSON-Lines dataset")
    add_rules(p)
    add_operator_choice(p)
    p.add_argument("--theta", type=float, help="global threshold override")
    add_out(p)

    p = sub.add_parser("compare", help="compare operators with pairwise McNemar tests")
    p.add_argument("--dataset", required=True, metavar="PATH")
    add_rules(p)
    p.add_argument("--tnorms", type=_tnorm_csv, default="lukasiewicz,product,goedel",
                   metavar="CSV", help="comma-separated operators (default: %(default)s)")
    p.add_argument("--theta", type=float, help="global threshold override")
    add_out(p)

    p = sub.add_parser("sweep", help="threshold sensitivity sweep, CSV output")
    p.add_argument("--dataset", required=True, metavar="PATH")
    add_rules(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tnorm", choices=_TNORM_NAMES)
    group.add_argument("--tnorms", type=_tnorm_csv, metavar="CSV")
    p.add_argument("--theta-min", type=float, default=0.25)
    p.add_argument("--theta-max", type=float, default=0.75)
    p.add_argument("--theta-step", type=float, default=0.05)
    add_out(p)

    p = sub.add_parser("generate", help="generate a deterministic synthetic dataset")
    p.add_argument("--n", type=int, default=1035, help="number of cases (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    add_rules(p)
    add_out(p)

    p = sub.add_parser("validate", help="check dataset case-type score bands")
    p.add_argument("--dataset", required=True, metavar="PATH")
    add_rules(p)
    add_out(p)

    return parser


def _cmd_classify(args) -> int:
    ruleset = _load_rules(args.rules)
    case = benchmark.load_case(args.case, ruleset.vocabulary)
    theta = _theta(args.theta)
    if args.mixed:
        outcome = classify_mixed(case.scores, ruleset, theta, case_id=case.case_id)
    else:
        outcome = classify(case.scores, ruleset, TNormKind.from_name(args.tnorm),
                           theta, case_id=case.case_id)
    _emit(outcome_to_json(outcome), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    ruleset = _load_rules(args.rules)
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    theta = _theta(args.theta)
    if args.mixed:
        report = evaluation.evaluate_mixed(dataset, ruleset, theta)
    else:
        report = evaluation.evaluate(dataset, ruleset, TNormKind.from_name(args.tnorm), theta)
    _emit(evaluation.report_to_json(report), args.out)
    return 0


def _cmd_compare(args) -> int:
    ruleset = _load_rules(args.rules)
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    kinds = args.tnorms if isinstance(args.tnorms, list) else _tnorm_csv(args.tnorms)
    reports, pairs = evaluation.compare_operators(dataset, ruleset, kinds, _theta(args.theta))
    _emit(evaluation.comparison_to_json(reports, pairs), args.out)
    return 0


def _cmd_sweep(args) -> int:
    ruleset = _load_rules(args.rules)
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    kinds = args.tnorms if args.tnorms is not None else [TNormKind.from_name(args.tnorm)]
    points = evaluation.threshold_sweep(dataset, ruleset, kinds,
                                        args.theta_min, args.theta_max, args.theta_step)
    _emit(evaluation.sweep_to_csv(points), args.out)
    return 0


def _cmd_generate(args) -> int:
    ruleset = _load_rules(args.rules)
    dataset = benchmark.generate_synthetic(args.n, args.seed, ruleset)
    _emit(benchmark.dataset_to_jsonl(dataset), args.out)
    return 0


def _cmd_validate(args) -> int:
    ruleset = _load_rules(args.rules)
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    warnings = benchmark.validate_case_types(dataset)
    lines = warnings + [f"{len(warnings)} warning(s)"]
    _emit("\n".join(lines), args.out)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "generate": _cmd_generate,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
