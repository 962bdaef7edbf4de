"""Command-line front end.

Subcommands: classify, evaluate, compare, sweep, generate, validate.
:func:`main` loads --rules, runs the command, then writes its output to
--out or stdout, always ending in a newline. It builds its argument
parser on its first call and reuses it for every later call in the
process. Outputs contain no timestamps or other nondeterminism:
identical arguments and input files give byte-identical output. Exit
codes: 0 success, 1 validation or input error, 2 usage error. Every
exit-1 error about a file, input or --out, starts ``error: <path>: ``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from pathlib import Path

from riskrules import benchmark, evaluation, rules
from riskrules.engine import classify, classify_mixed, outcome_to_json
from riskrules.tnorms import CANONICAL_KINDS, TNormKind

#: Operator names -> members: the one reading of --tnorm and --tnorms.
_TNORMS = {k.value: k for k in TNormKind}


def _tnorm(name: str) -> TNormKind:
    if name not in _TNORMS:
        raise argparse.ArgumentTypeError(
            f"unknown t-norm {name!r}; expected one of: {', '.join(_TNORMS)}")
    return _TNORMS[name]


def _tnorm_csv(text: str) -> list[TNormKind]:
    return [_tnorm(part.strip()) for part in text.split(",") if part.strip()]


def _path(text: str) -> str:
    """A file path option's value; an empty one is a usage error, not ``.``."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to a temp file beside ``out`` that is renamed
    over it: a failed write leaves an old output whole. A new output gets 0666
    under the umask, which is never changed; an old one keeps its mode."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        st = os.stat(out)
    except FileNotFoundError:
        st = None
    tmp = None
    if st is None or stat.S_ISREG(st.st_mode):  # not /dev/stdout, a FIFO, ...
        # Replace the file a symlink names, not the link.
        target = os.path.realpath(out) if os.path.islink(out) else out
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW  # a new file, not a link
        with contextlib.suppress(OSError):  # a missing or read-only directory
            for _ in range(100):  # a new random name per try, as mkstemp does
                name = os.path.join(os.path.dirname(target), f".riskrules-{os.urandom(6).hex()}")
                with contextlib.suppress(FileExistsError):  # 0600 until an old mode is copied
                    fd, tmp = os.open(name, flags, 0o666 if st is None else 0o600), name
                    break
    if tmp is None:  # write in place; an error then names the output
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrules",
        description="Fuzzy-conjunction risk classification and operator benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tnorm = {"type": _tnorm, "metavar": "{" + ",".join(_TNORMS) + "}"}  # as choices spell it

    def add_rules(p):
        p.add_argument("--rules", type=_path, default="default", metavar="PATH|default",
                       help="rule file, or 'default' for the built-in rule set")

    def add_operator_choice(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--tnorm", **tnorm, help="conjunction operator")
        group.add_argument("--mixed", action="store_true",
                           help="per-rule operators from each rule's conjunction standard")

    p = sub.add_parser("classify", help="classify one case and emit its proof trail")
    p.add_argument("--case", type=_path, required=True, metavar="PATH", help="JSON case record")
    add_rules(p)
    add_operator_choice(p)
    p.add_argument("--theta", type=float, help="global threshold override")

    p = sub.add_parser("evaluate", help="score a dataset and report accuracy/errors")
    p.add_argument("--dataset", type=_path, required=True, metavar="PATH", help="JSON-Lines dataset")
    add_rules(p)
    add_operator_choice(p)
    p.add_argument("--theta", type=float, help="global threshold override")

    p = sub.add_parser("compare", help="compare operators with pairwise McNemar tests")
    p.add_argument("--dataset", type=_path, required=True, metavar="PATH")
    add_rules(p)
    p.add_argument("--tnorms", type=_tnorm_csv, default=",".join(k.value for k in CANONICAL_KINDS),
                   metavar="CSV", help="comma-separated operators (default: %(default)s)")
    p.add_argument("--theta", type=float, help="global threshold override")

    p = sub.add_parser("sweep", help="threshold sensitivity sweep, CSV output")
    p.add_argument("--dataset", type=_path, required=True, metavar="PATH")
    add_rules(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tnorm", **tnorm)
    group.add_argument("--tnorms", type=_tnorm_csv, metavar="CSV")
    p.add_argument("--theta-min", type=float, default=0.25)
    p.add_argument("--theta-max", type=float, default=0.75)
    p.add_argument("--theta-step", type=float, default=0.05)

    p = sub.add_parser("generate", help="generate a deterministic synthetic dataset")
    p.add_argument("--n", type=int, default=1035, help="number of cases (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    add_rules(p)

    p = sub.add_parser("validate", help="check dataset case-type score bands")
    p.add_argument("--dataset", type=_path, required=True, metavar="PATH")
    add_rules(p)

    for p in sub.choices.values():  # every subcommand's last option
        p.add_argument("--out", type=_path, metavar="PATH", help="output file (default: stdout)")
    return parser


def _cmd_classify(args, ruleset) -> str:
    case = benchmark.load_case(args.case, ruleset.vocabulary)
    if args.mixed:
        outcome = classify_mixed(case.scores, ruleset, args.theta, case_id=case.case_id)
    else:
        outcome = classify(case.scores, ruleset, args.tnorm, args.theta, case_id=case.case_id)
    return outcome_to_json(outcome)


def _cmd_evaluate(args, ruleset) -> str:
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    if args.mixed:
        report = evaluation.evaluate_mixed(dataset, ruleset, args.theta)
    else:
        report = evaluation.evaluate(dataset, ruleset, args.tnorm, args.theta)
    return evaluation.report_to_json(report)


def _cmd_compare(args, ruleset) -> str:
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    reports, pairs = evaluation.compare_operators(dataset, ruleset, args.tnorms, args.theta)
    return evaluation.comparison_to_json(reports, pairs)


def _cmd_sweep(args, ruleset) -> str:
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    kinds = args.tnorms if args.tnorms is not None else [args.tnorm]
    points = evaluation.threshold_sweep(dataset, ruleset, kinds,
                                        args.theta_min, args.theta_max, args.theta_step)
    return evaluation.sweep_to_csv(points)


def _cmd_generate(args, ruleset) -> str:
    return benchmark.dataset_to_jsonl(benchmark.generate_synthetic(args.n, args.seed, ruleset))


def _cmd_validate(args, ruleset) -> str:
    dataset = benchmark.load_dataset(args.dataset, ruleset.vocabulary)
    warnings = benchmark.validate_case_types(dataset)
    return "\n".join(warnings + [f"{len(warnings)} warning(s)"])


_COMMANDS = {
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "generate": _cmd_generate,
    "validate": _cmd_validate,
}


#: The parser of every :func:`main` call in this process, built by the first.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        ruleset = (rules.default_ruleset() if args.rules == "default"
                   else rules.load_ruleset(args.rules))
        _emit(_COMMANDS[args.command](args, ruleset), args.out)
    except (ValueError, OSError) as exc:
        # Path first, as in a load error; os.replace's target is filename2.
        path = getattr(exc, "filename2", None) or getattr(exc, "filename", None)
        print(f"error: {path}: {exc.strerror}" if path else f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
