"""Mutation check: every listed mutant must make its tests fail.

    python3 tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is one small edit to the program: a file, an
exact old text, the new text, why the edit matters, and the tests that
must catch it. The old text must occur exactly once in its file, so a
mutant cannot silently do nothing. For each mutant the script copies
``src``, ``tests`` and ``pyproject.toml`` into a new temporary
directory, makes the one edit there and runs
``python -m pytest -x -q -p no:cacheprovider TESTS`` with the copy's
``src`` first on the path and warnings as errors. The mutant is killed
if the tests fail and survives if they pass. A mutant no test can kill
is listed with ``equivalent`` set to the reason.

Before any mutant, the unedited copy must pass every listed test and
import ``riskrules`` from the copy; otherwise a failing run would say
nothing about the mutant. Exits 1 on an old text that does not occur
exactly once, on a survivor not listed as equivalent, or on a run that
neither passes nor fails (another pytest exit code, or over ``TIMEOUT``
seconds). With NAMEs, only those mutants run.

To add a mutant, append a ``Mutant`` to ``MUTANTS`` and run
``python3 tools/mutants.py NAME``. ``tests/test_mutants.py`` checks in
tier-1 that every old text still occurs exactly once, so a change to
the code a mutant edits must update the mutant too.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: What each copy holds: the program, its tests and the pytest settings.
COPIED = ("src", "tests", "pyproject.toml")
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
#: Most seconds one test run may take.
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it, if none can


_TNORMS = "src/riskrules/tnorms.py"
_ENGINE = "src/riskrules/engine.py"
_EVALUATION = "src/riskrules/evaluation.py"
_RULES = "src/riskrules/rules.py"
_BENCHMARK = "src/riskrules/benchmark.py"
_CONTRACT = "tests/test_contract.py"
_FOLD_TESTS = ("tests/test_tnorms.py", "tests/test_engine.py", "tests/test_batch.py")
_BATCH_TESTS = ("tests/test_batch.py", "tests/test_engine.py", "tests/test_evaluation.py",
                "tests/test_acceptance.py")

MUTANTS = (
    Mutant("goedel-tie-takes-the-new-operand", _TNORMS,
           "if x < acc:", "if x <= acc:",
           "a Goedel tie must keep the accumulator and its sign (-0.0 against 0.0)",
           _FOLD_TESTS),
    Mutant("lukasiewicz-identity-skips-zero", _TNORMS,
           "if acc == 1.0:", "if acc == 1.0 and x != 0.0:",
           "T(1, x) = x must hold bit for bit, -0.0 included",
           _FOLD_TESTS),
    Mutant("decision-fires-at-theta", _ENGINE,
           "if chain_scores[i] > (theta", "if chain_scores[i] >= (theta",
           "a rule fires only when its score strictly exceeds theta",
           _BATCH_TESTS),
    Mutant("trail-fires-at-theta", _ENGINE,
           "acc, acc > theta, tuple(steps)", "acc, acc >= theta, tuple(steps)",
           "the trail's fired flag obeys the same strict threshold as the decision",
           ("tests/test_engine.py", "tests/test_acceptance.py")),
    Mutant("winner-tie-breaks-to-largest-id", _ENGINE,
           "-rs.score, rs.rule_id)", "-rs.score, [-ord(ch) for ch in rs.rule_id])",
           "equal scores at one severity break to the smallest rule_id",
           ("tests/test_engine.py",)),
    Mutant("dead-rule-scores-nonzero", _ENGINE,
           "out = [0.0] * len(rules)", "out = [5e-324] * len(rules)",
           "a rule with a condition the case does not score scores exactly 0.0",
           _BATCH_TESTS),
    Mutant("mixed-plan-uses-first-operator", _ENGINE,
           "kind if single else kind[i]", "kind if single else kind[0]",
           "each rule folds with its own operator in mixed mode",
           _BATCH_TESTS),
    Mutant("plan-entries-unchecked", _ENGINE,
           "        if type(entry) is not TNormKind:\n",
           "        if False:\n",
           "a plan entry that is not a member is an error even where no rule is live",
           ("tests/test_evaluation.py", "tests/test_engine.py")),
    Mutant("ranked-least-severe-first", _RULES,
           "key=lambda ranked: -ranked[2].severity", "key=lambda ranked: ranked[2].severity",
           "the decision takes the most severe fired category",
           _BATCH_TESTS),
    Mutant("live-on-any-condition", _RULES,
           "if scored.issuperset(r.conditions)", "if not scored.isdisjoint(r.conditions)",
           "a rule is live only when the case scores all of its conditions",
           ("tests/test_rules.py", *_BATCH_TESTS)),
    Mutant("mcnemar-tail-one-term-short", _EVALUATION,
           "for k in range(min(b, c)):", "for k in range(min(b, c) - (n > 40)):",
           "the exact tail sums every term up to min(b, c), for large n too",
           ("tests/test_evaluation.py",)),
    Mutant("fp-and-fn-swapped", _EVALUATION,
           "            fp += count\n        else:\n            fn += count\n",
           "            fn += count\n        else:\n            fp += count\n",
           "over-classification is a false positive, under-classification a false negative",
           ("tests/test_evaluation.py", "tests/test_acceptance.py")),
    Mutant("case-type-dropped", _EVALUATION,
           "cell = (label * _TYPES + _TYPE_INDEX[case.case_type]) * 4",
           "cell = label * _TYPES * 4",
           "accuracy is reported per case type",
           ("tests/test_batch.py", "tests/test_evaluation.py")),
    Mutant("plans-not-read-as-tuples", _ENGINE,
           "    return tuple(kind)\n", "    return kind\n",
           "a plan given as a list compares and sweeps like the same plan as a tuple",
           ("tests/test_evaluation.py",)),
    Mutant("case-hashable", _BENCHMARK,
           "    __hash__ = None\n", "",
           "a case has no hash, since its scores are a mapping",
           ("tests/test_record_parsing.py",)),
    Mutant("case-keeps-the-callers-dict", _BENCHMARK,
           "_SET_SCORES(self, own)", "_SET_SCORES(self, scores)",
           "a case keeps its own copy of the scores it was given",
           ("tests/test_record_parsing.py",)),
    # Hand mutations of earlier changes, kept where their code still exists.
    Mutant("dataset-line-keeps-its-terminator", _BENCHMARK,
           'decode_json(line.rstrip("\\n"), DatasetValidationError)',
           "decode_json(line, DatasetValidationError)",
           "a dataset line's JSON error gives the column on that line, not on the next",
           ("tests/test_load_dataset.py",)),
    Mutant("bad-utf8-byte-read", _RULES,
           "    if bad := _ESCAPED_BYTE.search(text):\n", "    if False:\n",
           "a byte that is not UTF-8 is an error naming the file, line and column",
           ("tests/test_load_dataset.py",)),
    Mutant("whitespace-line-not-blank", _BENCHMARK,
           "if line.isspace():", 'if not line.strip("\\n"):',
           "a line of spaces or tabs is blank and skipped, like an empty one",
           ("tests/test_load_dataset.py",)),
    Mutant("scores-view-writable", _BENCHMARK,
           "return MappingProxyType(self._scores)", "return self._scores",
           "a case's scores cannot be changed through case.scores",
           ("tests/test_load_dataset.py", "tests/test_record_parsing.py::TestCaseModel")),
    Mutant("strict-utf8-decoding", _RULES,
           'errors="surrogateescape") as lines:', 'errors="strict") as lines:',
           "a bad byte is reported with its file, line and column, not as a UnicodeDecodeError",
           ("tests/test_load_dataset.py",)),
    Mutant("trail-writes-non-ascii", _ENGINE,
           "_str = json.encoder.encode_basestring_ascii", "_str = json.encoder.encode_basestring",
           "the proof trail and the dataset file are written as json.dumps writes them: "
           "ASCII only",
           ("tests/test_engine.py::TestTrailWriter", "tests/test_benchmark.py::TestDatasetToJsonl")),
    Mutant("slot-counts-overflow-n", _BENCHMARK,
           '_TYPE_RATIO = {"marginal": 325 / 1035,', '_TYPE_RATIO = {"marginal": 1000 / 1035,',
           "every n the generator accepts splits into counts that are not negative",
           ("tests/test_benchmark.py::TestGenerateSynthetic::test_slot_counts_fit_every_n",)),
    Mutant("decode-accepts-trailing-data", _RULES,
           "if end == len(text) or json.decoder.WHITESPACE.match(text, end).end() == len(text):",
           "if True:",
           "text with data after its JSON value is an error, as json.loads makes it",
           ("tests/test_record_parsing.py::TestDecodeJson",)),
    Mutant("score-keys-not-the-vocabularys", _BENCHMARK,
           "scores[term] = value", "scores[cond] = value",
           "a parsed case keys its scores by the vocabulary's own strings",
           ("tests/test_record_parsing.py::TestSharedKeys",)),
    Mutant("dataset-error-without-line", _BENCHMARK,
           'f"{name}:{lineno}: {exc}"', 'f"{name}: {exc}"',
           "a dataset record's error names its file and line",
           ("tests/test_load_dataset.py",)),
    Mutant("case-type-guard-dropped", _BENCHMARK,
           "    if type(case_type) is str:\n        case_type = _CASE_TYPES",
           "    if True:\n        case_type = _CASE_TYPES",
           "a case_type that is not a string is named, not a bare TypeError",
           ("tests/test_benchmark.py::TestParseCase",)),
    Mutant("labeler-counts-only-above-055", _BENCHMARK,
           "math.nextafter(ORACLE_PRESENCE_THRESHOLD, 0.0))", "ORACLE_PRESENCE_THRESHOLD)",
           "the labeler counts a condition scoring exactly 0.55 as present",
           ("tests/test_benchmark.py::TestReferenceLabel",)),
    Mutant("description-per-case", _BENCHMARK,
           "descriptions[text, rule.rule_id], scores,",
           'f"Synthetic {text} case targeting rule {rule.rule_id}", scores,',
           "generated cases share one description string per (archetype, rule)",
           ("tests/test_record_parsing.py::TestSharedKeys",)),
    Mutant("jsonl-joined-unchunked", _BENCHMARK,
           '    return "".join([\n'
           '        "".join([_case_line(c) for c in cases[i:i + _LINES_PER_CHUNK]])\n'
           "        for i in range(0, len(cases), _LINES_PER_CHUNK)])\n",
           '    return "".join(_case_line(c) for c in cases)\n',
           "the dataset writer's peak stays about twice its output",
           ("tests/test_benchmark.py::TestDatasetToJsonl",)),
    Mutant("jsonl-score-keys-unescaped", _BENCHMARK,
           'f"{_str(cond)}: {value!r}"', """f'"{cond}": {value!r}'""",
           "the dataset writer escapes a score's condition as json.dumps does",
           ("tests/test_benchmark.py::TestDatasetToJsonl",)),
    # Each input check has one owner.
    Mutant("rule-category-unchecked", _RULES,
           "        if type(self.category) is not RiskCategory:\n", "        if False:\n",
           "Rule(...) names a category that is not a RiskCategory",
           ("tests/test_rules.py",)),
    Mutant("unit-score-takes-bools", _TNORMS,
           "not isinstance(value, (int, float)) or isinstance(value, bool)):",
           "not isinstance(value, (int, float))):",
           "a bool is not a score",
           ("tests/test_tnorms.py",)),
    Mutant("unknown-field-not-sorted", _RULES,
           "sorted(unknown)[0]", "next(iter(unknown))",
           "of several unknown fields, the first in sorted order is named",
           ("tests/test_rules.py",)),
    # Each constructor owns its input checks; the readers keep what the JSON tells.
    Mutant("case-label-unchecked", _BENCHMARK,
           "        if type(expert_label) is not RiskCategory:\n", "        if False:\n",
           "Case(...) names an expert_label that is not a RiskCategory",
           (_CONTRACT, "tests/test_benchmark.py::TestParseCase")),
    Mutant("case-type-unchecked", _BENCHMARK,
           "        if type(case_type) is not CaseType:\n", "        if False:\n",
           "Case(...) names a case_type that is not a CaseType",
           (_CONTRACT, "tests/test_benchmark.py::TestParseCase")),
    Mutant("case-scores-shape-unchecked", _BENCHMARK,
           "if (type(scores) is not dict and not isinstance(scores, Mapping)) or not scores:",
           "if not scores:",
           "Case(...) names scores that are not a mapping",
           (_CONTRACT,)),
    Mutant("case-score-keys-unchecked", _BENCHMARK,
           "            if not isinstance(cond, str):\n", "            if False:\n",
           "Case(...) names a score key that is not a condition name",
           (_CONTRACT,)),
    Mutant("dataset-elements-unchecked", _BENCHMARK,
           "            if type(case) is not Case:\n", "            if False:\n",
           "Dataset(...) names an element that is not a Case",
           (_CONTRACT,)),
    Mutant("unknown-condition-named-first", _BENCHMARK,
           "                Case(case_id, description, scores, label, case_type)\n", "",
           "parse_case names an earlier field's or score's fault before a later unknown condition",
           ("tests/test_benchmark.py::TestParseCase",
            "tests/test_record_parsing.py::TestParseCaseOracle")),
    Mutant("vocabulary-items-unchecked", _RULES,
           "or not all(isinstance(term, str) for term in vocabulary):", ":",
           "RuleSet(...) names a vocabulary term that is not a str",
           (_CONTRACT, "tests/test_load_dataset.py::TestErrorPlacement")),
    Mutant("vocabulary-str-split", _RULES,
           "None if isinstance(terms, str) else frozenset(terms)", "frozenset(terms)",
           "a vocabulary given as a str is not read as its characters",
           (_CONTRACT,)),
    Mutant("ruleset-rules-unchecked", _RULES,
           "            if type(rule) is not Rule:\n", "            if False:\n",
           "RuleSet(...) names a rule that is not a Rule",
           (_CONTRACT,)),
    Mutant("vocabulary-named-after-entries", _RULES,
           "    vocabulary = _vocabulary(vocabulary)\n", "",
           "a rule file's bad vocabulary is named before its bad rule entries",
           ("tests/test_rules.py::TestValidation",)),
    Mutant("decode-lets-type-errors-out", _RULES,
           "    except TypeError:  # neither str, bytes nor bytearray\n",
           "    except ZeroDivisionError:\n",
           "parse_ruleset of a value that is not text names it",
           (_CONTRACT,)),
    Mutant("plans-read-a-str-as-a-sequence", _EVALUATION,
           "if isinstance(kinds, _TEXT) or not isinstance(kinds, Sequence):",
           "if not isinstance(kinds, Sequence):",
           "a bare str of kinds is named whole, not one operator per character",
           ("tests/test_evaluation.py::TestOperatorEntries",)),
    Mutant("theta-type-unchecked", _ENGINE,
           "    if not isinstance(theta_override, (int, float)):\n", "    if False:\n",
           "a theta override that is not a number is named, not a bare TypeError",
           ("tests/test_engine.py::TestThetaOverrideRange",)),
    Mutant("theta-grid-type-unchecked", _EVALUATION,
           "        if not isinstance(value, (int, float)):\n", "        if False:\n",
           "a sweep bound or step that is not a number is named, not a bare TypeError",
           ("tests/test_evaluation.py::TestThresholdSweep",)),
    Mutant("generator-takes-a-float-seed", _BENCHMARK,
           "    if not isinstance(value, int) or isinstance(value, bool):\n",
           "    if False:\n",
           "generate_synthetic names an n or seed that is not an int",
           ("tests/test_benchmark.py::TestGenerateSynthetic::test_n_and_seed_must_be_ints",)),
    Mutant("batch-entry-inputs-unchecked", _EVALUATION,
           '    _require(dataset, Dataset, "dataset")\n    _require(ruleset, RuleSet, "ruleset")\n',
           "    pass\n",
           "evaluate, compare and sweep name a dataset or rule set of the wrong type",
           (_CONTRACT,)),
    Mutant("generator-ruleset-unchecked", _BENCHMARK,
           '    _require(ruleset, RuleSet, "ruleset")\n', "",
           "generate_synthetic names a rule set of the wrong type",
           (_CONTRACT,)),
    # check_plan is the one reader of an operator argument.
    Mutant("plan-reads-bytes-as-a-sequence", _ENGINE,
           "if isinstance(kind, _TEXT) or not isinstance(kind, Sequence):",
           "if isinstance(kind, str) or not isinstance(kind, Sequence):",
           "a bytes or bytearray plan is named whole, not read as a plan of ints",
           ("tests/test_evaluation.py::TestOperatorEntries",)),
    Mutant("classify-reads-kind-unchecked", _ENGINE,
           "    kind = check_plan(kind, ruleset)\n", "",
           "classify reads its operator through check_plan, as evaluate does",
           ("tests/test_engine.py::TestClassify", "tests/test_batch.py")),
    # The loaders, mcnemar_exact and build_report name a bad argument.
    Mutant("path-type-unchecked", _RULES,
           "        name = os.fsdecode(path)\n    except TypeError:\n",
           "        name = os.fsdecode(path)\n    except ZeroDivisionError:\n",
           "a loader names a path that is not a str, bytes or os.PathLike",
           (_CONTRACT,)),
    Mutant("path-nul-unchecked", _RULES,
           '    if "\\0" in name:\n', "    if False:\n",
           "a loader names a path holding a NUL character",
           (_CONTRACT,)),
    Mutant("mcnemar-lengths-unchecked", _EVALUATION,
           "        _require(labels, Sized, name)\n", "        pass\n",
           "mcnemar_exact names an argument without a length",
           (_CONTRACT,)),
    Mutant("report-lengths-unchecked", _EVALUATION,
           "        _require(values, Sized, name)\n", "        pass\n",
           "build_report names an argument without a length",
           (_CONTRACT,)),
    Mutant("report-labels-unchecked", _EVALUATION,
           "            if type(label) is not RiskCategory:\n", "            if False:\n",
           "build_report names a label that is not a RiskCategory",
           (_CONTRACT,)),
    Mutant("report-case-types-unchecked", _EVALUATION,
           "        if type(ctype) is not CaseType:\n", "        if False:\n",
           "build_report names a case type that is not a CaseType",
           (_CONTRACT,)),
    # One reading per input shape: whole files through read_json, operator
    # lists by check_plan's rule; the last entry points under the contract.
    Mutant("plans-read-any-iterable", _EVALUATION,
           "if isinstance(kinds, _TEXT) or not isinstance(kinds, Sequence):",
           "if isinstance(kinds, _TEXT) or not isinstance(kinds, Iterable):",
           "a set, dict or generator of kinds is named whole, so no report order "
           "follows the hash seed",
           ("tests/test_evaluation.py::TestOperatorEntries",)),
    Mutant("whole-file-error-unplaced", _RULES,
           'raise error(f"{name}: {exc}") from None', "raise",
           "a rule file's and a case file's errors start with the path",
           ("tests/test_load_dataset.py::TestErrorPlacement",)),
    Mutant("case-file-default-type-changed", _BENCHMARK,
           '"case_type": CaseType.MARGINAL.value,', '"case_type": CaseType.CLEAR.value,',
           "a case file without a case_type reads as marginal",
           ("tests/test_benchmark.py::TestLoadDataset::test_load_minimal_case_record",)),
    Mutant("validate-dataset-unchecked", _BENCHMARK,
           '    _require(dataset, Dataset, "dataset")\n    warnings = []\n',
           "    warnings = []\n",
           "validate_case_types names a dataset of the wrong type",
           (_CONTRACT,)),
    Mutant("classify-ruleset-unchecked", _ENGINE,
           '    _require(ruleset, RuleSet, "ruleset")\n    kind = check_plan',
           "    kind = check_plan",
           "classify names a rule set of the wrong type",
           (_CONTRACT,)),
    Mutant("classify-mixed-ruleset-unchecked", _ENGINE,
           '    _require(ruleset, RuleSet, "ruleset")\n    return classify(',
           "    return classify(",
           "classify_mixed names a rule set of the wrong type before reading its standards",
           (_CONTRACT,)),
    Mutant("classify-case-id-unchecked", _ENGINE,
           '    _require(case_id, str, "case_id")\n', "",
           "classify names a case_id that is not a str, which the trail could not write",
           (_CONTRACT,)),
    # Slotted trail records, the default rule set checked once, whole-file reads.
    Mutant("proof-step-reduce-swaps-scores", _ENGINE,
           "(ProofStep, (self.condition_id, self.condition_score, self.accumulated,",
           "(ProofStep, (self.condition_id, self.accumulated, self.condition_score,",
           "a pickled or copied proof step keeps each score in its own field",
           ("tests/test_engine.py::TestTrailRecords",)),
    Mutant("rule-score-setters-swapped", _ENGINE,
           "        _SET_SCORE(self, score)\n        _SET_FIRED(self, fired)\n",
           "        _SET_SCORE(self, fired)\n        _SET_FIRED(self, score)\n",
           "RuleScore(...) stores each argument in its own field",
           ("tests/test_engine.py::TestTrailRecords",)),
    Mutant("outcome-reduce-swaps-theta-and-winner", _ENGINE,
           "self.theta_used, self.rule_scores, self.winning_rule))",
           "self.winning_rule, self.rule_scores, self.theta_used))",
           "a pickled or copied outcome keeps its theta and winning rule apart",
           ("tests/test_engine.py::TestTrailRecords",)),
    Mutant("default-ruleset-shares-its-memo", _RULES,
           'object.__setattr__(ruleset, "_live", {})',
           'object.__setattr__(ruleset, "_live", _DEFAULT_RULESET._live)',
           "each default rule set gets its own, empty live-rule memo",
           ("tests/test_rules.py",)),
    Mutant("whole-file-read-strict", _RULES,
           'errors="surrogateescape") as file:', 'errors="strict") as file:',
           "a rule or case file's bad byte is placed, not raised as a UnicodeDecodeError",
           ("tests/test_record_parsing.py::TestReadJson",)),
    Mutant("whole-file-fault-line-off-by-one", _RULES,
           "_check_utf8(text, name, 1, error)", "_check_utf8(text, name, 0, error)",
           "a rule or case file's bad byte is placed on its own line",
           ("tests/test_record_parsing.py::TestReadJson",)),
    Mutant("utf8-fault-column-off-by-one", _RULES,
           "at column {at - line_start + 1}", "at column {at - line_start}",
           "a bad byte's column counts from 1",
           ("tests/test_record_parsing.py::TestReadJson",)),
    Mutant("splitmix-seed-unchecked", _BENCHMARK,
           '        _check_int("seed", seed)\n        if not 0 <= seed <= _MASK64:\n',
           "        if False:\n",
           "SplitMix64 names a seed that is not a 64-bit unsigned int",
           (_CONTRACT,)),
)


def check(mutants, root: Path = ROOT) -> list[str]:
    """Errors for a name listed twice and for an old text that does not
    occur exactly once in its file."""
    errors = []
    names = set()
    for m in mutants:
        if m.name in names:
            errors.append(f"{m.name}: listed twice")
        names.add(m.name)
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            errors.append(f"{m.name}: old text occurs {count} times in {m.path}, not once")
    return errors


def _copy(root: Path, into: Path) -> None:
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, into / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(root / name, into / name)


def _env(copy: Path) -> dict:
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=path)


def _pytest(copy: Path, tests) -> str:
    """Run ``tests`` in ``copy``: "passed", "failed" or what else happened."""
    try:
        code = subprocess.run([sys.executable, *PYTEST, *tests], cwd=copy, env=_env(copy),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return f"over {TIMEOUT} s"
    return {0: "passed", 1: "failed"}.get(code, f"pytest exit {code}")


def baseline(mutants, root: Path = ROOT) -> str | None:
    """Why the unedited tree cannot judge ``mutants``, or None if it can."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(root, copy)
        probe = subprocess.run([sys.executable, "-c", "import riskrules; print(riskrules.__file__)"],
                               cwd=copy, env=_env(copy), capture_output=True, text=True)
        if not probe.stdout.startswith(str(copy / "src")):
            return f"riskrules is not imported from the copy: {probe.stdout or probe.stderr}"
        outcome = _pytest(copy, sorted({t for m in mutants for t in m.tests}))
    return None if outcome == "passed" else f"the unedited tests did not pass ({outcome})"


def run(mutant: Mutant, root: Path = ROOT) -> str:
    """Make ``mutant``'s edit in a copy of the tree and run its tests:
    "killed", "survived", or what else happened."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy(root, copy)
        target = copy / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        outcome = _pytest(copy, mutant.tests)
    return {"failed": "killed", "passed": "survived"}.get(outcome, outcome)


def run_all(mutants, root: Path = ROOT) -> int:
    """Check and run ``mutants``; print one line each; 0 if each is killed
    or a survivor listed as equivalent, else 1."""
    errors = check(mutants, root)
    if not errors:
        failure = baseline(mutants, root)
        errors = [failure] if failure else []
    for error in errors:
        print(f"error: {error}", flush=True)
    if errors:
        return 1
    ok = True
    for m in mutants:
        start = time.perf_counter()
        outcome = run(m, root)
        note = ""
        if outcome == "survived" and m.equivalent:
            note = f" (equivalent: {m.equivalent})"
        elif outcome == "killed" and m.equivalent:
            note = " (listed as equivalent, but a test kills it)"
        elif outcome != "killed":
            ok = False
        print(f"{outcome:9} {m.name} [{time.perf_counter() - start:.1f} s]{note}", flush=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutant to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"no mutant named {unknown[0]!r}")
    return run_all([by_name[name] for name in args.names] or MUTANTS)


if __name__ == "__main__":
    sys.exit(main())
