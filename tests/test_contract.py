"""The input contract of the constructors, parsers and dataset entry
points that take user data.

``Case``, ``Dataset``, ``Rule``, ``RuleSet``, ``parse_case``,
``parse_ruleset``, the three loaders, ``dataset_to_jsonl``,
``generate_synthetic``, ``validate_case_types``, ``evaluate``,
``evaluate_mixed``, ``compare_operators``, ``threshold_sweep``,
``mcnemar_exact``, ``build_report``, ``classify``, ``classify_mixed``
and ``SplitMix64`` each end a call in a result or in a ``ValueError`` (or subclass) that
names the argument or the value at fault. A loader's ``path`` may also
end in the ``OSError`` that names it, as a file that does not exist
does. What they return is usable: a case or dataset evaluates, a rule
or rule set classifies, a report, comparison, sweep, warning list or
proof trail is written as the CLI writes it, and a generator draws a number.
Each of 14 hostile values goes into each argument in turn; hypothesis then
draws several arguments at once from those values and from any JSON-like
value.

Excluded, because their docstrings say they take checked inputs: the
per-case kernels ``fold_chain``, ``apply``, ``rule_chain_scores`` and
``predicted_category``, and the ``case_scores`` of ``classify`` and
``classify_mixed`` (see ``UNCHECKED``).
"""

import math
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA_DIR
from riskrules.benchmark import (Case, CaseType, Dataset, DatasetValidationError, SplitMix64,
                                 dataset_to_jsonl, generate_synthetic, load_case, load_dataset,
                                 parse_case, validate_case_types)
from riskrules.engine import ClassificationOutcome, classify, classify_mixed, outcome_to_json
from riskrules.evaluation import (EvalReport, McNemarResult, build_report, comparison_to_json,
                                  compare_operators, evaluate, evaluate_mixed, mcnemar_exact,
                                  report_to_json, sweep_to_csv, threshold_sweep)
from riskrules.rules import (CONDITION_VOCABULARY, ConjunctionStandard, RiskCategory, Rule,
                             RuleSet, RuleValidationError, default_ruleset, load_ruleset,
                             parse_ruleset, ruleset_to_json)
from riskrules.tnorms import TNormKind

HOSTILE = (None, 5, "x", "goedel", b"x", [1], {"a": 1}, 0.5, math.nan, -1, True, (), [[1]],
           object())

_HIGH = RiskCategory.HIGH_RISK
_RULE = Rule("r", _HIGH, ("a",))
_CASE = Case("c", "d", {"public_space": 0.5}, _HIGH, CaseType.CLEAR)
_DATASET = Dataset((_CASE,))
#: A rule set the case's condition fires, with a standard for mixed mode.
_MIXED = RuleSet(frozenset({"public_space"}),
                 (Rule("r", _HIGH, ("public_space",), standard=ConjunctionStandard.STRONG),))
_GOEDEL, _PRODUCT = TNormKind.GOEDEL, TNormKind.PRODUCT

#: Entry point -> (callable, a valid value for each argument, by name).
ENTRIES = {
    "Case": (Case, {"case_id": "c", "description": "d", "scores": {"public_space": 0.5},
                    "expert_label": _HIGH, "case_type": CaseType.CLEAR}),
    "Dataset": (Dataset, {"cases": (_CASE,)}),
    "Rule": (Rule, {"rule_id": "r", "category": _HIGH, "conditions": ("a",), "theta": 0.5,
                    "article": "", "standard": None, "synthetic": False}),
    "RuleSet": (RuleSet, {"vocabulary": frozenset({"a"}), "rules": (_RULE,)}),
    "parse_case": (parse_case, {"obj": {"case_id": "c", "description": "d",
                                        "case_type": "clear", "expert_label": "high_risk",
                                        "scores": {"public_space": 0.5}},
                                "vocabulary": CONDITION_VOCABULARY}),
    "parse_ruleset": (parse_ruleset,
                      {"text": ruleset_to_json(RuleSet(frozenset({"a"}), (_RULE,)))}),
    "dataset_to_jsonl": (dataset_to_jsonl, {"dataset": _DATASET}),
    "generate_synthetic": (generate_synthetic, {"n": 10, "seed": 1, "ruleset": default_ruleset()}),
    "evaluate": (evaluate, {"dataset": _DATASET, "ruleset": _MIXED, "kind": _GOEDEL,
                            "theta_override": None}),
    "evaluate_mixed": (evaluate_mixed, {"dataset": _DATASET, "ruleset": _MIXED,
                                        "theta_override": None}),
    "compare_operators": (compare_operators, {"dataset": _DATASET, "ruleset": _MIXED,
                                              "kinds": [_GOEDEL, _PRODUCT],
                                              "theta_override": None}),
    "threshold_sweep": (threshold_sweep, {"dataset": _DATASET, "ruleset": _MIXED,
                                          "kinds": [_GOEDEL], "theta_min": 0.4,
                                          "theta_max": 0.6, "step": 0.1}),
    "load_dataset": (load_dataset, {"path": DATA_DIR / "cases_appendix.jsonl",
                                    "vocabulary": CONDITION_VOCABULARY}),
    "load_case": (load_case, {"path": DATA_DIR / "hrm04.json",
                              "vocabulary": CONDITION_VOCABULARY}),
    "load_ruleset": (load_ruleset, {"path": DATA_DIR / "one_rule.json"}),
    "mcnemar_exact": (mcnemar_exact, {"pred_a": [_HIGH], "pred_b": [_HIGH], "expert": [_HIGH]}),
    "build_report": (build_report, {"expert": [_HIGH], "predicted": [_HIGH],
                                    "case_types": [CaseType.CLEAR]}),
    "validate_case_types": (validate_case_types, {"dataset": _DATASET}),
    "classify": (classify, {"case_scores": {"public_space": 0.9}, "ruleset": _MIXED,
                            "kind": _GOEDEL, "theta_override": None, "case_id": "c"}),
    "classify_mixed": (classify_mixed, {"case_scores": {"public_space": 0.9}, "ruleset": _MIXED,
                                        "theta_override": None, "case_id": "c"}),
    "SplitMix64": (SplitMix64, {"seed": 1}),
}

#: Arguments that get no hostile value: ``classify`` takes its scores
#: checked, as the per-case kernels do (a loaded case's, or a caller's
#: own). Checking them per call would copy ``Case``'s per-key loop; the
#: one shared loop waits on the benchmark's tracer (ROADMAP item 1b).
UNCHECKED = {("classify", "case_scores"), ("classify_mixed", "case_scores")}

#: Words besides its own name that name an argument, where the message
#: names the part of it at fault: a case record by its case, a score by
#: its condition, a vocabulary by the condition it lacks, a rule file's
#: text by its JSON, a rule's conditions by its condition list,
#: operators, or a plan of them, as what they are, and label sequences
#: as the predictions and labels (or, empty, the dataset) they hold.
ALIASES = {
    "obj": ("case",),
    "scores": ("score for",),
    "vocabulary": ("unknown condition",),
    "text": ("JSON",),
    "conditions": ("condition list",),
    "kind": ("t-norm", "operator plan"),
    "kinds": ("t-norm", "operator"),
    "pred_a": ("prediction",),
    "pred_b": ("prediction",),
    "expert": ("label", "dataset"),
}

ARGUMENTS = [(entry, name) for entry, (_, valid) in ENTRIES.items() for name in valid
             if (entry, name) not in UNCHECKED]


def _names(message: str, name: str, value) -> bool:
    """Whether ``message`` names the argument ``name``, its ``value``, or
    one item of a collection ``value``."""
    items = [*value, *value.values()] if isinstance(value, dict) else (
        value if isinstance(value, (list, tuple)) else ())
    return any(word in message
               for word in (name, repr(value), *map(repr, items), *ALIASES.get(name, ())))


def _use(result):
    """Use what an entry returned the way the program does."""
    if isinstance(result, (str, McNemarResult)):  # a dataset file's text, or a McNemar test
        return
    if isinstance(result, SplitMix64):
        result.random()
        return
    if isinstance(result, ClassificationOutcome):
        outcome_to_json(result)
        return
    if isinstance(result, EvalReport):
        report_to_json(result)
        return
    if isinstance(result, tuple) and len(result) == 2:  # a comparison
        comparison_to_json(*result)
        return
    if isinstance(result, list) and all(isinstance(line, str) for line in result):
        "\n".join(result + [f"{len(result)} warning(s)"])  # as validate prints its warnings
        return
    if isinstance(result, list):  # a sweep
        sweep_to_csv(result)
        return
    if isinstance(result, Case):
        result = Dataset((result,))
    if isinstance(result, Dataset):
        if result.cases:
            evaluate(result, default_ruleset(), TNormKind.GOEDEL)
        return
    if isinstance(result, Rule):
        result = RuleSet(frozenset(result.conditions), (result,))
    assert isinstance(result, RuleSet)
    classify({}, result, TNormKind.GOEDEL)


def _call(entry: str, hostile: dict):
    """Call ``entry`` with ``hostile`` over its valid arguments; None if it
    returned a usable result or raised the OSError that names a hostile
    ``path`` (as the loader names it), else the ValueError it raised (any
    other exception fails the test)."""
    function, valid = ENTRIES[entry]
    try:
        _use(function(**{**valid, **hostile}))
    except ValueError as exc:
        return exc
    except OSError as exc:
        if "path" not in hostile or exc.filename != os.fsdecode(hostile["path"]):
            raise
    return None


@pytest.mark.parametrize("entry, name", ARGUMENTS, ids=[f"{e}-{n}" for e, n in ARGUMENTS])
@pytest.mark.parametrize("value", HOSTILE, ids=[repr(v)[:12] for v in HOSTILE])
def test_each_argument_in_turn(entry, name, value):
    error = _call(entry, {name: value})
    assert error is None or _names(str(error), name, value), str(error)


_json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


@st.composite
def _several(draw):
    entry = draw(st.sampled_from(sorted(ENTRIES)))
    names = draw(st.lists(st.sampled_from(sorted(n for e, n in ARGUMENTS if e == entry)),
                          min_size=1, unique=True))
    return entry, {name: draw(st.sampled_from(HOSTILE) | _json_like) for name in names}


@settings(max_examples=400, deadline=None)
@given(_several())
@example(("Rule", {"conditions": ("",)}))  # a RuleSet names the term the rule holds
def test_several_arguments_at_once(drawn):
    entry, hostile = drawn
    error = _call(entry, hostile)
    assert error is None or any(_names(str(error), name, value)
                                for name, value in hostile.items()), str(error)


@pytest.mark.parametrize("call, message", [
    (lambda: Case(None, 5, {"a": "x"}, "goedel", [1]), "missing or empty case_id"),
    (lambda: Case("c", "", {"a": 0.5}, _HIGH, [1]), "case 'c': unknown case_type [1]"),
    (lambda: Case("c", "", {"a": "x"}, _HIGH, CaseType.CLEAR),
     "case 'c': score for 'a' must be a number"),
    (lambda: Case("c", "", {5: 0.5}, _HIGH, CaseType.CLEAR), "case 'c': unknown condition 5"),
    (lambda: Case("c", "", {}, _HIGH, CaseType.CLEAR),
     "case 'c': scores must be a non-empty object"),
    (lambda: Dataset((_CASE, "c")), "dataset cases must be Case objects, got 'c'"),
    (lambda: Dataset([_CASE]), "dataset cases must be a tuple, got list"),
    (lambda: RuleSet("ab", ()), "vocabulary must be an array of strings"),
    (lambda: RuleSet(frozenset({5}), ()), "vocabulary must be an array of strings"),
    (lambda: RuleSet(["a", 5], ()), "vocabulary must be an array of strings"),
    (lambda: RuleSet(frozenset({"a"}), ("r",)), "rules must hold only Rule objects, got 'r'"),
    (lambda: RuleSet(frozenset({"a"}), 5), "rules must be an array"),
    (lambda: parse_ruleset(5), "not valid JSON: expected text, got 5"),
    (lambda: parse_case(_CASE, CONDITION_VOCABULARY), "case records must be JSON objects"),
    (lambda: parse_case({}, "public_space"), "vocabulary must be an array of strings"),
    (lambda: dataset_to_jsonl(None), "dataset must be a Dataset, got NoneType"),
    (lambda: evaluate(None, _MIXED, _GOEDEL), "dataset must be a Dataset, got NoneType"),
    (lambda: evaluate_mixed(_DATASET, "x"), "ruleset must be a RuleSet, got str"),
    (lambda: generate_synthetic(10, 1, 5), "ruleset must be a RuleSet, got int"),
    (lambda: load_dataset(None), "path must be a str, bytes or os.PathLike, got None"),
    (lambda: load_case(0), "path must be a str, bytes or os.PathLike, got 0"),
    (lambda: load_ruleset(5), "path must be a str, bytes or os.PathLike, got 5"),
    (lambda: load_case("a\0b"), "path must not hold a NUL character, got 'a\\x00b'"),
    (lambda: load_dataset(b"\0"), "path must not hold a NUL character, got '\\x00'"),
    (lambda: mcnemar_exact(5, 5, 5), "pred_a must be a Sized, got int"),
    (lambda: mcnemar_exact([_HIGH], None, [_HIGH]), "pred_b must be a Sized, got NoneType"),
    (lambda: build_report([_HIGH], [_HIGH], 0.5), "case_types must be a Sized, got float"),
    (lambda: build_report([1], [1], [1]), "expert must hold RiskCategory members, got 1"),
    (lambda: build_report([_HIGH], ["high_risk"], [CaseType.CLEAR]),
     "predicted must hold RiskCategory members, got 'high_risk'"),
    (lambda: build_report([_HIGH], [_HIGH], ["clear"]),
     "case_types must hold CaseType members, got 'clear'"),
    (lambda: classify({"public_space": 0.9}, None, _GOEDEL),
     "ruleset must be a RuleSet, got NoneType"),
    (lambda: classify_mixed({"public_space": 0.9}, None),
     "ruleset must be a RuleSet, got NoneType"),
    (lambda: classify({"public_space": 0.9}, _MIXED, _GOEDEL, case_id=5),
     "case_id must be a str, got int"),
    (lambda: validate_case_types(None), "dataset must be a Dataset, got NoneType"),
    (lambda: SplitMix64(0.5), "seed must be an int, got 0.5"),
    (lambda: SplitMix64(True), "seed must be an int, got True"),
    (lambda: SplitMix64(-1), "seed must be in [0, 2**64), got -1"),
    (lambda: SplitMix64(2 ** 64), f"seed must be in [0, 2**64), got {2 ** 64}"),
    (lambda: generate_synthetic(3, 0.5), "seed must be an int, got 0.5"),
    (lambda: generate_synthetic(3, -1), "need at least 4 cases, got 3"),
    (lambda: generate_synthetic(10, -1, 5), "seed must be in [0, 2**64), got -1"),
], ids=["case-motivation", "case-type", "case-score", "case-key", "case-empty-scores",
        "dataset-element", "dataset-container", "ruleset-str-vocabulary", "ruleset-int-term",
        "ruleset-list-with-int", "ruleset-str-rule", "ruleset-int-rules", "ruleset-not-text",
        "parse-case-of-a-case", "parse-case-str-vocabulary", "jsonl-none", "evaluate-none",
        "mixed-str-ruleset", "generate-int-ruleset", "load-dataset-none", "load-case-fd-0",
        "load-ruleset-int", "load-case-nul", "load-dataset-bytes-nul", "mcnemar-int",
        "mcnemar-none", "report-float-types", "report-int-labels", "report-name-label",
        "report-name-type", "classify-none-ruleset", "mixed-none-ruleset", "classify-int-case-id",
        "validate-none", "seed-float", "seed-bool", "seed-negative", "seed-too-large",
        "generate-seed-type-before-n", "generate-n-before-seed-range",
        "generate-seed-range-before-ruleset"])
def test_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("load, error", [
    (load_dataset, DatasetValidationError),
    (load_case, DatasetValidationError),
    (load_ruleset, RuleValidationError),
], ids=["load_dataset", "load_case", "load_ruleset"])
def test_each_loader_names_a_bad_path_with_its_own_error(load, error, tmp_path):
    with pytest.raises(error):
        load(5)
    missing = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError) as err:
        load(missing)
    assert err.value.filename == str(missing)


def test_a_vocabulary_reads_any_collection_of_terms():
    rules = (_RULE,)
    for vocabulary in (["a"], ("a",), {"a"}, {"a": "a"}, iter(["a"])):
        assert RuleSet(vocabulary, rules).vocabulary == frozenset({"a"})
