"""Rule scoring, priority classification, and proof-trail construction.

Every classification scores every rule (no short-circuiting), so the
proof trail also documents why non-winning rules did not fire; that is
the transparency record an auditor reads. Conditions absent from a case
are scored 0.0 and flagged in the trail rather than raised as errors:
absence of evidence conservatively blocks conjunctive firing.

A rule fires only when its chain score strictly exceeds theta; a score
exactly equal to theta does not fire. The predicted category is the
highest-severity category among fired rules, defaulting to minimal risk.
Only the rules of ``RuleSet.ranked`` win. Minimal-risk rules are scored
and trailed like any other but not ranked: the floor needs no trigger,
which keeps "no winning rule" and "predicted minimal risk" synonymous.

:func:`outcome_to_json` writes the trail's fixed ``indent=2`` layout
itself. ``tests/test_engine.py::TestTrailWriter`` holds the object it
stands for (``outcome_to_obj``) and checks the writer against
``json.dumps(outcome_to_obj(o), indent=2) + "\\n"`` on random outcomes.

All functions are pure; cases may be classified concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from riskrules.rules import RiskCategory, Rule, RuleSet, ConjunctionStandard, _require
from riskrules.tnorms import TNormKind, apply, fold_chain

#: Sequences named whole where operators are read, never one per item.
_TEXT = (str, bytes, bytearray, memoryview)
#: Operator used for a rule's conjunction standard in mixed mode.
STANDARD_OPERATORS = {
    ConjunctionStandard.STRONG: TNormKind.LUKASIEWICZ,
    ConjunctionStandard.BOTTLENECK: TNormKind.GOEDEL,
}


class _Record:
    """Base of the slotted records: the trail's :class:`ProofStep`,
    :class:`RuleScore` and :class:`ClassificationOutcome`, and
    :class:`~riskrules.benchmark.Case`.

    Each is a frozen dataclass over slots it declares itself, with no
    ``__dict__``. Unlike ``slots=True``, which builds a second class whose
    frozen ``__setattr__`` raises TypeError for an unknown name, setting
    any name raises FrozenInstanceError. ``__init__`` sets each slot
    through its member descriptor's setter (see :func:`_setters`): past
    the frozen ``__setattr__``, and cheaper than ``object.__setattr__``,
    which matters because one classify builds a step per condition and a
    rule score per rule.

    Each constructor takes its slots in ``__slots__`` order (``Case``
    takes ``scores`` for ``_scores``), so ``__reduce__`` rebuilds a record
    through its constructor, for pickle and copy alike. Unpickling a
    ``Case`` runs its checks again.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


def _setters(cls):
    """The ``__set__`` of each of ``cls``'s slots, in ``__slots__`` order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


@dataclass(frozen=True, init=False)
class ProofStep(_Record):
    """One condition evaluation; its index, rule and operator are its RuleScore's."""

    __slots__ = ("condition_id", "condition_score", "accumulated", "missing_condition")

    condition_id: str
    condition_score: float
    accumulated: float
    missing_condition: bool

    def __init__(self, condition_id, condition_score, accumulated, missing_condition):
        _SET_CONDITION(self, condition_id)
        _SET_CONDITION_SCORE(self, condition_score)
        _SET_ACCUMULATED(self, accumulated)
        _SET_MISSING(self, missing_condition)


@dataclass(frozen=True, init=False)
class RuleScore(_Record):
    __slots__ = ("rule_id", "category", "operator", "score", "fired", "steps")

    rule_id: str
    category: RiskCategory
    operator: TNormKind
    score: float
    fired: bool
    steps: tuple[ProofStep, ...]

    def __init__(self, rule_id, category, operator, score, fired, steps):
        _SET_RULE_ID(self, rule_id)
        _SET_CATEGORY(self, category)
        _SET_OPERATOR(self, operator)
        _SET_SCORE(self, score)
        _SET_FIRED(self, fired)
        _SET_STEPS(self, steps)


@dataclass(frozen=True, init=False)
class ClassificationOutcome(_Record):
    __slots__ = ("case_id", "predicted", "tnorm", "theta_used", "rule_scores", "winning_rule")

    case_id: str
    predicted: RiskCategory
    tnorm: str  # operator name, or "mixed"
    theta_used: float | None
    rule_scores: tuple[RuleScore, ...]
    winning_rule: str | None

    def __init__(self, case_id, predicted, tnorm, theta_used, rule_scores, winning_rule):
        _SET_CASE_ID(self, case_id)
        _SET_PREDICTED(self, predicted)
        _SET_TNORM(self, tnorm)
        _SET_THETA(self, theta_used)
        _SET_RULE_SCORES(self, rule_scores)
        _SET_WINNER(self, winning_rule)


_SET_CONDITION, _SET_CONDITION_SCORE, _SET_ACCUMULATED, _SET_MISSING = _setters(ProofStep)
_SET_RULE_ID, _SET_CATEGORY, _SET_OPERATOR, _SET_SCORE, _SET_FIRED, _SET_STEPS = (
    _setters(RuleScore))
_SET_CASE_ID, _SET_PREDICTED, _SET_TNORM, _SET_THETA, _SET_RULE_SCORES, _SET_WINNER = (
    _setters(ClassificationOutcome))


def check_theta(theta_override: float | None) -> None:
    """Reject a global threshold override that is not an int or float (a
    bool too), or lies outside (0, 1), NaN included."""
    if theta_override is None:
        return
    if not isinstance(theta_override, (int, float)) or isinstance(theta_override, bool):
        raise ValueError(f"theta must be a number, got {theta_override!r}")
    if not 0.0 < theta_override < 1.0:
        raise ValueError(f"theta out of range (0, 1): {theta_override}")


def score_rule(rule: Rule, case_scores: Mapping[str, float], kind: TNormKind,
               theta_override: float | None = None) -> RuleScore:
    """Fold the rule's condition chain in declared order, recording each step."""
    theta = rule.theta if theta_override is None else theta_override
    steps = []
    acc = 0.0
    for i, cond in enumerate(rule.conditions):
        raw = case_scores.get(cond)
        missing = raw is None
        s = 0.0 if missing else raw
        acc = s if i == 0 else apply(kind, acc, s)
        steps.append(ProofStep(cond, s, acc, missing))
    return RuleScore(rule.rule_id, rule.category, kind, acc, acc > theta, tuple(steps))


def _finish(case_id, rule_scores, tnorm_name, theta_override, ruleset):
    # The most severe fired rule of ruleset.ranked wins; within a severity
    # the highest score, and exact ties break to the lexicographically
    # smallest rule_id so outcomes are reproducible.
    winner = min((rule_scores[i] for i, _, _ in ruleset.ranked if rule_scores[i].fired),
                 key=lambda rs: (-rs.category.severity, -rs.score, rs.rule_id), default=None)
    predicted = RiskCategory.MINIMAL_RISK if winner is None else winner.category
    winning_rule = None if winner is None else winner.rule_id
    theta_used = ruleset.shared_theta if theta_override is None else theta_override
    return ClassificationOutcome(case_id, predicted, tnorm_name, theta_used,
                                 tuple(rule_scores), winning_rule)


def classify(case_scores: Mapping[str, float], ruleset: RuleSet,
             kind: TNormKind | Sequence[TNormKind], theta_override: float | None = None,
             case_id: str = "case") -> ClassificationOutcome:
    """Score every rule and pick the final category.

    ``kind`` is one operator for every rule, or a plan of one per rule,
    read by :func:`check_plan` as :func:`rule_chain_scores` reads it. The
    trail names a plan's operator on each rule score, and the outcome's
    ``tnorm`` is ``"mixed"``.

    After the theta override, ValueError names a ``ruleset`` that is not
    a :class:`RuleSet`, then a bad ``kind``, then a ``case_id`` that is
    not a ``str``. ``case_scores`` is taken as checked, as the per-case
    kernels take it: a loaded :class:`~riskrules.benchmark.Case`'s scores.
    """
    check_theta(theta_override)
    _require(ruleset, RuleSet, "ruleset")
    kind = check_plan(kind, ruleset)
    _require(case_id, str, "case_id")
    plan = kind if type(kind) is tuple else (kind,) * len(ruleset.rules)
    rule_scores = [score_rule(r, case_scores, k, theta_override)
                   for r, k in zip(ruleset.rules, plan)]
    tnorm = "mixed" if plan is kind else kind.value
    return _finish(case_id, rule_scores, tnorm, theta_override, ruleset)


def classify_mixed(case_scores: Mapping[str, float], ruleset: RuleSet,
                   theta_override: float | None = None, case_id: str = "case") -> ClassificationOutcome:
    """:func:`classify` with the plan :func:`mixed_operators` reads from
    each rule's conjunction standard (strong -> lukasiewicz, bottleneck ->
    goedel). Every rule needs a standard; standards are never inferred.
    A bad theta override is named first, then a bad ``ruleset``.
    """
    check_theta(theta_override)
    return classify(case_scores, ruleset, mixed_operators(ruleset), theta_override, case_id)


def mixed_operators(ruleset: RuleSet) -> tuple[TNormKind, ...]:
    """Each rule's mixed-mode operator, from its conjunction standard.

    Raises ValueError naming a ``ruleset`` that is not a
    :class:`RuleSet`, else the first rule without a standard.
    """
    _require(ruleset, RuleSet, "ruleset")
    for rule in ruleset.rules:
        if rule.standard is None:
            raise ValueError(f"mixed mode requires a conjunction standard on every rule; "
                             f"rule {rule.rule_id!r} has none")
    return tuple(STANDARD_OPERATORS[r.standard] for r in ruleset.rules)


# ---------------------------------------------------------------------------
# Trail-free scoring, the per-case steps of the batch path in
# riskrules.evaluation: chain scores are theta-independent, so they can be
# re-thresholded. Tests pin these to classify()'s results.

def rule_chain_scores(case_scores: Mapping[str, float], ruleset: RuleSet,
                      kind: TNormKind | Sequence[TNormKind]) -> list[float]:
    """Chain score per rule, aligned with ``ruleset.rules`` order.

    ``kind`` is one operator for every rule, or a plan of one per rule
    (mixed mode, see :func:`mixed_operators`); anything else raises
    :func:`check_plan`'s ValueError. Only the case's live rules, those
    whose conditions it all scores, are folded. Any other rule scores 0.0:
    its missing condition counts as 0.0, and a chain holding 0.0 folds to zero
    under every operator (the trail's fold may keep the sign of a -0.0
    score). Every theta is in (0, 1), so such a rule never fires.
    """
    rules = ruleset.rules
    single = isinstance(kind, TNormKind)
    if not single:
        check_plan(kind, ruleset)
    out = [0.0] * len(rules)
    for i in ruleset.live_rules(frozenset(case_scores)):
        conds = rules[i].conditions
        out[i] = fold_chain(kind if single else kind[i], map(case_scores.__getitem__, conds))
    return out


def check_plan(kind: TNormKind | Sequence[TNormKind],
               ruleset: RuleSet) -> TNormKind | tuple[TNormKind, ...]:
    """The one reader of an operator argument: a :class:`TNormKind` comes
    back unchanged, and a per-rule plan as a tuple. Raises ValueError for
    anything else: a value that is not a sequence, or is a ``str`` or
    bytes-like (see ``_TEXT``), is named whole; a plan without one entry
    per rule is named by its length; else the first entry that is not a
    member is named."""
    if type(kind) is TNormKind:
        return kind
    if isinstance(kind, _TEXT) or not isinstance(kind, Sequence):
        raise ValueError(f"unknown t-norm {kind!r}")
    if len(kind) != len(ruleset.rules):
        raise ValueError(f"operator plan has {len(kind)} entries; "
                         f"the rule set has {len(ruleset.rules)} rules")
    for entry in kind:  # checked here: a dead rule's entry is never folded
        if type(entry) is not TNormKind:
            raise ValueError(f"unknown t-norm {entry!r}")
    return tuple(kind)


def predicted_category(ruleset: RuleSet, chain_scores: Sequence[float],
                       theta_override: float | None = None) -> RiskCategory:
    """Final category implied by per-rule chain scores at the given threshold:
    the category of the most severe rule whose score exceeds its theta."""
    for i, theta, category in ruleset.ranked:
        if chain_scores[i] > (theta if theta_override is None else theta_override):
            return category
    return RiskCategory.MINIMAL_RISK


# ---------------------------------------------------------------------------
# Proof-trail export.

_str = json.encoder.encode_basestring_ascii  # json.dumps's string encoder
#: json.dumps's spelling of the floats ``repr`` writes as nan and inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _num(x: float) -> str:
    """``round(x, 6)`` as json writes it; an exact float zero, signed, skips ``round``."""
    text = repr(x) if type(x) is float and x == 0.0 else repr(round(x, 6))
    return _NON_FINITE.get(text, text)


def _array(items: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def outcome_to_json(outcome: ClassificationOutcome) -> str:
    """Proof-trail JSON; scores carry six decimal digits.

    Writes the layout of ``json.dumps(obj, indent=2) + "\\n"`` directly,
    byte for byte: an ``indent`` forces json's pure-Python encoder.
    """
    rules = []
    for rs in outcome.rule_scores:
        rule_id = _str(rs.rule_id)
        steps = [
            f'        {{\n'
            f'          "step_index": {i},\n'
            f'          "rule_id": {rule_id},\n'
            f'          "condition_id": {_str(st.condition_id)},\n'
            f'          "condition_score": {_num(st.condition_score)},\n'
            f'          "operator": "{rs.operator._value_}",\n'
            f'          "accumulated": {_num(st.accumulated)},\n'
            f'          "missing_condition": {_bool(st.missing_condition)}\n'
            f'        }}'
            for i, st in enumerate(rs.steps)
        ]
        rules.append(
            f'    {{\n'
            f'      "rule_id": {rule_id},\n'
            f'      "category": "{rs.category._value_}",\n'
            f'      "score": {_num(rs.score)},\n'
            f'      "fired": {_bool(rs.fired)},\n'
            f'      "steps": {_array(steps, "      ")}\n'
            f'    }}')
    theta = "null" if outcome.theta_used is None else _num(outcome.theta_used)
    winner = "null" if outcome.winning_rule is None else _str(outcome.winning_rule)
    return (f'{{\n'
            f'  "case_id": {_str(outcome.case_id)},\n'
            f'  "tnorm": {_str(outcome.tnorm)},\n'
            f'  "theta": {theta},\n'
            f'  "predicted": "{outcome.predicted._value_}",\n'
            f'  "winning_rule": {winner},\n'
            f'  "rules": {_array(rules, "  ")}\n'
            f'}}\n')
