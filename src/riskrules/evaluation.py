"""Accuracy reports, exact McNemar tests, operator comparison, sweeps.

Error counts are directional by severity: a false positive is a
prediction strictly more severe than the expert label
(over-classification), a false negative strictly less severe. Since the
four categories have distinct severities, every wrong prediction is one
or the other, and ``accuracy = 1 - (fp + fn) / n`` holds exactly.

McNemar's exact binomial test works on the discordant counts b (first
classifier correct, second wrong) and c (the reverse), where "correct"
means exact category match. Under the null both directions are equally
likely, so the one-sided tail is sum(C(b+c, k), k <= min(b, c)) / 2^(b+c)
and the two-sided value doubles it, capped at 1. With no discordant
pairs both p-values are 1 by convention. Both sidedness variants are
always reported because published comparisons quote either.

Per-case classification is independent; every report is built from
integer counts of cases per cell, so reports are reproducible.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sized
from dataclasses import dataclass
from typing import Iterable, Sequence

from riskrules.benchmark import Case, CaseType, Dataset
from riskrules.engine import (_TEXT, check_plan, check_theta, mixed_operators,
                              predicted_category, rule_chain_scores)
# Not called here; perfbench's traced run patches the name on this module.
from riskrules.engine import classify_mixed  # noqa: F401
from riskrules.rules import CATEGORY_ORDER, RiskCategory, RuleSet, _require
from riskrules.tnorms import TNormKind


@dataclass(frozen=True)
class EvalReport:
    n: int
    accuracy_overall: float
    accuracy_by_type: dict  # CaseType -> proportion, or None where absent
    fp_count: int
    fn_count: int
    fp_rate: float
    fn_rate: float
    confusion: tuple  # rows expert, cols predicted, both in CATEGORY_ORDER


@dataclass(frozen=True)
class McNemarResult:
    b: int
    c: int
    n_discordant: int
    p_one_sided: float
    p_two_sided: float


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    reports: dict  # TNormKind -> EvalReport


#: Most thresholds one sweep may evaluate.
MAX_SWEEP_POINTS = 10_001

_TYPE_INDEX = {t: i for i, t in enumerate(CaseType)}
_TYPES = len(_TYPE_INDEX)
#: Severity -> row/column of the confusion matrix (CATEGORY_ORDER).
_ORDER_INDEX = {cat.severity: i for i, cat in enumerate(CATEGORY_ORDER)}


def build_report(expert: Sequence[RiskCategory], predicted: Sequence[RiskCategory],
                 case_types: Sequence[CaseType]) -> EvalReport:
    """Aggregate aligned expert/predicted labels into an EvalReport.

    Names the first argument without a length, then the first label that
    is not a :class:`RiskCategory` or case type that is not a
    :class:`CaseType`, with ValueError."""
    for name, values in (("expert", expert), ("predicted", predicted), ("case_types", case_types)):
        _require(values, Sized, name)
    if not expert:
        raise ValueError("empty dataset")
    if not (len(predicted) == len(case_types) == len(expert)):
        raise ValueError("expert, predicted and case_types must be aligned")
    tally = [0] * (4 * _TYPES * 4)
    for exp, pred, ctype in zip(expert, predicted, case_types):
        for name, label in (("expert", exp), ("predicted", pred)):
            if type(label) is not RiskCategory:
                raise ValueError(f"{name} must hold RiskCategory members, got {label!r}")
        if type(ctype) is not CaseType:
            raise ValueError(f"case_types must hold CaseType members, got {ctype!r}")
        tally[(exp.severity * _TYPES + _TYPE_INDEX[ctype]) * 4 + pred.severity] += 1
    return _report(tally)


def _report(tally: Sequence[int]) -> EvalReport:
    """The EvalReport of a 48-cell tally (see :func:`_tallies`)."""
    n = sum(tally)
    if n == 0:
        raise ValueError("empty dataset")
    confusion = [[0] * 4 for _ in range(4)]
    total = [0] * _TYPES
    correct = [0] * _TYPES
    fp = fn = 0
    for i, count in enumerate(tally):
        block, pred = divmod(i, 4)
        exp, t = divmod(block, _TYPES)
        confusion[_ORDER_INDEX[exp]][_ORDER_INDEX[pred]] += count
        total[t] += count
        if pred == exp:
            correct[t] += count
        elif pred > exp:
            fp += count
        else:
            fn += count
    return EvalReport(
        n=n,
        accuracy_overall=sum(correct) / n,
        accuracy_by_type={t: (correct[i] / total[i] if total[i] else None)
                          for t, i in _TYPE_INDEX.items()},
        fp_count=fp,
        fn_count=fn,
        fp_rate=fp / n,
        fn_rate=fn / n,
        confusion=tuple(tuple(row) for row in confusion),
    )


# ---------------------------------------------------------------------------
# Batch path: one walk over the cases serves every operator plan and
# threshold. Each case's chain scores are folded once per plan, for its
# live rules only (see rule_chain_scores), and decided at every threshold;
# each decision is counted into that threshold's tally, read by _report.

def _check_inputs(dataset: Dataset, ruleset: RuleSet) -> None:
    """Reject a ``dataset`` that is not a :class:`Dataset` or a ``ruleset``
    that is not a :class:`RuleSet`, once per call, with ValueError."""
    _require(dataset, Dataset, "dataset")
    _require(ruleset, RuleSet, "ruleset")


def _tallies(cases: Iterable[Case], ruleset: RuleSet,
             plans: Sequence[TNormKind | Sequence[TNormKind]], thetas: Sequence[float | None],
             ) -> tuple[list[list[list[int]]], list[bytearray], bytearray]:
    """Per plan and threshold, the cases per (expert severity, case type,
    predicted severity) cell; per plan, each case's predicted severity at
    the last threshold; and each case's expert severity.

    A plan is one operator, or one per rule in mixed mode; a threshold
    of None keeps each rule's own theta.
    """
    tallies = [[[0] * (4 * _TYPES * 4) for _ in thetas] for _ in plans]
    predicted = [bytearray() for _ in plans]
    expert = bytearray()
    for case in cases:
        # The plain dict behind the read-only view: the fold's dict fast paths.
        scores = case._scores
        label = case.expert_label.severity
        expert.append(label)
        cell = (label * _TYPES + _TYPE_INDEX[case.case_type]) * 4
        for plan, plan_tallies, plan_predicted in zip(plans, tallies, predicted):
            chains = rule_chain_scores(scores, ruleset, plan)
            for tally, theta in zip(plan_tallies, thetas):
                severity = predicted_category(ruleset, chains, theta).severity
                tally[cell + severity] += 1
            plan_predicted.append(severity)
    return tallies, predicted, expert


def evaluate(dataset: Dataset, ruleset: RuleSet, kind: TNormKind | Sequence[TNormKind],
             theta_override: float | None = None) -> EvalReport:
    """Classify every case with one operator, or a plan of one per rule,
    and report accuracy and errors."""
    _check_inputs(dataset, ruleset)
    check_theta(theta_override)
    [[tally]], _, _ = _tallies(dataset.cases, ruleset, (kind,), (theta_override,))
    return _report(tally)


def evaluate_mixed(dataset: Dataset, ruleset: RuleSet,
                   theta_override: float | None = None) -> EvalReport:
    """Like :func:`evaluate` but with per-rule operators (mixed mode)."""
    _check_inputs(dataset, ruleset)
    check_theta(theta_override)
    if not dataset.cases:  # reported before a rule without a standard
        raise ValueError("empty dataset")
    return evaluate(dataset, ruleset, mixed_operators(ruleset), theta_override)


def mcnemar_exact(pred_a: Sequence[RiskCategory], pred_b: Sequence[RiskCategory],
                  expert: Sequence[RiskCategory]) -> McNemarResult:
    """Exact binomial McNemar test on paired predictions.

    Labels are compared with ``==``, so any consistent encoding works
    (categories, or their severities); an argument without a length is
    named with ValueError.
    """
    for name, labels in (("pred_a", pred_a), ("pred_b", pred_b), ("expert", expert)):
        _require(labels, Sized, name)
    if not (len(pred_a) == len(pred_b) == len(expert)):
        raise ValueError("prediction and label sequences must have equal length")
    if not expert:
        raise ValueError("empty predictions")
    b = c = 0
    for pa, pb, exp in zip(pred_a, pred_b, expert):
        a_ok = pa == exp
        b_ok = pb == exp
        if a_ok and not b_ok:
            b += 1
        elif b_ok and not a_ok:
            c += 1
    n = b + c
    # Exact integer tail sum, C(n, k+1) = C(n, k) * (n - k) // (k + 1),
    # then one correctly-rounded float division.
    tail = term = 1
    for k in range(min(b, c)):
        term = term * (n - k) // (k + 1)
        tail += term
    p_one = tail / 2 ** n
    return McNemarResult(b, c, n, p_one, min(1.0, 2.0 * p_one))


def _plans(kinds, ruleset: RuleSet) -> list:
    """``kinds`` as a list of operators, each read by
    :func:`~riskrules.engine.check_plan` (a plan as a tuple, so it can be
    hashed). A bare member is one operator. Otherwise ``kinds`` is read by
    ``check_plan``'s rule for a plan: an ordered sequence that is not a
    ``str`` or bytes-like value. Anything else (a set, a dict, a generator)
    is named whole, so the operators' order is always the caller's."""
    if isinstance(kinds, TNormKind):
        return [kinds]
    if isinstance(kinds, _TEXT) or not isinstance(kinds, Sequence):
        raise ValueError(f"unknown t-norm {kinds!r}")
    return [check_plan(kind, ruleset) for kind in kinds]


def compare_operators(dataset: Dataset, ruleset: RuleSet,
                      kinds: TNormKind | Sequence[TNormKind | Sequence[TNormKind]],
                      theta_override: float | None = None):
    """Classify with every operator in one walk; run all pairwise McNemar tests.

    ``kinds`` is an ordered sequence of operators, each a member or a
    per-rule plan read by :func:`~riskrules.engine.check_plan` (a sequence
    of members is several operators, so a plan goes inside one: ``[plan,
    GOEDEL]``); a bare member is one operator. A set, dict or generator
    is named whole (see :func:`_plans`). Returns ``(reports, pairs)``:
    per-operator EvalReports keyed by kind (a plan as the tuple
    ``check_plan`` returns), and a list of ``(kind_a, kind_b,
    McNemarResult)`` for every unordered pair, in the order given.
    """
    _check_inputs(dataset, ruleset)
    check_theta(theta_override)
    kinds = _plans(kinds, ruleset)
    if len(kinds) < 2:
        raise ValueError("need at least 2 operators to compare")
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate operator in comparison")
    tallies, predicted, expert = _tallies(dataset.cases, ruleset, kinds, (theta_override,))
    # Built before the pairs, so an empty dataset is named as such.
    reports = {k: _report(tally) for k, [tally] in zip(kinds, tallies)}
    pairs = [(kinds[i], kinds[j], mcnemar_exact(predicted[i], predicted[j], expert))
             for i in range(len(kinds)) for j in range(i + 1, len(kinds))]
    return reports, pairs


def _theta_grid(theta_min: float, theta_max: float, step: float) -> tuple[float, ...]:
    """The inclusive grid ``theta_min + i * step``, clamped to ``theta_max``.

    A point up to ``1e-9 * step`` past ``theta_max`` is float drift and
    becomes ``theta_max``; anything further is not part of the grid. A
    grid with two points the CSV would print alike is rejected, and so is
    a bound or step that is not an int or float (a bool too).
    """
    for name, value in (("theta_min", theta_min), ("theta_max", theta_max), ("step", step)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if not (0.0 < theta_min <= theta_max < 1.0):
        raise ValueError(f"invalid theta range [{theta_min}, {theta_max}]; "
                         "need 0 < theta_min <= theta_max < 1")
    if not (0.0 < step < math.inf):
        raise ValueError(f"invalid step {step}; must be positive and finite")
    span = (theta_max - theta_min) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:
        raise ValueError(f"theta grid [{theta_min}, {theta_max}] by {step} has more than "
                         f"{MAX_SWEEP_POINTS} points; at most {MAX_SWEEP_POINTS} are allowed")
    grid = tuple(min(theta_min + i * step, theta_max) for i in range(int(span) + 1))
    if len(set(map(_theta_label, grid))) < len(grid):
        raise ValueError(f"theta grid [{theta_min}, {theta_max}] by {step} has points "
                         "that print alike; use a larger step")
    return grid


def _theta_label(theta: float) -> str:
    """A grid point as the sweep CSV writes it (15 significant digits)."""
    return f"{theta:.15g}"


def threshold_sweep(dataset: Dataset, ruleset: RuleSet,
                    kinds: TNormKind | Sequence[TNormKind | Sequence[TNormKind]],
                    theta_min: float, theta_max: float, step: float) -> list[SweepPoint]:
    """Evaluate over an inclusive arithmetic progression of thresholds.

    ``kinds`` reads as in :func:`compare_operators`: a bare member is one
    operator, and an ordered sequence is several, each read by
    :func:`~riskrules.engine.check_plan`, so a per-rule plan is swept as
    ``[plan]``; a set, dict or generator is named whole, and each point's
    reports follow the order given. Chain scores do not depend on theta,
    so one walk over the cases folds each case's chains once per operator
    and compares them with every point of the grid (see
    :func:`_theta_grid`).
    """
    _check_inputs(dataset, ruleset)
    kinds = tuple(dict.fromkeys(_plans(kinds, ruleset)))  # a repeated operator is swept once
    if not kinds:
        raise ValueError("need at least one operator")
    thetas = _theta_grid(theta_min, theta_max, step)
    tallies, _, _ = _tallies(dataset.cases, ruleset, kinds, thetas)
    return [SweepPoint(theta, {k: _report(plan[i]) for k, plan in zip(kinds, tallies)})
            for i, theta in enumerate(thetas)]


# ---------------------------------------------------------------------------
# Exports.

def report_to_obj(report: EvalReport) -> dict:
    return {
        "n": report.n,
        "accuracy_overall": round(report.accuracy_overall, 6),
        "accuracy_by_type": {
            t.value: (None if report.accuracy_by_type[t] is None
                      else round(report.accuracy_by_type[t], 6))
            for t in CaseType
        },
        "fp_count": report.fp_count,
        "fn_count": report.fn_count,
        "fp_rate": round(report.fp_rate, 6),
        "fn_rate": round(report.fn_rate, 6),
        "categories": [c.value for c in CATEGORY_ORDER],
        "confusion": [list(row) for row in report.confusion],
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_obj(report), indent=2) + "\n"


def _name(kind: TNormKind) -> str:
    """An operator's name, as the writers print it; a per-rule plan has none."""
    if not isinstance(kind, TNormKind):
        raise ValueError(f"the writers take operators only, not the plan {kind!r}")
    return kind.value


def comparison_to_json(reports: dict, pairs: list) -> str:
    doc = {
        "reports": {_name(k): report_to_obj(r) for k, r in reports.items()},
        "pairs": [
            {
                "a": _name(a),
                "b_kind": _name(b),
                "b": res.b,
                "c": res.c,
                "p_one_sided": res.p_one_sided,
                "p_two_sided": res.p_two_sided,
            }
            for a, b, res in pairs
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def sweep_to_csv(points: list[SweepPoint]) -> str:
    lines = ["theta,kind,accuracy,fp_rate,fn_rate"]
    for pt in points:
        for kind, report in pt.reports.items():
            lines.append(f"{_theta_label(pt.theta)},{_name(kind)},"
                         f"{report.accuracy_overall:.6f},"
                         f"{report.fp_rate:.6f},{report.fn_rate:.6f}")
    return "\n".join(lines) + "\n"
