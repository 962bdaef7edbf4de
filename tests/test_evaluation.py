"""Reports, exact McNemar test with enumeration oracle, comparison, sweeps."""

import dataclasses
import gc
import json
import math
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from riskrules import evaluation
from riskrules.benchmark import Case, CaseType, Dataset, generate_synthetic, load_dataset
from riskrules.engine import check_plan, rule_chain_scores
from riskrules.evaluation import (
    build_report,
    compare_operators,
    comparison_to_json,
    evaluate,
    evaluate_mixed,
    mcnemar_exact,
    report_to_json,
    sweep_to_csv,
    threshold_sweep,
)
from riskrules.rules import ConjunctionStandard, RiskCategory, Rule, RuleSet
from riskrules.tnorms import CANONICAL_KINDS, TNormKind

from conftest import DATA_DIR

MIN = RiskCategory.MINIMAL_RISK
LIM = RiskCategory.LIMITED_RISK
HIGH = RiskCategory.HIGH_RISK
PRO = RiskCategory.PROHIBITED


def _counts_report(fp: int, fn: int, n: int):
    """Build a report from target error counts via synthetic label pairs."""
    expert, predicted = [], []
    expert += [MIN] * fp
    predicted += [HIGH] * fp          # over-classified
    expert += [HIGH] * fn
    predicted += [MIN] * fn           # under-classified
    correct = n - fp - fn
    expert += [MIN] * correct
    predicted += [MIN] * correct
    return build_report(expert, predicted, [CaseType.CLEAR] * n)


class TestBuildReport:
    @pytest.mark.parametrize("fp,fn,pct", [(0, 223, 78.5), (0, 195, 81.2), (8, 152, 84.5)])
    def test_published_accuracy_arithmetic(self, fp, fn, pct):
        report = _counts_report(fp, fn, 1035)
        assert report.fp_count == fp and report.fn_count == fn
        assert round(report.accuracy_overall * 100, 1) == pct

    def test_perfect_predictions(self):
        report = build_report([HIGH, MIN], [HIGH, MIN], [CaseType.CLEAR, CaseType.MARGINAL])
        assert report.accuracy_overall == 1.0
        assert report.fp_count == report.fn_count == 0

    def test_single_over_classification(self):
        report = build_report([MIN], [LIM], [CaseType.CLEAR])
        assert report.fp_count == 1 and report.fn_count == 0
        assert report.accuracy_overall == 0.0

    def test_accuracy_identity(self):
        # every error is directional, so accuracy + (fp + fn)/n == 1
        import itertools
        cats = list(RiskCategory)
        expert = [a for a, _ in itertools.product(cats, repeat=2)]
        predicted = [b for _, b in itertools.product(cats, repeat=2)]
        report = build_report(expert, predicted, [CaseType.CLEAR] * len(expert))
        assert report.accuracy_overall == 1 - (report.fp_count + report.fn_count) / report.n

    def test_confusion_sums_to_n(self):
        report = _counts_report(3, 5, 20)
        assert sum(sum(row) for row in report.confusion) == 20

    def test_by_type_partition(self):
        expert = [HIGH, HIGH, MIN]
        predicted = [HIGH, MIN, MIN]
        types = [CaseType.CLEAR, CaseType.BORDERLINE, CaseType.BORDERLINE]
        report = build_report(expert, predicted, types)
        assert report.accuracy_by_type[CaseType.CLEAR] == 1.0
        assert report.accuracy_by_type[CaseType.BORDERLINE] == 0.5
        assert report.accuracy_by_type[CaseType.MARGINAL] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_report([], [], [])


def _enumeration_p(b: int, c: int):
    """Oracle: enumerate all 2^(b+c) equally likely discordance splits."""
    n = b + c
    hist = [0] * (n + 1)
    for x in range(2 ** n):
        hist[bin(x).count("1")] += 1
    tail = sum(hist[: min(b, c) + 1])
    p_one = tail / 2 ** n
    return p_one, min(1.0, 2.0 * p_one)


class TestMcNemar:
    def test_no_discordance_convention(self):
        res = mcnemar_exact([HIGH, MIN], [HIGH, MIN], [HIGH, HIGH])
        assert res.b == res.c == 0
        assert res.p_one_sided == res.p_two_sided == 1.0

    def test_one_each_way(self):
        p1, p2 = _enumeration_p(1, 1)
        res = mcnemar_exact([HIGH, MIN], [MIN, HIGH], [HIGH, HIGH])
        assert (res.b, res.c) == (1, 1)
        assert res.p_two_sided == 1.0 == p2
        assert res.p_one_sided == p1 == 0.75

    def test_fully_one_sided_28(self):
        expert = [HIGH] * 28
        pred_a = [MIN] * 28   # always wrong
        pred_b = [HIGH] * 28  # always right
        res = mcnemar_exact(pred_a, pred_b, expert)
        assert (res.b, res.c) == (0, 28)
        assert res.n_discordant == 28
        assert res.p_two_sided == 2.0 * 0.5 ** 28
        assert res.p_two_sided < 1e-3
        assert res.p_one_sided == 0.5 ** 28

    def test_8_vs_71(self):
        expert = [HIGH] * 79
        pred_a = [HIGH] * 8 + [MIN] * 71
        pred_b = [MIN] * 8 + [HIGH] * 71
        res = mcnemar_exact(pred_a, pred_b, expert)
        assert (res.b, res.c) == (8, 71)
        assert res.p_two_sided < 1e-3

    def test_enumeration_oracle_equivalence(self):
        for n in range(0, 13):
            for b in range(n + 1):
                c = n - b
                expert = [HIGH] * (b + c) + [MIN]
                pred_a = [HIGH] * b + [MIN] * c + [MIN]
                pred_b = [MIN] * b + [HIGH] * c + [MIN]
                res = mcnemar_exact(pred_a, pred_b, expert)
                assert (res.b, res.c) == (b, c)
                p1, p2 = _enumeration_p(b, c)
                assert res.p_one_sided == p1
                assert res.p_two_sided == p2

    def test_symmetry(self):
        expert = [HIGH] * 30
        pred_a = [HIGH] * 9 + [MIN] * 21
        pred_b = [MIN] * 9 + [HIGH] * 21
        fwd = mcnemar_exact(pred_a, pred_b, expert)
        rev = mcnemar_exact(pred_b, pred_a, expert)
        assert (fwd.b, fwd.c) == (rev.c, rev.b)
        assert fwd.p_one_sided == rev.p_one_sided
        assert fwd.p_two_sided == rev.p_two_sided

    def test_correctness_is_exact_category_match(self):
        # a severity-adjacent miss still counts as wrong
        res = mcnemar_exact([LIM], [HIGH], [HIGH])
        assert (res.b, res.c) == (0, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            mcnemar_exact([HIGH], [HIGH, MIN], [HIGH, MIN])

    def test_large_discordance_stays_finite(self):
        expert = [HIGH] * 1035
        pred_a = [HIGH] * 500 + [MIN] * 535
        pred_b = [MIN] * 500 + [HIGH] * 535
        res = mcnemar_exact(pred_a, pred_b, expert)
        assert 0.0 < res.p_two_sided <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 3000), st.integers(0, 3000))
    def test_matches_binomial_sum(self, b, c):
        n = b + c
        # one concordant pair keeps b = c = 0 from being an empty input
        res = mcnemar_exact([HIGH] * b + [MIN] * c + [MIN], [MIN] * b + [HIGH] * c + [MIN],
                            [HIGH] * n + [MIN])
        p_one = sum(math.comb(n, k) for k in range(min(b, c) + 1)) / 2 ** n
        assert (res.b, res.c) == (b, c)
        assert res.p_one_sided == p_one
        assert res.p_two_sided == min(1.0, 2.0 * p_one)

    def test_100k_discordant_pairs_finish(self):
        half = 50_000
        start = time.perf_counter()
        res = mcnemar_exact([HIGH] * half + [MIN] * half, [MIN] * half + [HIGH] * half,
                            [HIGH] * (2 * half))
        assert time.perf_counter() - start < 10.0
        assert res.n_discordant == 2 * half
        assert 0.5 < res.p_one_sided < 0.51 and res.p_two_sided == 1.0


class TestEvaluate:
    def test_appendix_lukasiewicz(self, appendix_dataset, ruleset):
        report = evaluate(appendix_dataset, ruleset, TNormKind.LUKASIEWICZ)
        assert report.n == 15
        assert report.fp_count == 0
        assert report.fn_count == 7
        assert report.accuracy_overall == pytest.approx(8 / 15)
        assert report.accuracy_by_type[CaseType.BORDERLINE] == 0.0

    def test_appendix_goedel(self, appendix_dataset, ruleset):
        report = evaluate(appendix_dataset, ruleset, TNormKind.GOEDEL)
        assert report.fp_count == 0
        assert report.fn_count == 5
        assert report.accuracy_overall == pytest.approx(10 / 15)
        assert report.accuracy_by_type[CaseType.BORDERLINE] == 1.0
        assert report.accuracy_by_type[CaseType.CLEAR] == 1.0

    def test_mixed_all_bottleneck_matches_goedel(self, appendix_dataset, ruleset):
        import dataclasses
        from riskrules.rules import ConjunctionStandard, RuleSet
        annotated = RuleSet(
            ruleset.vocabulary,
            tuple(dataclasses.replace(r, standard=ConjunctionStandard.BOTTLENECK)
                  for r in ruleset.rules))
        mixed = evaluate_mixed(appendix_dataset, annotated)
        goedel = evaluate(appendix_dataset, ruleset, TNormKind.GOEDEL)
        assert mixed == goedel

    def test_theta_override_changes_decisions(self, appendix_dataset, ruleset):
        relaxed = evaluate(appendix_dataset, ruleset, TNormKind.PRODUCT, theta_override=0.45)
        strict = evaluate(appendix_dataset, ruleset, TNormKind.PRODUCT)
        assert relaxed.fn_count < strict.fn_count  # HRM04 at 0.499 now fires

    @pytest.mark.parametrize("theta", [0.0, -0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_theta_override_outside_unit_interval_rejected(self, appendix_dataset, ruleset,
                                                           theta):
        annotated = RuleSet(ruleset.vocabulary, tuple(
            dataclasses.replace(r, standard=ConjunctionStandard.BOTTLENECK)
            for r in ruleset.rules))
        calls = (
            lambda: evaluate(appendix_dataset, ruleset, TNormKind.GOEDEL, theta),
            lambda: evaluate_mixed(appendix_dataset, annotated, theta),
            lambda: compare_operators(appendix_dataset, ruleset, CANONICAL_KINDS, theta),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"theta out of range \(0, 1\)"):
                call()

    @pytest.mark.parametrize("theta", ["0.5", b"0.5", [0.5]])
    def test_theta_override_not_a_number_named(self, appendix_dataset, ruleset, theta):
        calls = (
            lambda: evaluate(appendix_dataset, ruleset, TNormKind.GOEDEL, theta),
            lambda: compare_operators(appendix_dataset, ruleset, CANONICAL_KINDS, theta),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"theta must be a number, got {theta!r}"


class TestCompareOperators:
    def test_three_way(self, appendix_dataset, ruleset):
        reports, pairs = compare_operators(appendix_dataset, ruleset, CANONICAL_KINDS)
        assert set(reports) == set(CANONICAL_KINDS)
        assert [(a.value, b.value) for a, b, _ in pairs] == [
            ("lukasiewicz", "product"), ("lukasiewicz", "goedel"), ("product", "goedel")]
        luk_goe = pairs[1][2]
        assert (luk_goe.b, luk_goe.c) == (0, 2)  # HRM04 and HRM05
        assert luk_goe.p_one_sided == 0.25
        assert luk_goe.p_two_sided == 0.5

    def test_product_vs_logproduct_decision_equivalent(self, bench1035, ruleset):
        reports, pairs = compare_operators(
            bench1035, ruleset, [TNormKind.PRODUCT, TNormKind.LOGPRODUCT])
        res = pairs[0][2]
        assert res.b == res.c == 0
        assert res.p_two_sided == 1.0

    def test_goedel_borderline_accuracy_greatest(self, bench1035, ruleset):
        reports, _ = compare_operators(bench1035, ruleset, CANONICAL_KINDS)
        bord = {k: reports[k].accuracy_by_type[CaseType.BORDERLINE] for k in CANONICAL_KINDS}
        assert bord[TNormKind.GOEDEL] > bord[TNormKind.PRODUCT] >= bord[TNormKind.LUKASIEWICZ]

    def test_needs_two_kinds(self, appendix_dataset, ruleset):
        with pytest.raises(ValueError, match="at least 2"):
            compare_operators(appendix_dataset, ruleset, [TNormKind.PRODUCT])


class TestLibraryErrors:
    """The exact text of errors only a library caller can reach."""

    def test_duplicate_operator(self, appendix_dataset, ruleset):
        with pytest.raises(ValueError) as err:
            compare_operators(appendix_dataset, ruleset,
                              [TNormKind.GOEDEL, TNormKind.PRODUCT, TNormKind.GOEDEL])
        assert str(err.value) == "duplicate operator in comparison"

    def test_empty_dataset(self, ruleset):
        empty = Dataset(())
        annotated = RuleSet(ruleset.vocabulary, tuple(
            dataclasses.replace(r, standard=ConjunctionStandard.STRONG) for r in ruleset.rules))
        calls = (
            lambda: evaluate(empty, ruleset, TNormKind.GOEDEL),
            lambda: evaluate_mixed(empty, annotated),
            lambda: compare_operators(empty, ruleset, CANONICAL_KINDS),
            lambda: threshold_sweep(empty, ruleset, TNormKind.GOEDEL, 0.25, 0.75, 0.05),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "empty dataset"

    def test_empty_dataset_is_named_first(self, ruleset):
        # The default rules carry no conjunction standard, and the labels
        # below are misaligned; the empty input is still what is reported.
        calls = (
            lambda: evaluate_mixed(Dataset(()), ruleset),
            lambda: build_report([], [HIGH], []),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "empty dataset"

    @pytest.mark.parametrize("kind, received", [("goedel", "'goedel'"), ([None], "None")])
    def test_non_member_operator(self, kind, received):
        # A str is named whole, not read as a plan of one operator per
        # character; a plan's non-member is named by the fold.
        one = RuleSet(frozenset("abc"), (Rule("r", HIGH, ("a", "b", "c")),))
        case = Case("c", "", {"a": 0.93, "b": 0.88, "c": 0.61}, HIGH, CaseType.CLEAR)
        assert evaluate(Dataset((case,)), one, TNormKind.GOEDEL).accuracy_overall == 1.0
        calls = (
            lambda: rule_chain_scores(case.scores, one, kind),
            lambda: evaluate(Dataset((case,)), one, kind),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"unknown t-norm {received}"

    @pytest.mark.parametrize("entries", [3, 20])
    def test_plan_of_the_wrong_length(self, ruleset, entries):
        # One case that scores only rule 10's conditions: a 3-entry plan
        # used to raise a bare IndexError there, a 20-entry one was accepted.
        rule = ruleset.rules[10]
        case = Case("c", "", dict.fromkeys(rule.conditions, 0.9), HIGH, CaseType.CLEAR)
        plan = [TNormKind.GOEDEL] * entries
        calls = (
            lambda: rule_chain_scores(case.scores, ruleset, plan),
            lambda: evaluate(Dataset((case,)), ruleset, plan),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == (f"operator plan has {entries} entries; "
                                      f"the rule set has {len(ruleset.rules)} rules")

    def test_plan_of_the_right_length(self, ruleset):
        rule = ruleset.rules[10]
        case = Case("c", "", dict.fromkeys(rule.conditions, 0.9), rule.category, CaseType.CLEAR)
        plan = [TNormKind.GOEDEL] * len(ruleset.rules)
        assert rule_chain_scores(case.scores, ruleset, plan) == \
            rule_chain_scores(case.scores, ruleset, TNormKind.GOEDEL)
        assert evaluate(Dataset((case,)), ruleset, plan) == \
            evaluate(Dataset((case,)), ruleset, TNormKind.GOEDEL)

    @pytest.mark.parametrize("entries, received", [
        ([None] * 14, "None"),
        ([TNormKind.GOEDEL] * 13 + ["goedel"], "'goedel'"),
        ([TNormKind.GOEDEL, "product", None] + [TNormKind.GOEDEL] * 11, "'product'"),
    ])
    def test_plan_entry_that_is_not_a_member(self, ruleset, entries, received):
        # The case scores one condition, so no rule is live and no entry is
        # folded: a plan of 14 Nones used to give 14 zeros. The first entry
        # that is not a member is named.
        case = Case("c", "", {"public_space": 0.9}, MIN, CaseType.CLEAR)
        for plan in (entries, tuple(entries)):
            calls = (
                lambda: rule_chain_scores(case.scores, ruleset, plan),
                lambda: evaluate(Dataset((case,)), ruleset, plan),
                lambda: compare_operators(Dataset((case,)), ruleset, [plan, TNormKind.PRODUCT]),
            )
            for call in calls:
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == f"unknown t-norm {received}"

    def test_empty_mcnemar(self):
        with pytest.raises(ValueError) as err:
            mcnemar_exact([], [], [])
        assert str(err.value) == "empty predictions"

    @pytest.mark.parametrize("expert,predicted,types", [
        ([MIN], [MIN, MIN], [CaseType.CLEAR]),
        ([MIN, MIN], [MIN, MIN], [CaseType.CLEAR]),
        ([MIN], [], []),
    ])
    def test_misaligned_report(self, expert, predicted, types):
        with pytest.raises(ValueError) as err:
            build_report(expert, predicted, types)
        assert str(err.value) == "expert, predicted and case_types must be aligned"


class TestPlansAsAnySequence:
    """compare_operators and threshold_sweep read a plan given as a list
    as the same plan given as a tuple; a list used to raise a bare
    ``TypeError: unhashable type: 'list'``."""

    @pytest.fixture(scope="class")
    def cases(self):
        return generate_synthetic(20, 1)

    def test_a_list_plan_reports_as_the_tuple(self, ruleset, cases):
        plan = [TNormKind.GOEDEL] * 14
        as_list = compare_operators(cases, ruleset, [plan, TNormKind.PRODUCT])
        assert as_list == compare_operators(cases, ruleset, [tuple(plan), TNormKind.PRODUCT])
        assert as_list[0][tuple(plan)] == evaluate(cases, ruleset, TNormKind.GOEDEL)
        swept = threshold_sweep(cases, ruleset, [plan, TNormKind.PRODUCT], 0.25, 0.75, 0.25)
        assert swept == threshold_sweep(cases, ruleset, [tuple(plan), TNormKind.PRODUCT],
                                        0.25, 0.75, 0.25)

    def test_a_list_and_a_tuple_of_one_plan_are_one_operator(self, ruleset, cases):
        plan = [TNormKind.GOEDEL] * 14
        with pytest.raises(ValueError) as err:
            compare_operators(cases, ruleset, [plan, tuple(plan)])
        assert str(err.value) == "duplicate operator in comparison"
        swept = threshold_sweep(cases, ruleset, [plan, tuple(plan)], 0.25, 0.75, 0.25)
        assert swept == threshold_sweep(cases, ruleset, [tuple(plan)], 0.25, 0.75, 0.25)
        assert [list(point.reports) for point in swept] == [[tuple(plan)]] * 3

    def test_a_str_is_still_named_whole(self, ruleset, cases):
        calls = (
            lambda: compare_operators(cases, ruleset, ["goedel", TNormKind.PRODUCT]),
            lambda: threshold_sweep(cases, ruleset, ["goedel"], 0.25, 0.75, 0.25),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "unknown t-norm 'goedel'"


class TestOperatorEntries:
    """compare_operators and threshold_sweep read ``kinds`` alike and name
    each bad entry; the writers name a plan. Before, a bare member was a
    bare ``TypeError`` in compare_operators, a list inside a plan an
    ``unhashable type: 'list'`` in both, and a plan an ``AttributeError``
    in the writers."""

    @pytest.fixture(scope="class")
    def cases(self):
        return generate_synthetic(20, 1)

    def _both(self, cases, ruleset, kinds):
        return (lambda: compare_operators(cases, ruleset, kinds),
                lambda: threshold_sweep(cases, ruleset, kinds, 0.25, 0.75, 0.25))

    def test_a_bare_member_is_one_operator(self, ruleset, cases):
        with pytest.raises(ValueError) as err:
            compare_operators(cases, ruleset, TNormKind.GOEDEL)
        assert str(err.value) == "need at least 2 operators to compare"
        assert (threshold_sweep(cases, ruleset, TNormKind.GOEDEL, 0.25, 0.75, 0.25)
                == threshold_sweep(cases, ruleset, [TNormKind.GOEDEL], 0.25, 0.75, 0.25))

    @pytest.mark.parametrize("plan,named", [
        ([[TNormKind.GOEDEL]] * 14, [TNormKind.GOEDEL]),
        ([TNormKind.GOEDEL] * 13 + [{"goedel"}], {"goedel"}),
        ({TNormKind.GOEDEL}, {TNormKind.GOEDEL}),
        ({}, {}),
    ], ids=["list-entry", "set-entry", "set-plan", "dict-plan"])
    def test_an_unhashable_entry_is_named(self, ruleset, cases, plan, named):
        for call in self._both(cases, ruleset, [plan, TNormKind.PRODUCT]):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"unknown t-norm {named!r}"

    @pytest.mark.parametrize("call", [
        lambda cases, ruleset, kinds: compare_operators(cases, ruleset, kinds),
        lambda cases, ruleset, kinds: threshold_sweep(cases, ruleset, kinds, 0.5, 0.5, 0.1),
    ], ids=["compare_operators", "threshold_sweep"])
    @pytest.mark.parametrize("kinds", ["goedel", "g", 5, None])
    def test_a_bare_str_or_non_sequence_is_named_whole(self, ruleset, cases, call, kinds):
        # A str used to be read as one operator per character ('g').
        with pytest.raises(ValueError) as err:
            call(cases, ruleset, kinds)
        assert str(err.value) == f"unknown t-norm {kinds!r}"

    @pytest.mark.parametrize("text", [b"g" * 14, bytearray(b"g" * 14), memoryview(b"g" * 14)],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_a_bytes_like_plan_is_named_whole(self, ruleset, cases, text):
        # Each used to be read as a plan of ints: "unknown t-norm 103".
        message = f"unknown t-norm {text!r}"
        calls = (
            lambda: check_plan(text, ruleset),
            lambda: evaluate(cases, ruleset, text),
            lambda: compare_operators(cases, ruleset, [text, TNormKind.PRODUCT]),
            lambda: compare_operators(cases, ruleset, text),
            lambda: threshold_sweep(cases, ruleset, [text], 0.5, 0.5, 0.1),
            lambda: threshold_sweep(cases, ruleset, text, 0.5, 0.5, 0.1),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_a_plan_is_checked_before_the_walk(self, ruleset):
        for call in self._both(Dataset(()), ruleset, [[TNormKind.GOEDEL] * 3, TNormKind.PRODUCT]):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "operator plan has 3 entries; the rule set has 14 rules"

    def test_the_writers_name_a_plan(self, ruleset, cases):
        plan = (TNormKind.GOEDEL,) * 14
        message = f"the writers take operators only, not the plan {plan!r}"
        with pytest.raises(ValueError) as err:
            comparison_to_json(*compare_operators(cases, ruleset, [plan, TNormKind.PRODUCT]))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            comparison_to_json(*compare_operators(cases, ruleset, [TNormKind.PRODUCT, plan]))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            sweep_to_csv(threshold_sweep(cases, ruleset, [plan], 0.25, 0.75, 0.25))
        assert str(err.value) == message

    def test_a_sequence_of_members_is_several_operators(self, ruleset, cases):
        plan = [TNormKind.LUKASIEWICZ] + [TNormKind.GOEDEL] * 13
        several = threshold_sweep(cases, ruleset, plan, 0.5, 0.5, 0.1)
        assert [list(point.reports) for point in several] == [
            [TNormKind.LUKASIEWICZ, TNormKind.GOEDEL]]
        with pytest.raises(ValueError) as err:
            compare_operators(cases, ruleset, plan)
        assert str(err.value) == "duplicate operator in comparison"
        # A plan is one operator inside the sequence.
        [point] = threshold_sweep(cases, ruleset, [plan], 0.5, 0.5, 0.1)
        assert point.reports == {tuple(plan): evaluate(cases, ruleset, plan, 0.5)}
        reports, _ = compare_operators(cases, ruleset, [plan, TNormKind.GOEDEL], 0.5)
        assert list(reports) == [tuple(plan), TNormKind.GOEDEL]


class _CountingCases(tuple):
    """A tuple of cases that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestSingleWalk:
    """Every batch function walks its cases once, whatever the number of
    operators and thresholds."""

    @pytest.mark.parametrize("call", [
        lambda ds, rs, strong: evaluate(ds, rs, TNormKind.GOEDEL),
        lambda ds, rs, strong: evaluate_mixed(ds, strong),
        lambda ds, rs, strong: compare_operators(ds, rs, CANONICAL_KINDS),
        lambda ds, rs, strong: threshold_sweep(ds, rs, CANONICAL_KINDS, 0.25, 0.75, 0.05),
    ], ids=["evaluate", "evaluate_mixed", "compare_operators", "threshold_sweep"])
    def test_cases_walked_once(self, ruleset, call):
        strong = RuleSet(ruleset.vocabulary, tuple(
            dataclasses.replace(r, standard=ConjunctionStandard.STRONG) for r in ruleset.rules))
        plain = generate_synthetic(200, 3)
        cases = _CountingCases(plain.cases)
        dataset = Dataset(cases)
        assert cases.walks == 1  # Dataset checks each case
        cases.walks = 0
        result = call(dataset, ruleset, strong)
        assert cases.walks == 1
        assert result == call(plain, ruleset, strong)


@pytest.fixture(scope="module")
def hrm04_singleton(ruleset):
    full = load_dataset(DATA_DIR / "cases_appendix.jsonl")
    return Dataset(tuple(c for c in full.cases if c.case_id == "HRM04"))


class TestThresholdSweep:
    def test_hrm04_product_transition(self, hrm04_singleton, ruleset):
        points = threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT,
                                 0.25, 0.75, 0.05)
        assert len(points) == 11  # endpoint survives float drift
        assert points[0].theta == 0.25 and points[-1].theta == pytest.approx(0.75)
        for pt in points:
            report = pt.reports[TNormKind.PRODUCT]
            fired = report.fn_count == 0  # expert label high_risk
            assert fired == (pt.theta < 0.499), pt.theta

    def test_single_point_range(self, hrm04_singleton, ruleset):
        points = threshold_sweep(hrm04_singleton, ruleset, TNormKind.GOEDEL, 0.5, 0.5, 0.1)
        assert len(points) == 1
        assert points[0].theta == 0.5

    def test_fp_non_increasing_in_theta(self, bench1035, ruleset):
        points = threshold_sweep(bench1035, ruleset, CANONICAL_KINDS, 0.25, 0.75, 0.05)
        for kind in CANONICAL_KINDS:
            fps = [pt.reports[kind].fp_count for pt in points]
            assert all(a >= b for a, b in zip(fps, fps[1:])), kind

    @pytest.mark.parametrize("bad", [(0.0, 0.5, 0.1), (0.5, 0.2, 0.1), (0.2, 1.0, 0.1)])
    def test_invalid_range(self, hrm04_singleton, ruleset, bad):
        with pytest.raises(ValueError, match="invalid theta range"):
            threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT, *bad)

    def test_invalid_step(self, hrm04_singleton, ruleset):
        with pytest.raises(ValueError, match="invalid step"):
            threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT, 0.3, 0.6, 0.0)

    @pytest.mark.parametrize("step", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_step_rejected(self, hrm04_singleton, ruleset, step):
        with pytest.raises(ValueError, match="invalid step"):
            threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT, 0.3, 0.6, step)

    @pytest.mark.parametrize("grid, named", [
        (("0.2", 0.5, 0.1), "theta_min must be a number, got '0.2'"),
        ((0.2, [0.5], 0.1), "theta_max must be a number, got [0.5]"),
        ((0.2, 0.5, "0.1"), "step must be a number, got '0.1'"),
        ((0.2, 0.5, None), "step must be a number, got None"),
    ])
    def test_bound_or_step_not_a_number(self, hrm04_singleton, ruleset, grid, named):
        # Each used to be a bare TypeError from a comparison.
        with pytest.raises(ValueError) as err:
            threshold_sweep(hrm04_singleton, ruleset, [TNormKind.GOEDEL], *grid)
        assert str(err.value) == named

    def test_bench_grid_unchanged(self, hrm04_singleton, ruleset):
        points = threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT, 0.25, 0.75, 0.05)
        assert [pt.theta for pt in points] == [0.25 + i * 0.05 for i in range(11)]

    @pytest.mark.parametrize("grid,count,last", [
        ((0.25, 0.74, 0.05), 10, 0.25 + 9 * 0.05),
        ((0.1, 0.9, 0.3), 3, 0.1 + 2 * 0.3),
        ((0.1, 0.3, 0.1), 3, 0.3),  # 0.1 + 2 * 0.1 drifts past 0.3
    ])
    def test_no_point_beyond_theta_max(self, hrm04_singleton, ruleset, grid, count, last):
        points = threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT, *grid)
        assert len(points) == count
        assert points[-1].theta == last

    @pytest.mark.parametrize("step,count", [
        (1e-5, "80001"), (5e-324, "inf"),
        pytest.param(1e-300, str(int(0.8 / 1e-300)), id="1e-300-300digits")])
    def test_point_cap(self, hrm04_singleton, ruleset, step, count):
        # The message is bounded: it never prints the grid's computed size.
        with pytest.raises(ValueError) as err:
            threshold_sweep(hrm04_singleton, ruleset, TNormKind.PRODUCT, 0.1, 0.9, step)
        assert str(err.value) == (f"theta grid [0.1, 0.9] by {step} has more than 10001 "
                                  "points; at most 10001 are allowed")
        assert count not in str(err.value)

    @pytest.mark.parametrize("grid", [
        (0.1, 0.1000000000000004, 1e-16),  # four distinct points, each printed 0.1
        (0.5, 0.5000000000000001, 5.551115123131334e-17),  # the clamp repeats theta_max
    ])
    def test_points_that_print_alike_rejected(self, hrm04_singleton, ruleset, grid):
        with pytest.raises(ValueError) as err:
            threshold_sweep(hrm04_singleton, ruleset, TNormKind.GOEDEL, *grid)
        assert str(err.value) == (f"theta grid [{grid[0]}, {grid[1]}] by {grid[2]} has "
                                  "points that print alike; use a larger step")

    def test_memory_does_not_grow_with_cases(self, ruleset):
        # One tally per threshold, not one prediction per case and threshold:
        # tripling the cases of a 101-point sweep leaves its peak in place.
        peaks = []
        for n in (1000, 3000):
            dataset = generate_synthetic(n, 7)
            gc.collect()
            tracemalloc.start()
            try:
                threshold_sweep(dataset, ruleset, TNormKind.GOEDEL, 0.25, 0.75, 0.005)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.25 * 2**20, peaks

    def test_repeated_operator_is_swept_once(self, appendix_dataset, ruleset, monkeypatch):
        calls = []
        fold = evaluation.rule_chain_scores

        def counted(*args):
            calls.append(args)
            return fold(*args)

        monkeypatch.setattr(evaluation, "rule_chain_scores", counted)
        twice = threshold_sweep(appendix_dataset, ruleset, [TNormKind.GOEDEL] * 2,
                                0.25, 0.75, 0.05)
        assert len(calls) == len(appendix_dataset.cases)
        once = threshold_sweep(appendix_dataset, ruleset, [TNormKind.GOEDEL], 0.25, 0.75, 0.05)
        assert sweep_to_csv(twice) == sweep_to_csv(once)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(1e-3, 2.0))
    def test_grid_points_inside_range(self, hrm04_singleton, ruleset, lo, hi, step):
        lo, hi = min(lo, hi), max(lo, hi)
        thetas = [pt.theta for pt in
                  threshold_sweep(hrm04_singleton, ruleset, TNormKind.GOEDEL, lo, hi, step)]
        assert thetas[0] == lo
        assert all(lo <= t <= hi for t in thetas)
        assert 0.0 < thetas[0] and thetas[-1] < 1.0
        assert thetas == sorted(thetas)
        assert hi - thetas[-1] < step * (1 + 1e-6)  # the grid reaches theta_max


class TestExports:
    def test_report_json_fields(self, appendix_dataset, ruleset):
        report = evaluate(appendix_dataset, ruleset, TNormKind.GOEDEL)
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"n", "accuracy_overall", "accuracy_by_type", "fp_count",
                            "fn_count", "fp_rate", "fn_rate", "categories", "confusion"}
        assert doc["n"] == 15
        assert doc["categories"] == ["prohibited", "high_risk", "limited_risk", "minimal_risk"]
        assert len(doc["confusion"]) == 4 and all(len(r) == 4 for r in doc["confusion"])

    def test_comparison_pairs_keys(self, appendix_dataset, ruleset):
        reports, pairs = compare_operators(appendix_dataset, ruleset, CANONICAL_KINDS)
        doc = json.loads(comparison_to_json(reports, pairs))
        assert set(doc) == {"reports", "pairs"}
        assert len(doc["pairs"]) == 3
        assert set(doc["pairs"][0]) == {"a", "b_kind", "b", "c", "p_one_sided", "p_two_sided"}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 999_999), st.integers(1, 999_999), st.integers(1, 999_999))
    @example(250_000, 750_000, 50_000)  # the CLI's default grid
    def test_lattice_theta_labels_are_rounded_to_six_places(self, lo, hi, step):
        # On a grid whose ends and step lie on the 1e-6 lattice, each theta
        # label is the one rounding to six decimal places gives.
        lo, hi = sorted((lo, hi))
        step = max(step, -(-(hi - lo) // 2000))  # at most 2001 points
        report = build_report([MIN], [MIN], [CaseType.CLEAR])
        points = [evaluation.SweepPoint(theta, {TNormKind.GOEDEL: report})
                  for theta in evaluation._theta_grid(lo / 1e6, hi / 1e6, step / 1e6)]
        labels = [line.split(",")[0] for line in sweep_to_csv(points).splitlines()[1:]]
        assert labels == [f"{round(pt.theta, 6):g}" for pt in points]

    def test_sweep_csv_shape(self, hrm04_singleton, ruleset):
        points = threshold_sweep(hrm04_singleton, ruleset,
                                 [TNormKind.LUKASIEWICZ, TNormKind.GOEDEL], 0.3, 0.4, 0.05)
        text = sweep_to_csv(points)
        lines = text.splitlines()
        assert lines[0] == "theta,kind,accuracy,fp_rate,fn_rate"
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("0.3,lukasiewicz,")
        assert text.endswith("\n")
