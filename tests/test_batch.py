"""Differential tests: the batch path in riskrules.evaluation against the
scalar reference in riskrules.engine, on random rule sets and cases.

The batch path folds only each case's live rules (those whose conditions
the case all scores), decides each case at every threshold and tallies
integer counts; these tests require it to reproduce, case for case, what
classify/classify_mixed predict, and build_report over those predictions
field for field.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from riskrules.benchmark import Case, CaseType, Dataset
from riskrules.engine import (
    classify,
    classify_mixed,
    predicted_category,
    rule_chain_scores,
    score_rule,
)
from riskrules.evaluation import (
    build_report,
    compare_operators,
    evaluate,
    evaluate_mixed,
    mcnemar_exact,
    threshold_sweep,
)
from riskrules.rules import ConjunctionStandard, RiskCategory, Rule, RuleSet
from riskrules.tnorms import TNormKind, fold_chain

VOCAB = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")
ALL_KINDS = tuple(TNormKind)

#: Thresholds in (0, 1), with weight on the ends of the interval.
thetas = st.one_of(
    st.sampled_from([5e-324, 1e-12, 0.5, 1 - 2 ** -53, 1 - 1e-12]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
#: Scores in [0, 1], with weight on the values the kernels special-case.
scores = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def rulesets(draw, annotated=False):
    vocab = draw(st.lists(st.sampled_from(VOCAB), min_size=1, unique=True))
    rules = []
    for i in range(draw(st.integers(1, 6))):
        conditions = draw(st.lists(st.sampled_from(vocab), min_size=1, unique=True))
        standard = draw(st.sampled_from(ConjunctionStandard)) if annotated else None
        rules.append(Rule(f"r{i}", draw(st.sampled_from(RiskCategory)), tuple(conditions),
                          draw(thetas), standard=standard))
    return RuleSet(frozenset(vocab), tuple(rules))


@st.composite
def datasets(draw, ruleset):
    cases = []
    for i in range(draw(st.integers(1, 12))):
        scored = draw(st.lists(st.sampled_from(sorted(ruleset.vocabulary)), unique=True))
        cases.append(Case(f"c{i}", "", {c: draw(scores) for c in scored},
                          draw(st.sampled_from(RiskCategory)), draw(st.sampled_from(CaseType))))
    return Dataset(tuple(cases))


def _scalar_report(dataset, predicted):
    return build_report([c.expert_label for c in dataset.cases], predicted,
                        [c.case_type for c in dataset.cases])


def _chain_thetas(dataset, ruleset):
    """Chain scores strictly inside (0, 1): thresholds where firing flips."""
    return sorted({s for c in dataset.cases for k in ALL_KINDS
                   for s in rule_chain_scores(c.scores, ruleset, k) if 0.0 < s < 1.0})


@st.composite
def overrides(draw, dataset, ruleset):
    """None, a random threshold, or exactly one of the dataset's chain scores."""
    exact = _chain_thetas(dataset, ruleset)
    options = [st.none(), thetas]
    if exact:
        options.append(st.sampled_from(exact))
    return draw(st.one_of(*options))


SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(st.data())
def test_evaluate_matches_classify(data):
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    kind = data.draw(st.sampled_from(ALL_KINDS))
    override = data.draw(overrides(dataset, ruleset))
    scalar = [classify(c.scores, ruleset, kind, override).predicted for c in dataset.cases]
    batch = [predicted_category(ruleset, rule_chain_scores(c.scores, ruleset, kind), override)
             for c in dataset.cases]
    assert batch == scalar
    assert evaluate(dataset, ruleset, kind, override) == _scalar_report(dataset, scalar)


@SETTINGS
@given(st.data())
def test_chain_scores_are_the_full_fold(data):
    # A live rule's score is fold_chain over its chain, bit for bit; any
    # other rule is 0.0, which the full fold (missing conditions as 0.0)
    # equals up to the sign of zero. Both equal the proof trail's score.
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    kinds = [data.draw(st.sampled_from(ALL_KINDS)) for _ in ruleset.rules]
    for case in dataset.cases:
        for per_rule in (kinds, kinds[0]):
            scores = rule_chain_scores(case.scores, ruleset, per_rule)
            for i, rule in enumerate(ruleset.rules):
                kind = kinds[i] if per_rule is kinds else per_rule
                full = fold_chain(kind, [case.scores.get(c, 0.0) for c in rule.conditions])
                if set(rule.conditions) <= case.scores.keys():
                    assert scores[i].hex() == full.hex()
                else:
                    assert scores[i].hex() == (0.0).hex() and full == 0.0
                assert scores[i] == score_rule(rule, case.scores, kind).score


@SETTINGS
@given(st.data())
def test_evaluate_mixed_matches_classify_mixed(data):
    ruleset = data.draw(rulesets(annotated=True))
    dataset = data.draw(datasets(ruleset))
    override = data.draw(overrides(dataset, ruleset))
    scalar = [classify_mixed(c.scores, ruleset, override).predicted for c in dataset.cases]
    assert evaluate_mixed(dataset, ruleset, override) == _scalar_report(dataset, scalar)


@SETTINGS
@given(st.data())
def test_compare_matches_scalar_reports_and_mcnemar(data):
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    kinds = data.draw(st.lists(st.sampled_from(ALL_KINDS), min_size=2, unique=True))
    override = data.draw(overrides(dataset, ruleset))
    scalar = {k: [classify(c.scores, ruleset, k, override).predicted for c in dataset.cases]
              for k in kinds}
    reports, pairs = compare_operators(dataset, ruleset, kinds, override)
    assert list(reports) == kinds
    for k in kinds:
        assert reports[k] == _scalar_report(dataset, scalar[k])
    expert = [c.expert_label for c in dataset.cases]
    want = [(a, b, mcnemar_exact(scalar[a], scalar[b], expert))
            for i, a in enumerate(kinds) for b in kinds[i + 1:]]
    assert pairs == want


@SETTINGS
@given(st.data())
def test_sweep_matches_classify_at_every_point(data):
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    kinds = data.draw(st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=3, unique=True))
    exact = _chain_thetas(dataset, ruleset)
    theta_min = data.draw(st.sampled_from(exact) if exact and data.draw(st.booleans())
                          else thetas)
    theta_max = data.draw(st.floats(min_value=theta_min, max_value=1.0, exclude_max=True))
    step = data.draw(st.floats(min_value=max((theta_max - theta_min) / 40, 1e-6), max_value=1.0))
    points = threshold_sweep(dataset, ruleset, kinds, theta_min, theta_max, step)
    assert points[0].theta == theta_min
    for pt in points:
        assert list(pt.reports) == kinds
        for k in kinds:
            scalar = [classify(c.scores, ruleset, k, pt.theta).predicted for c in dataset.cases]
            assert pt.reports[k] == _scalar_report(dataset, scalar)


def test_missing_condition_never_fires_even_at_tiny_theta():
    # Lukasiewicz T(1, 0) = 0 through the 1.0 short-circuit: a rule whose
    # first condition is missing stays at 0.0 however long the chain.
    ruleset = RuleSet(frozenset(VOCAB), (
        Rule("long", RiskCategory.PROHIBITED, VOCAB, theta=5e-324),
        Rule("short", RiskCategory.LIMITED_RISK, VOCAB[1:3], theta=0.5),
    ))
    case = Case("c", "", {c: 1.0 for c in VOCAB[1:]}, RiskCategory.LIMITED_RISK, CaseType.CLEAR)
    dataset = Dataset((case,))
    for kind in ALL_KINDS:
        assert classify(case.scores, ruleset, kind).predicted is RiskCategory.LIMITED_RISK
        assert evaluate(dataset, ruleset, kind).accuracy_overall == 1.0


def test_mcnemar_counts_any_consistent_label_encoding():
    # Severities as ints give the same result as the categories themselves.
    cats = [RiskCategory.HIGH_RISK, RiskCategory.MINIMAL_RISK, RiskCategory.PROHIBITED]
    a, b, e = cats, cats[::-1], [RiskCategory.HIGH_RISK] * 3
    as_ints = mcnemar_exact([c.severity for c in a], [c.severity for c in b],
                            bytes(c.severity for c in e))
    assert as_ints == mcnemar_exact(a, b, e)
    assert (as_ints.b, as_ints.c, as_ints.p_two_sided) == (1, 1, 1.0)
