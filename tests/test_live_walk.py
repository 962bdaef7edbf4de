"""The batch path's decision walk over a case's live entries of
``RuleSet.ranked`` (``RuleSet.live_ranked``) against the full walk.

A rule that is not live on a case scores 0.0 and every theta is in
(0, 1), so ``predicted_category`` over the live entries must give the
category it gives over all of ``ranked``: on chain scores exactly on
theta, with per-rule thetas and no override, with minimal-risk rules and
with nothing ranked, and past the live-rule memo's cap. The strategies
are those of ``test_batch``.
"""

import dataclasses
from unittest import mock

from hypothesis import given, strategies as st

from riskrules import rules
from riskrules.benchmark import Case, CaseType, Dataset
from riskrules.engine import classify, predicted_category, rule_chain_scores
from riskrules.evaluation import evaluate, threshold_sweep
from riskrules.rules import RiskCategory, Rule, RuleSet
from test_batch import (ALL_KINDS, SETTINGS, _chain_thetas, _scalar_report, datasets, overrides,
                        rulesets)


def _walks_agree(ruleset, dataset, plan, theta):
    """Assert that each case's live entries are its ranked entries with a
    live rule, in ranked order, and decide as the full walk does."""
    for case in dataset.cases:
        scored = frozenset(case.scores)
        live = ruleset.live_rules(scored)
        entries = ruleset.live_ranked(scored)
        assert entries == tuple(e for e in ruleset.ranked if e[0] in live)
        chains = rule_chain_scores(case.scores, ruleset, plan)
        assert (predicted_category(ruleset, chains, theta, entries)
                is predicted_category(ruleset, chains, theta))


@st.composite
def plans(draw, ruleset):
    """One operator, or a per-rule plan of any mix of them."""
    return draw(st.sampled_from(ALL_KINDS)
                | st.lists(st.sampled_from(ALL_KINDS), min_size=len(ruleset.rules),
                           max_size=len(ruleset.rules)).map(tuple))


@SETTINGS
@given(st.data())
def test_live_walk_decides_as_the_full_walk(data):
    # overrides() draws None (each rule's own theta), a random theta, or
    # exactly one of the dataset's chain scores.
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    _walks_agree(ruleset, dataset, data.draw(plans(ruleset)),
                 data.draw(overrides(dataset, ruleset)))


@SETTINGS
@given(st.data())
def test_live_walk_on_per_rule_thetas_set_on_the_chains(data):
    # No override: each rule's own theta, drawn from the dataset's chain
    # scores, so chains lie exactly on the thetas they are compared with.
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    exact = _chain_thetas(dataset, ruleset)
    if exact:
        ruleset = RuleSet(ruleset.vocabulary, tuple(
            dataclasses.replace(r, theta=data.draw(st.sampled_from(exact)))
            for r in ruleset.rules))
    _walks_agree(ruleset, dataset, data.draw(plans(ruleset)), None)


@SETTINGS
@given(st.data(), st.integers(0, 3))
def test_live_walk_past_the_memo_cap(data, cap):
    # More distinct condition sets than the memo keeps: the sets past the
    # cap are computed per call, decide alike, and are not remembered.
    ruleset = data.draw(rulesets())
    dataset = data.draw(datasets(ruleset))
    kind = data.draw(st.sampled_from(ALL_KINDS))
    override = data.draw(overrides(dataset, ruleset))
    ruleset = RuleSet(ruleset.vocabulary, ruleset.rules)  # an empty memo: the draws filled it
    with mock.patch.object(rules, "LIVE_MEMO_SIZE", cap):
        _walks_agree(ruleset, dataset, kind, override)
        scalar = [classify(c.scores, ruleset, kind, override).predicted for c in dataset.cases]
        report = evaluate(dataset, ruleset, kind, override)
    assert report == _scalar_report(dataset, scalar)
    assert len(ruleset._live) == min(cap, len({frozenset(c.scores) for c in dataset.cases}))


def _case(case_id, scores, label=RiskCategory.MINIMAL_RISK):
    return Case(case_id, "", scores, label, CaseType.CLEAR)


def test_minimal_risk_rules_are_never_live_entries():
    # A live, firing minimal-risk rule has no ranked entry: the floor wins
    # when nothing above it fires, by either walk.
    ruleset = RuleSet(frozenset({"a", "b"}), (
        Rule("floor", RiskCategory.MINIMAL_RISK, ("a",), theta=0.1),
        Rule("high", RiskCategory.HIGH_RISK, ("a", "b"), theta=0.5),
        Rule("limited", RiskCategory.LIMITED_RISK, ("b",), theta=0.5),
    ))
    assert ruleset.live_ranked(frozenset({"a"})) == ()
    assert [e[0] for e in ruleset.live_ranked(frozenset({"a", "b"}))] == [1, 2]
    dataset = Dataset((_case("c0", {"a": 0.9}), _case("c1", {"a": 0.9, "b": 0.4}),
                       _case("c2", {"a": 0.2, "b": 0.9}, RiskCategory.LIMITED_RISK)))
    for kind in ALL_KINDS:
        _walks_agree(ruleset, dataset, kind, None)
        assert evaluate(dataset, ruleset, kind).accuracy_overall == 1.0


def test_nothing_ranked_decides_minimal_risk():
    # A rule set of minimal-risk rules only ranks nothing; every case's
    # live entries are empty, and every decision is the floor.
    ruleset = RuleSet(frozenset({"a", "b"}), (
        Rule("floor_a", RiskCategory.MINIMAL_RISK, ("a",), theta=0.1),
        Rule("floor_ab", RiskCategory.MINIMAL_RISK, ("a", "b"), theta=0.1),
    ))
    assert ruleset.ranked == ()
    dataset = Dataset((_case("c0", {"a": 0.9, "b": 0.9}), _case("c1", {"b": 0.0})))
    for case in dataset.cases:
        assert ruleset.live_ranked(frozenset(case.scores)) == ()
        assert predicted_category(ruleset, [1.0, 1.0], 0.5, ()) is RiskCategory.MINIMAL_RISK
    for kind in ALL_KINDS:
        _walks_agree(ruleset, dataset, kind, None)
        [point] = threshold_sweep(dataset, ruleset, kind, 0.5, 0.5, 0.1)
        assert point.reports[kind].accuracy_overall == 1.0


def test_live_entries_keep_ranked_order_not_declared_order():
    # Declared least severe first: the live entries follow the ranking, so
    # the most severe firing rule wins over the live entries too.
    ruleset = RuleSet(frozenset({"a", "b"}), (
        Rule("limited", RiskCategory.LIMITED_RISK, ("a",)),
        Rule("high", RiskCategory.HIGH_RISK, ("b",)),
        Rule("prohibited", RiskCategory.PROHIBITED, ("a", "b")),
    ))
    scored = frozenset({"a", "b"})
    assert [e[0] for e in ruleset.live_ranked(scored)] == [2, 1, 0]
    chains = rule_chain_scores({"a": 0.9, "b": 0.9}, ruleset, ALL_KINDS[0])
    assert (predicted_category(ruleset, chains, None, ruleset.live_ranked(scored))
            is RiskCategory.PROHIBITED)


def test_memo_holds_both_and_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(rules, "LIVE_MEMO_SIZE", 3)
    ruleset = rules.default_ruleset()
    sets = [frozenset({cond}) for cond in sorted(ruleset.vocabulary)]
    for scored in sets:
        assert ruleset.live_ranked(scored) == ()
        assert ruleset.live_rules(scored) == ()
    assert list(ruleset._live) == sets[:3]
    assert all(entry == ((), ()) for entry in ruleset._live.values())
