"""Engine behaviour: scoring, priority selection, proof trails, exports."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from riskrules.benchmark import SplitMix64, load_case
from riskrules.engine import (
    ClassificationOutcome,
    ProofStep,
    RuleScore,
    check_theta,
    classify,
    classify_mixed,
    mixed_operators,
    outcome_to_json,
    predicted_category,
    rule_chain_scores,
    score_rule,
)
from riskrules.rules import ConjunctionStandard, RiskCategory, Rule, RuleSet
from riskrules.tnorms import CANONICAL_KINDS, TNormKind

from conftest import DATA_DIR

HRM04 = {"critical_infrastructure": 0.93, "safety_component": 0.88, "autonomous_decision": 0.61}
HRM05 = {"education_context": 0.92, "determines_access": 0.58, "affects_life_path": 0.63}


def _random_scores(rng, conditions):
    return {c: rng.random() for c in conditions}


class TestScoreRule:
    def test_divergence_case_lukasiewicz(self, ruleset):
        rule = ruleset.rule("high_risk_critical_infrastructure")
        rs = score_rule(rule, HRM04, TNormKind.LUKASIEWICZ)
        assert rs.score == pytest.approx(0.42)
        assert not rs.fired

    def test_divergence_case_goedel(self, ruleset):
        rule = ruleset.rule("high_risk_critical_infrastructure")
        rs = score_rule(rule, HRM04, TNormKind.GOEDEL)
        assert rs.score == 0.61
        assert rs.fired

    def test_divergence_case_product_is_borderline(self, ruleset):
        rule = ruleset.rule("high_risk_critical_infrastructure")
        rs = score_rule(rule, HRM04, TNormKind.PRODUCT)
        assert rs.score == pytest.approx(0.499, abs=5e-4)
        assert not rs.fired  # 0.499 fails the strict > 0.5 comparison

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_all_conditions_missing(self, kind, ruleset):
        rule = ruleset.rule("high_risk_education")
        rs = score_rule(rule, {}, kind)
        assert rs.score == 0.0
        assert not rs.fired
        assert len(rs.steps) == 3
        assert all(st.missing_condition for st in rs.steps)
        assert all(st.condition_score == 0.0 for st in rs.steps)

    @pytest.mark.parametrize("kind", ["goedel", None])
    def test_non_member_operator_rejected(self, kind):
        rule = Rule("r", RiskCategory.HIGH_RISK, ("a", "b"))
        with pytest.raises(ValueError) as err:
            score_rule(rule, {"a": 0.9, "b": 0.8}, kind)
        assert str(err.value) == f"unknown t-norm {kind!r}"

    def test_goedel_tie_keeps_the_accumulated_score(self, ruleset):
        # min(0.0, -0.0) is a tie: the trail keeps 0.0, as the batch fold does.
        scores = {"education_context": 0.9, "determines_access": 0.0, "affects_life_path": -0.0}
        outcome = classify(scores, ruleset, TNormKind.GOEDEL)
        rs = next(r for r in outcome.rule_scores if r.rule_id == "high_risk_education")
        assert rs.score.hex() == (0.0).hex()
        assert rs.steps[-1].accumulated.hex() == (0.0).hex()
        assert '"score": -0.0' not in outcome_to_json(outcome)

    def test_missing_conditions_are_recorded_not_raised(self, ruleset):
        rule = ruleset.rule("prohibited_rt_biometric")
        rs = score_rule(rule, {"public_space": 0.9}, TNormKind.GOEDEL)
        flags = [st.missing_condition for st in rs.steps]
        assert flags == [True, False, True]

    def test_score_exactly_theta_does_not_fire(self, ruleset):
        rule = ruleset.rule("high_risk_education")
        scores = {c: 0.5 for c in rule.conditions}
        rs = score_rule(rule, scores, TNormKind.GOEDEL)
        assert rs.score == 0.5
        assert not rs.fired

    def test_proof_completeness(self, ruleset):
        rng = SplitMix64(11)
        for rule in ruleset.rules:
            for kind in CANONICAL_KINDS:
                scores = _random_scores(rng, rule.conditions)
                rs = score_rule(rule, scores, kind)
                assert len(rs.steps) == len(rule.conditions)
                assert rs.steps[-1].accumulated == rs.score
                accs = [st.accumulated for st in rs.steps]
                assert all(a >= b for a, b in zip(accs, accs[1:]))
                assert rs.operator is kind
                trail = json.loads(outcome_to_json(ClassificationOutcome(
                    "c", RiskCategory.MINIMAL_RISK, kind.value, None, (rs,), None)))
                steps = trail["rules"][0]["steps"]
                assert [step["step_index"] for step in steps] == [0, 1, 2]
                assert {step["rule_id"] for step in steps} == {rule.rule_id}
                assert {step["operator"] for step in steps} == {kind.value}

    def test_records_hold_each_trail_fact_once(self):
        # A step's index, rule and operator come from its RuleScore.
        assert [f.name for f in dataclasses.fields(ProofStep)] == [
            "condition_id", "condition_score", "accumulated", "missing_condition"]
        assert [f.name for f in dataclasses.fields(RuleScore)] == [
            "rule_id", "category", "operator", "score", "fired", "steps"]


def _trail_records():
    """One of each trail record, each given a distinct value per field,
    so a record that mixes two fields up compares unequal."""
    step = ProofStep("safety_component", 0.88, 0.8184, True)
    rule_score = RuleScore("high_risk_credit", RiskCategory.HIGH_RISK, TNormKind.PRODUCT,
                           0.25, True, (step, ProofStep("c", 0.5, 0.125, False)))
    outcome = ClassificationOutcome("HRM04", RiskCategory.LIMITED_RISK, "mixed", 0.75,
                                    (rule_score,), "limited_chatbot")
    return step, rule_score, outcome


_RECORD_FIELDS = {
    ProofStep: ("condition_id", "condition_score", "accumulated", "missing_condition"),
    RuleScore: ("rule_id", "category", "operator", "score", "fired", "steps"),
    ClassificationOutcome: ("case_id", "predicted", "tnorm", "theta_used", "rule_scores",
                            "winning_rule"),
}


class TestTrailRecords:
    """ProofStep, RuleScore and ClassificationOutcome behave as frozen
    dataclasses: fields, replace, asdict, equality, hash, pickle and copy."""

    def test_each_field_holds_what_it_was_given(self):
        step, rule_score, outcome = _trail_records()
        for record in (step, rule_score, outcome):
            assert tuple(f.name for f in dataclasses.fields(record)) == \
                _RECORD_FIELDS[type(record)]
        assert dataclasses.asdict(step) == {
            "condition_id": "safety_component", "condition_score": 0.88,
            "accumulated": 0.8184, "missing_condition": True}
        assert [getattr(rule_score, name) for name in _RECORD_FIELDS[RuleScore]] == [
            "high_risk_credit", RiskCategory.HIGH_RISK, TNormKind.PRODUCT, 0.25, True,
            rule_score.steps]
        assert [getattr(outcome, name) for name in _RECORD_FIELDS[ClassificationOutcome]] == [
            "HRM04", RiskCategory.LIMITED_RISK, "mixed", 0.75, (rule_score,), "limited_chatbot"]
        as_dict = dataclasses.asdict(outcome)
        assert as_dict["rule_scores"][0]["steps"][0] == dataclasses.asdict(step)
        assert list(as_dict) == list(_RECORD_FIELDS[ClassificationOutcome])

    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("round_trip", [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_round_trips_compare_equal(self, index, round_trip):
        record = _trail_records()[index]
        again = round_trip(record)
        assert type(again) is type(record)
        assert again == record
        assert hash(again) == hash(record)
        assert [getattr(again, f) for f in _RECORD_FIELDS[type(record)]] == \
            [getattr(record, f) for f in _RECORD_FIELDS[type(record)]]

    def test_a_classified_outcome_round_trips(self, ruleset):
        outcome = classify(HRM04, ruleset, TNormKind.PRODUCT, case_id="HRM04")
        again = pickle.loads(pickle.dumps(outcome))
        assert again == outcome
        assert outcome_to_json(again) == outcome_to_json(outcome)
        assert copy.deepcopy(outcome) == outcome

    @pytest.mark.parametrize("index", range(3))
    def test_replace_changes_one_field(self, index):
        record = _trail_records()[index]
        names = _RECORD_FIELDS[type(record)]
        changed = dataclasses.replace(record, **{names[0]: "other"})
        assert type(changed) is type(record)
        assert getattr(changed, names[0]) == "other"
        assert [getattr(changed, n) for n in names[1:]] == [getattr(record, n) for n in names[1:]]
        assert changed != record
        assert dataclasses.replace(record) == record

    @pytest.mark.parametrize("index", range(3))
    def test_equal_records_have_equal_hashes(self, index):
        record = _trail_records()[index]
        twin = _trail_records()[index]
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
        assert record != dataclasses.astuple(record)
        assert len({record, twin}) == 1

    @pytest.mark.parametrize("index", range(3))
    def test_frozen(self, index):
        record = _trail_records()[index]
        name = _RECORD_FIELDS[type(record)][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) == getattr(_trail_records()[index], name)

    @pytest.mark.parametrize("index", range(3))
    def test_slotted_without_instance_dict(self, index):
        record = _trail_records()[index]
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == _RECORD_FIELDS[type(record)]


class TestClassify:
    def test_hrm04_predictions(self, ruleset):
        expected = {
            TNormKind.LUKASIEWICZ: RiskCategory.MINIMAL_RISK,
            TNormKind.PRODUCT: RiskCategory.MINIMAL_RISK,
            TNormKind.GOEDEL: RiskCategory.HIGH_RISK,
        }
        for kind, want in expected.items():
            outcome = classify(HRM04, ruleset, kind, case_id="HRM04")
            assert outcome.predicted is want, kind

    @pytest.mark.parametrize("kind, message", [
        (None, "unknown t-norm None"),
        ("goedel", "unknown t-norm 'goedel'"),
        (b"g", "unknown t-norm b'g'"),
        ([TNormKind.GOEDEL] * 2, "operator plan has 2 entries; the rule set has 1 rules"),
    ], ids=["none", "str", "bytes", "plan-too-long"])
    def test_an_operator_that_is_no_member_or_plan_is_named(self, kind, message):
        # A one-condition rule never applies its operator: each of these
        # used to fail only on kind.value, with an AttributeError.
        one = RuleSet(frozenset({"a"}), (Rule("r", RiskCategory.HIGH_RISK, ("a",)),))
        with pytest.raises(ValueError) as err:
            classify({"a": 0.9}, one, kind)
        assert str(err.value) == message

    def test_a_plan_is_read_as_evaluate_reads_it(self, ruleset):
        # A valid plan on the 14 default rules used to be "unknown t-norm [...]".
        plan = [TNormKind.GOEDEL] * len(ruleset.rules)
        outcome = classify(HRM04, ruleset, plan, case_id="HRM04")
        assert outcome.tnorm == "mixed"
        assert dataclasses.replace(outcome, tnorm="goedel") == \
            classify(HRM04, ruleset, TNormKind.GOEDEL, case_id="HRM04")

    def test_hrm05_predictions(self, ruleset):
        assert classify(HRM05, ruleset, TNormKind.GOEDEL).predicted is RiskCategory.HIGH_RISK
        assert classify(HRM05, ruleset, TNormKind.LUKASIEWICZ).predicted is RiskCategory.MINIMAL_RISK

    def test_goedel_winner_is_education_rule(self, ruleset):
        outcome = classify(HRM05, ruleset, TNormKind.GOEDEL)
        assert outcome.winning_rule == "high_risk_education"

    def test_all_zero_scores(self, ruleset):
        scores = {c: 0.0 for c in ruleset.vocabulary}
        outcome = classify(scores, ruleset, TNormKind.GOEDEL)
        assert outcome.predicted is RiskCategory.MINIMAL_RISK
        assert outcome.winning_rule is None
        assert not any(rs.fired for rs in outcome.rule_scores)

    def test_every_rule_scored(self, ruleset):
        outcome = classify(HRM04, ruleset, TNormKind.GOEDEL)
        assert len(outcome.rule_scores) == len(ruleset.rules)

    def test_predicted_is_max_fired_severity(self, ruleset):
        scores = {c: 0.95 for c in ruleset.vocabulary}  # everything fires
        outcome = classify(scores, ruleset, TNormKind.GOEDEL)
        assert outcome.predicted is RiskCategory.PROHIBITED

    def test_theta_override_monotone(self, ruleset):
        rng = SplitMix64(23)
        for _ in range(200):
            scores = _random_scores(rng, list(ruleset.vocabulary))
            prev_sev = 4
            prev_fired = None
            for theta in (0.2, 0.4, 0.6, 0.8):
                outcome = classify(scores, ruleset, TNormKind.PRODUCT, theta_override=theta)
                fired = {rs.rule_id for rs in outcome.rule_scores if rs.fired}
                if prev_fired is not None:
                    assert fired <= prev_fired
                    assert outcome.predicted.severity <= prev_sev
                prev_fired, prev_sev = fired, outcome.predicted.severity

    def test_firing_monotone_across_operators(self, ruleset):
        rng = SplitMix64(31)
        order = (TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.GOEDEL)
        for _ in range(300):
            scores = _random_scores(rng, list(ruleset.vocabulary))
            fired = {}
            severity = {}
            for kind in order:
                outcome = classify(scores, ruleset, kind)
                fired[kind] = {rs.rule_id for rs in outcome.rule_scores if rs.fired}
                severity[kind] = outcome.predicted.severity
            assert fired[order[0]] <= fired[order[1]] <= fired[order[2]]
            assert severity[order[0]] <= severity[order[1]] <= severity[order[2]]

    def test_goedel_firing_criterion(self, ruleset):
        # fires iff every condition present and above theta
        rule = ruleset.rule("limited_chatbot")
        ok = {c: 0.51 for c in rule.conditions}
        assert score_rule(rule, ok, TNormKind.GOEDEL).fired
        for c in rule.conditions:
            weak = dict(ok, **{c: 0.5})
            assert not score_rule(rule, weak, TNormKind.GOEDEL).fired
            missing = {k: v for k, v in ok.items() if k != c}
            assert not score_rule(rule, missing, TNormKind.GOEDEL).fired

    def test_winner_tie_breaks_to_lexicographic_id(self):
        vocab = frozenset({"a", "b"})
        rules = (
            Rule("zeta", RiskCategory.HIGH_RISK, ("a",)),
            Rule("alpha", RiskCategory.HIGH_RISK, ("b",)),
        )
        ruleset = RuleSet(vocab, rules)
        outcome = classify({"a": 0.9, "b": 0.9}, ruleset, TNormKind.GOEDEL)
        assert outcome.winning_rule == "alpha"
        # higher score beats lexicographic order
        outcome = classify({"a": 0.95, "b": 0.9}, ruleset, TNormKind.GOEDEL)
        assert outcome.winning_rule == "zeta"

    def test_minimal_category_rule_never_wins(self):
        vocab = frozenset({"a"})
        ruleset = RuleSet(vocab, (Rule("floor", RiskCategory.MINIMAL_RISK, ("a",)),))
        outcome = classify({"a": 0.9}, ruleset, TNormKind.GOEDEL)
        assert outcome.rule_scores[0].fired  # scored and trailed like any rule
        assert outcome.predicted is RiskCategory.MINIMAL_RISK
        assert outcome.winning_rule is None


def _two_step_winner(rule_scores):
    """The winner selection classify used before its single ``min``: the
    top fired severity above the floor, then the highest score, then the
    smallest rule_id."""
    fired_above_floor = [
        rs for rs in rule_scores
        if rs.fired and rs.category.severity > RiskCategory.MINIMAL_RISK.severity
    ]
    if not fired_above_floor:
        return RiskCategory.MINIMAL_RISK, None
    top = max(rs.category.severity for rs in fired_above_floor)
    contenders = [rs for rs in fired_above_floor if rs.category.severity == top]
    winner = sorted(contenders, key=lambda rs: (-rs.score, rs.rule_id))[0]
    return winner.category, winner.rule_id


#: Few distinct values, so chain scores and thetas tie often.
_tie_values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def _tied_classifications(draw):
    vocab = ("a", "b", "c")
    ids = draw(st.lists(st.text("xyz", min_size=1, max_size=3), min_size=1, max_size=8,
                        unique=True))
    rules = tuple(
        Rule(rule_id, draw(st.sampled_from(RiskCategory)),
             tuple(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=2, unique=True))),
             draw(st.sampled_from([0.25, 0.5, 0.75])),
             standard=draw(st.sampled_from(ConjunctionStandard)))
        for rule_id in ids)
    scores = draw(st.dictionaries(st.sampled_from(vocab), _tie_values))
    theta = draw(st.sampled_from([None, 0.2, 0.25, 0.5]))
    return RuleSet(frozenset(vocab), rules), scores, theta


@given(_tied_classifications(), st.sampled_from([*TNormKind, None]))
def test_winner_matches_two_step_selection(drawn, kind):
    ruleset, scores, theta = drawn
    if kind is None:
        outcome = classify_mixed(scores, ruleset, theta)
    else:
        outcome = classify(scores, ruleset, kind, theta)
    assert (outcome.predicted, outcome.winning_rule) == _two_step_winner(outcome.rule_scores)


@st.composite
def _tie_heavy_chains(draw):
    vocab = ("a", "b", "c", "d")
    rules = tuple(
        Rule(f"r{i}", RiskCategory.HIGH_RISK,
             tuple(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4, unique=True))),
             standard=draw(st.sampled_from(ConjunctionStandard)))
        for i in range(draw(st.integers(1, 4))))
    scores = draw(st.dictionaries(st.sampled_from(vocab),
                                  st.one_of(_tie_values, st.floats(0.0, 1.0))))
    return RuleSet(frozenset(vocab), rules), scores


@given(_tie_heavy_chains(), st.sampled_from([*TNormKind, None]))
def test_live_trail_scores_are_the_batch_scores_bit_for_bit(drawn, kind):
    # The trail applies the operator step by step and the batch path folds
    # the chain; on ties, signed zeros and ones both keep the same operand.
    ruleset, scores = drawn
    kinds = mixed_operators(ruleset) if kind is None else [kind] * len(ruleset.rules)
    batch = rule_chain_scores(scores, ruleset, kinds if kind is None else kind)
    for i in ruleset.live_rules(frozenset(scores)):
        assert score_rule(ruleset.rules[i], scores, kinds[i]).score.hex() == batch[i].hex()


BAD_THETAS = [0.0, 1.0, -1.0, 1.5, math.nan]


class TestThetaOverrideRange:
    @pytest.mark.parametrize("theta", BAD_THETAS)
    def test_check_theta_rejects(self, theta):
        with pytest.raises(ValueError) as exc:
            check_theta(theta)
        assert str(exc.value) == f"theta out of range (0, 1): {theta}"

    @pytest.mark.parametrize("theta", [None, 5e-324, 0.5, 1 - 2 ** -53])
    def test_check_theta_accepts(self, theta):
        check_theta(theta)

    @pytest.mark.parametrize("theta", BAD_THETAS)
    def test_classify_rejects(self, ruleset, theta):
        # One scored condition: -1.0 used to fire every rule that scores it.
        with pytest.raises(ValueError, match=r"^theta out of range \(0, 1\): "):
            classify({"public_space": 0.4}, ruleset, TNormKind.GOEDEL, theta)

    @pytest.mark.parametrize("theta", BAD_THETAS)
    def test_classify_mixed_rejects(self, ruleset, theta):
        with pytest.raises(ValueError, match=r"^theta out of range \(0, 1\): "):
            classify_mixed({"public_space": 0.4}, _annotated(ruleset), theta)

    @pytest.mark.parametrize("theta", ["0.5", "x", b"0.5", [0.5], 0.5j])
    def test_what_is_not_a_number_is_named(self, ruleset, theta):
        # Each used to be a bare TypeError from the range comparison.
        calls = (
            lambda: check_theta(theta),
            lambda: classify({"public_space": 0.4}, ruleset, TNormKind.GOEDEL, theta),
            lambda: classify_mixed({"public_space": 0.4}, _annotated(ruleset), theta),
        )
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"theta must be a number, got {theta!r}"

    def test_classify_mixed_checks_theta_before_annotations(self, ruleset):
        with pytest.raises(ValueError, match="theta out of range"):
            classify_mixed(HRM04, ruleset, 1.5)


def _annotated(ruleset, bottleneck=()):
    rules = tuple(
        dataclasses.replace(
            r,
            standard=(ConjunctionStandard.BOTTLENECK if r.rule_id in bottleneck
                      else ConjunctionStandard.STRONG),
        )
        for r in ruleset.rules
    )
    return RuleSet(ruleset.vocabulary, rules)


class TestClassifyMixed:
    def test_bottleneck_education_rule_catches_hrm05(self, ruleset):
        mixed = _annotated(ruleset, bottleneck={"high_risk_education"})
        outcome = classify_mixed(HRM05, mixed, case_id="HRM05")
        assert outcome.predicted is RiskCategory.HIGH_RISK
        assert outcome.tnorm == "mixed"

    def test_uniform_strong_degenerates_to_lukasiewicz(self, ruleset):
        mixed = _annotated(ruleset)
        rng = SplitMix64(47)
        for _ in range(100):
            scores = _random_scores(rng, list(ruleset.vocabulary))
            got = classify_mixed(scores, mixed, case_id="x")
            want = classify(scores, ruleset, TNormKind.LUKASIEWICZ, case_id="x")
            assert got.predicted is want.predicted
            assert got.winning_rule == want.winning_rule
            assert [rs.score for rs in got.rule_scores] == \
                [rs.score for rs in want.rule_scores]

    def test_unannotated_rule_is_an_error(self, ruleset):
        rules = list(_annotated(ruleset).rules)
        rules[3] = dataclasses.replace(rules[3], standard=None)
        broken = RuleSet(ruleset.vocabulary, tuple(rules))
        with pytest.raises(ValueError, match=rules[3].rule_id):
            classify_mixed(HRM04, broken)

    def test_step_operators_follow_annotation(self, ruleset):
        mixed = _annotated(ruleset, bottleneck={"high_risk_education"})
        outcome = classify_mixed(HRM05, mixed)
        per_rule = {rs.rule_id: rs.operator for rs in outcome.rule_scores}
        assert per_rule["high_risk_education"] is TNormKind.GOEDEL
        assert per_rule["high_risk_employment"] is TNormKind.LUKASIEWICZ
        doc = json.loads(outcome_to_json(outcome))
        per_step = {r["rule_id"]: {step["operator"] for step in r["steps"]} for r in doc["rules"]}
        assert per_step["high_risk_education"] == {"goedel"}
        assert per_step["high_risk_employment"] == {"lukasiewicz"}


class TestFastPathParity:
    def test_chain_scores_match_classify(self, ruleset):
        rng = SplitMix64(53)
        for kind in CANONICAL_KINDS + (TNormKind.LOGPRODUCT,):
            for _ in range(100):
                scores = _random_scores(rng, list(ruleset.vocabulary))
                outcome = classify(scores, ruleset, kind)
                fast = rule_chain_scores(scores, ruleset, kind)
                assert fast == [rs.score for rs in outcome.rule_scores]
                assert predicted_category(ruleset, fast) is outcome.predicted

    def test_predicted_category_honours_override(self, ruleset):
        fast = rule_chain_scores(HRM04, ruleset, TNormKind.PRODUCT)
        assert predicted_category(ruleset, fast, 0.45) is RiskCategory.HIGH_RISK
        assert predicted_category(ruleset, fast, 0.50) is RiskCategory.MINIMAL_RISK

    def test_product_and_logproduct_decisions_agree(self, ruleset):
        rng = SplitMix64(59)
        for _ in range(200):
            scores = _random_scores(rng, list(ruleset.vocabulary))
            a = rule_chain_scores(scores, ruleset, TNormKind.PRODUCT)
            b = rule_chain_scores(scores, ruleset, TNormKind.LOGPRODUCT)
            assert a == b


#: sha256 of the golden trails of TestOutcomeExport.test_golden_trail_digest.
GOLDEN_TRAIL_SHA256 = "153bd72477b4572e73227dc9449a2e60b3285a83482fc3d75b3ac2bdc9279e11"


class TestOutcomeExport:
    def test_deterministic_byte_identical(self, ruleset):
        a = outcome_to_json(classify(HRM04, ruleset, TNormKind.GOEDEL, case_id="HRM04"))
        b = outcome_to_json(classify(HRM04, ruleset, TNormKind.GOEDEL, case_id="HRM04"))
        assert a == b
        assert a.endswith("\n")

    def test_schema(self, ruleset):
        doc = json.loads(outcome_to_json(classify(HRM04, ruleset, TNormKind.GOEDEL,
                                                  theta_override=0.5, case_id="HRM04")))
        assert set(doc) == {"case_id", "tnorm", "theta", "predicted", "winning_rule", "rules"}
        assert doc["case_id"] == "HRM04"
        assert doc["tnorm"] == "goedel"
        assert doc["theta"] == 0.5
        assert doc["predicted"] == "high_risk"
        assert doc["winning_rule"] == "high_risk_critical_infrastructure"
        assert len(doc["rules"]) == 14
        rule = next(r for r in doc["rules"] if r["rule_id"] == "high_risk_critical_infrastructure")
        assert rule["fired"] is True
        assert rule["score"] == 0.61
        step_keys = {"step_index", "rule_id", "condition_id", "condition_score",
                     "operator", "accumulated", "missing_condition"}
        assert set(rule["steps"][0]) == step_keys

    def test_scores_rounded_to_six_digits(self, ruleset):
        scores = {c: 1 / 3 for c in ruleset.rule("limited_chatbot").conditions}
        doc = json.loads(outcome_to_json(classify(scores, ruleset, TNormKind.PRODUCT)))
        rule = next(r for r in doc["rules"] if r["rule_id"] == "limited_chatbot")
        assert rule["steps"][0]["condition_score"] == 0.333333
        assert rule["score"] == round((1 / 3) ** 3, 6)

    def test_mixed_outcome_and_null_theta(self, ruleset):
        mixed = _annotated(ruleset)
        rules = tuple(dataclasses.replace(r, theta=0.4 + 0.01 * i)
                      for i, r in enumerate(mixed.rules))
        varied = RuleSet(mixed.vocabulary, rules)
        doc = json.loads(outcome_to_json(classify_mixed(HRM04, varied, case_id="x")))
        assert doc["tnorm"] == "mixed"
        assert doc["theta"] is None  # no single threshold applies

    def test_golden_trail_digest(self, ruleset, appendix_dataset):
        # hrm04.json and the 15 appendix cases; goedel, lukasiewicz and
        # product on the default rules, and mixed mode on those rules
        # annotated as perfbench/worker.py annotates them (prohibited rules
        # strong, the rest bottlenecks); theta None and 0.4. Hashed in
        # that loop order.
        mixed = RuleSet(ruleset.vocabulary, tuple(
            dataclasses.replace(r, standard=ConjunctionStandard.STRONG
                                if r.category is RiskCategory.PROHIBITED
                                else ConjunctionStandard.BOTTLENECK)
            for r in ruleset.rules))
        digest = hashlib.sha256()
        for case in (load_case(DATA_DIR / "hrm04.json"), *appendix_dataset.cases):
            for kind in (*CANONICAL_KINDS, None):
                for theta in (None, 0.4):
                    if kind is None:
                        outcome = classify_mixed(case.scores, mixed, theta, case_id=case.case_id)
                    else:
                        outcome = classify(case.scores, ruleset, kind, theta,
                                           case_id=case.case_id)
                    digest.update(outcome_to_json(outcome).encode())
        assert digest.hexdigest() == GOLDEN_TRAIL_SHA256


# ---------------------------------------------------------------------------
# Trail writer parity: outcome_to_json writes the layout json.dumps gives
# this object, without building it.

def outcome_to_obj(outcome):
    """The proof trail as the object ``outcome_to_json`` writes; the oracle."""
    return {
        "case_id": outcome.case_id,
        "tnorm": outcome.tnorm,
        "theta": None if outcome.theta_used is None else round(outcome.theta_used, 6),
        "predicted": outcome.predicted.value,
        "winning_rule": outcome.winning_rule,
        "rules": [
            {
                "rule_id": rs.rule_id,
                "category": rs.category.value,
                "score": round(rs.score, 6),
                "fired": rs.fired,
                "steps": [
                    {
                        "step_index": i,
                        "rule_id": rs.rule_id,
                        "condition_id": st.condition_id,
                        "condition_score": round(st.condition_score, 6),
                        "operator": rs.operator.value,
                        "accumulated": round(st.accumulated, 6),
                        "missing_condition": st.missing_condition,
                    }
                    for i, st in enumerate(rs.steps)
                ],
            }
            for rs in outcome.rule_scores
        ],
    }


#: Ids with non-ASCII, quote, backslash and control characters.
_ids = st.text(st.sampled_from('aé€\U0001f600"\\\x00\x1f\n '), max_size=4) | st.text(max_size=4)
#: Scores that print specially or round at the sixth decimal.
_trail_scores = (st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1 / 3, 0.1234565, 0.4999995, 0.9999995,
                                  1e-7, 5e-7])
                 | st.floats(0.0, 1.0))
_thetas = st.sampled_from([0.5, 0.4999995, 1 / 3]) | st.floats(0.0, 1.0, exclude_min=True,
                                                                exclude_max=True)


@st.composite
def _trail_cases(draw):
    vocab = ("a", "b", "c", "d")
    shared = draw(_thetas) if draw(st.booleans()) else None
    rules = tuple(
        Rule(rule_id, draw(st.sampled_from(RiskCategory)),
             tuple(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4, unique=True))),
             shared if shared is not None else draw(_thetas),
             standard=draw(st.sampled_from(ConjunctionStandard)))
        for rule_id in draw(st.lists(_ids.filter(bool), max_size=4, unique=True)))
    scores = draw(st.dictionaries(st.sampled_from(vocab), _trail_scores))
    return RuleSet(frozenset(vocab), rules), scores, draw(st.none() | _thetas), draw(_ids)


def _dumps(outcome):
    return json.dumps(outcome_to_obj(outcome), indent=2) + "\n"


class TestTrailWriter:
    @settings(max_examples=200, deadline=None)
    @given(_trail_cases(), st.sampled_from([*TNormKind, None]))
    def test_matches_json_dumps(self, drawn, kind):
        ruleset, scores, theta, case_id = drawn
        if kind is None:
            outcome = classify_mixed(scores, ruleset, theta, case_id=case_id)
        else:
            outcome = classify(scores, ruleset, kind, theta, case_id=case_id)
        assert outcome_to_json(outcome) == _dumps(outcome)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_json_dumps_on_any_field_values(self, data):
        # Outcomes built field by field: any string, any float, no steps.
        numbers = _trail_scores | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats()
        text = _ids | st.text()
        rule_scores = tuple(
            RuleScore(data.draw(text), data.draw(st.sampled_from(RiskCategory)),
                      data.draw(st.sampled_from(TNormKind)), data.draw(numbers),
                      data.draw(st.booleans()),
                      tuple(ProofStep(data.draw(text), data.draw(numbers), data.draw(numbers),
                                      data.draw(st.booleans()))
                            for _ in range(data.draw(st.integers(0, 3)))))
            for _ in range(data.draw(st.integers(0, 3))))
        outcome = ClassificationOutcome(
            data.draw(text), data.draw(st.sampled_from(RiskCategory)),
            data.draw(st.sampled_from([*(k.value for k in TNormKind), "mixed"])),
            data.draw(st.none() | numbers), rule_scores, data.draw(st.none() | text))
        assert outcome_to_json(outcome) == _dumps(outcome)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_json_dumps_on_any_number_type(self, data):
        # Outcomes built field by field, each number field an int, a bool,
        # a zero of either sign, the least subnormal or any float.
        numbers = st.sampled_from([0, 1, True, False, 0.0, -0.0, 5e-324]) | st.floats()
        rule_scores = tuple(
            RuleScore(f"r{j}", data.draw(st.sampled_from(RiskCategory)),
                      data.draw(st.sampled_from(TNormKind)), data.draw(numbers),
                      data.draw(st.booleans()),
                      tuple(ProofStep(f"c{i}", data.draw(numbers), data.draw(numbers),
                                      data.draw(st.booleans()))
                            for i in range(data.draw(st.integers(0, 3)))))
            for j in range(data.draw(st.integers(0, 3))))
        outcome = ClassificationOutcome(
            "case", data.draw(st.sampled_from(RiskCategory)),
            data.draw(st.sampled_from([*(k.value for k in TNormKind), "mixed"])),
            data.draw(st.none() | numbers), rule_scores, data.draw(st.none() | st.just("r0")))
        assert outcome_to_json(outcome) == _dumps(outcome)
