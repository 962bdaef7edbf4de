"""Rule set contents, severity ordering, rule-file validation, round trips."""

import hashlib
import itertools
import json
import pickle

import pytest

from riskrules.rules import (
    CATEGORY_ORDER,
    CONDITION_VOCABULARY,
    ConjunctionStandard,
    RiskCategory,
    Rule,
    RuleSet,
    RuleValidationError,
    default_ruleset,
    load_ruleset,
    parse_ruleset,
    ruleset_to_json,
)


class TestSeverity:
    def test_priority_ordering_examples(self):
        assert RiskCategory.PROHIBITED > RiskCategory.HIGH_RISK
        assert RiskCategory.MINIMAL_RISK >= RiskCategory.MINIMAL_RISK
        assert not RiskCategory.MINIMAL_RISK < RiskCategory.MINIMAL_RISK
        assert RiskCategory.LIMITED_RISK < RiskCategory.HIGH_RISK

    def test_total_order_exhaustive(self):
        ranks = {c: c.severity for c in RiskCategory}
        assert sorted(ranks.values()) == [0, 1, 2, 3]
        for a, b in itertools.product(RiskCategory, repeat=2):
            assert (a < b) == (b > a) == (a.severity < b.severity)
            assert (a < b) + (a is b) + (a > b) == 1  # exactly one holds
            assert (a <= b) == (a < b or a is b)
            for c in RiskCategory:  # transitivity
                if a >= b and b >= c:
                    assert a >= c

    def test_rich_comparison_matches(self):
        assert RiskCategory.PROHIBITED > RiskCategory.HIGH_RISK > \
            RiskCategory.LIMITED_RISK > RiskCategory.MINIMAL_RISK

    def test_category_order_is_severity_descending(self):
        assert [c.severity for c in CATEGORY_ORDER] == [3, 2, 1, 0]

    def test_order_against_a_non_category_is_a_type_error(self):
        with pytest.raises(TypeError):
            RiskCategory.HIGH_RISK < 1

    def test_pickled_category_keeps_its_severity(self):
        for category in RiskCategory:
            again = pickle.loads(pickle.dumps(category))
            assert again is category
            assert again.severity == len(CATEGORY_ORDER) - 1 - CATEGORY_ORDER.index(category)


#: sha256 of ``ruleset_to_json(default_ruleset())`` (4569 bytes), as the
#: rules were first written.
DEFAULT_RULES_SHA256 = "9bee493754b8be6037a9b5c5483d2a02336ecbe895b85018266c382259f96412"


class TestDefaultRuleset:
    def test_shape(self, ruleset):
        assert len(ruleset.rules) == 14
        assert len(ruleset.vocabulary) == 22
        assert all(rule.theta == 0.5 for rule in ruleset.rules)
        assert all(len(rule.conditions) == 3 for rule in ruleset.rules)

    def test_rt_biometric_rule(self, ruleset):
        rule = ruleset.rule("prohibited_rt_biometric")
        assert rule.category is RiskCategory.PROHIBITED
        assert rule.conditions == (
            "real_time_processing", "public_space", "biometric_identification")
        assert rule.theta == 0.5

    def test_education_rule(self, ruleset):
        rule = ruleset.rule("high_risk_education")
        assert rule.category is RiskCategory.HIGH_RISK
        assert rule.conditions == (
            "education_context", "determines_access", "affects_life_path")

    def test_critical_infrastructure_rule(self, ruleset):
        rule = ruleset.rule("high_risk_critical_infrastructure")
        assert rule.conditions == (
            "critical_infrastructure", "safety_component", "autonomous_decision")

    def test_reconstructed_rules_are_flagged(self, ruleset):
        synthetic = {r.rule_id for r in ruleset.rules if r.synthetic}
        assert len(synthetic) == 7
        # the five published rules and the two divergence-case rules are not flagged
        assert {
            "prohibited_rt_biometric", "prohibited_social_scoring",
            "high_risk_employment", "high_risk_credit", "limited_chatbot",
            "high_risk_critical_infrastructure", "high_risk_education",
        }.isdisjoint(synthetic)

    def test_no_standard_annotations_by_default(self, ruleset):
        assert all(rule.standard is None for rule in ruleset.rules)

    def test_vocabulary_has_reconstructed_term(self, ruleset):
        assert "subliminal_technique" in ruleset.vocabulary
        assert set(CONDITION_VOCABULARY) == set(ruleset.vocabulary)

    def test_no_rule_conditions_subset_of_another(self, ruleset):
        # guarantees single-target score maps can only fire their target
        sets = {r.rule_id: set(r.conditions) for r in ruleset.rules}
        for a, b in itertools.permutations(sets, 2):
            assert not sets[a] <= sets[b]

    def test_stable_serialization(self):
        assert ruleset_to_json(default_ruleset()) == ruleset_to_json(default_ruleset())

    def test_each_call_is_a_new_rule_set_over_the_same_rules(self):
        first = default_ruleset()
        first.live_rules(frozenset({"public_space"}))
        second = default_ruleset()
        assert second is not first
        assert second == first
        assert all(a is b for a, b in zip(second.rules, first.rules, strict=True))
        assert second._live == {} and second._live is not first._live
        text = ruleset_to_json(second)
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_RULES_SHA256


class TestLiveRules:
    def test_live_rules_have_every_condition_scored(self):
        ruleset = default_ruleset()
        sets = [frozenset(c) for c in itertools.combinations(sorted(ruleset.vocabulary), 3)]
        for scored in sets[:500] + [frozenset(ruleset.vocabulary), frozenset()]:
            want = tuple(i for i, r in enumerate(ruleset.rules) if set(r.conditions) <= scored)
            assert ruleset.live_rules(scored) == want

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr("riskrules.rules.LIVE_MEMO_SIZE", 3)
        ruleset = default_ruleset()
        for cond in sorted(ruleset.vocabulary):
            assert ruleset.live_rules(frozenset({cond})) == ()
        assert len(ruleset._live) == 3

    def test_ranked_is_most_severe_first_without_the_floor(self):
        ruleset = RuleSet(frozenset({"a", "b"}), (
            Rule("low", RiskCategory.LIMITED_RISK, ("a",), theta=0.3),
            Rule("floor", RiskCategory.MINIMAL_RISK, ("a",)),
            Rule("top", RiskCategory.PROHIBITED, ("b",), theta=0.7),
            Rule("low2", RiskCategory.LIMITED_RISK, ("b",)),
        ))
        assert ruleset.ranked == ((2, 0.7, RiskCategory.PROHIBITED),
                                  (0, 0.3, RiskCategory.LIMITED_RISK),
                                  (3, 0.5, RiskCategory.LIMITED_RISK))


class TestSharedTheta:
    def test_default_rules_share_one_half(self, ruleset):
        assert ruleset.shared_theta == 0.5

    @pytest.mark.parametrize("thetas,shared", [
        ((0.3,), 0.3),
        ((0.3, 0.3, 0.3), 0.3),
        ((0.3, 0.7), None),
        ((0.3, 0.3, 0.7), None),
        ((), None),
    ])
    def test_derived_from_the_rules(self, thetas, shared):
        rules = tuple(Rule(f"r{i}", RiskCategory.HIGH_RISK, ("a",), theta=t)
                      for i, t in enumerate(thetas))
        assert RuleSet(frozenset({"a"}), rules).shared_theta == shared

    def test_not_an_argument(self, ruleset):
        with pytest.raises(TypeError):
            RuleSet(ruleset.vocabulary, ruleset.rules, shared_theta=0.4)


class TestRoundTrip:
    def test_fixed_point(self, tmp_path, ruleset):
        path = tmp_path / "rules.json"
        path.write_text(ruleset_to_json(ruleset), encoding="utf-8")
        loaded = load_ruleset(path)
        assert loaded == ruleset
        assert ruleset_to_json(loaded) == ruleset_to_json(ruleset)
        # serialize -> load -> serialize is a fixed point
        path.write_text(ruleset_to_json(loaded), encoding="utf-8")
        assert load_ruleset(path) == loaded

    def test_standard_annotation_round_trip(self, tmp_path, ruleset):
        import dataclasses
        annotated = RuleSet(
            ruleset.vocabulary,
            tuple(dataclasses.replace(r, standard=ConjunctionStandard.BOTTLENECK)
                  for r in ruleset.rules),
        )
        path = tmp_path / "annotated.json"
        path.write_text(ruleset_to_json(annotated), encoding="utf-8")
        loaded = load_ruleset(path)
        assert all(r.standard is ConjunctionStandard.BOTTLENECK for r in loaded.rules)


def _doc(rules, vocabulary=None):
    return json.dumps({
        "vocabulary": vocabulary if vocabulary is not None else list(CONDITION_VOCABULARY),
        "rules": rules,
    })


def _rule_obj(**overrides):
    obj = {
        "rule_id": "test_rule",
        "category": "high_risk",
        "conditions": ["employment_context", "automated_decision"],
        "theta": 0.5,
    }
    obj.update(overrides)
    return obj


class TestValidation:
    def test_constructor_rejects_empty_rule_id(self):
        with pytest.raises(RuleValidationError, match="^rule with empty rule_id$"):
            Rule("", RiskCategory.HIGH_RISK, ("public_space",))

    def test_constructor_stores_list_conditions_as_tuple(self):
        conditions = ["public_space", "employment_context"]
        rule = Rule("r", RiskCategory.HIGH_RISK, conditions)
        assert type(rule.conditions) is tuple and rule.conditions == tuple(conditions)
        assert hash(rule) == hash(Rule("r", RiskCategory.HIGH_RISK, tuple(conditions)))

    def test_unknown_condition_named(self):
        doc = _doc([_rule_obj(conditions=["employment_context", "unknown_cond"])])
        with pytest.raises(RuleValidationError, match="unknown_cond"):
            parse_ruleset(doc)

    def test_theta_out_of_range(self):
        with pytest.raises(RuleValidationError, match="theta out of range"):
            parse_ruleset(_doc([_rule_obj(theta=1.2)]))
        with pytest.raises(RuleValidationError, match="theta out of range"):
            parse_ruleset(_doc([_rule_obj(theta=0.0)]))

    def test_empty_conditions(self):
        with pytest.raises(RuleValidationError, match="empty condition"):
            parse_ruleset(_doc([_rule_obj(conditions=[])]))

    def test_duplicate_rule_ids(self):
        with pytest.raises(RuleValidationError, match="duplicate rule_id"):
            parse_ruleset(_doc([_rule_obj(), _rule_obj()]))

    def test_duplicate_condition_within_rule(self):
        doc = _doc([_rule_obj(conditions=["public_space", "public_space"])])
        with pytest.raises(RuleValidationError, match="duplicate condition"):
            parse_ruleset(doc)

    def test_unknown_category(self):
        with pytest.raises(RuleValidationError, match="unknown category"):
            parse_ruleset(_doc([_rule_obj(category="fatal_risk")]))

    def test_unknown_field_rejected(self):
        with pytest.raises(RuleValidationError, match="thresh"):
            parse_ruleset(_doc([_rule_obj(thresh=0.5)]))

    @pytest.mark.parametrize("rules", [None, 5, False, {"rule_id": "r"}, "rules"])
    def test_rules_not_an_array(self, rules):
        with pytest.raises(RuleValidationError, match=r"^rules must be an array$"):
            parse_ruleset(_doc(rules))

    @pytest.mark.parametrize("entry,message", [
        (5, "rule entries must be JSON objects"),
        (["test_rule"], "rule entries must be JSON objects"),
        ({"category": "high_risk"}, "rule with missing or empty rule_id"),
        (_rule_obj(rule_id=""), "rule with missing or empty rule_id"),
        (_rule_obj(category=None), "rule 'test_rule': unknown category None"),
        (_rule_obj(conditions="employment_context"),
         "rule 'test_rule': conditions must be an array of strings"),
        (_rule_obj(conditions=["employment_context", 7]),
         "rule 'test_rule': conditions must be an array of strings"),
        (_rule_obj(theta="0.5"), "rule 'test_rule': theta must be a number"),
        (_rule_obj(theta=True), "rule 'test_rule': theta must be a number"),
        (_rule_obj(theta=None), "rule 'test_rule': theta must be a number"),
        (_rule_obj(standard="weak"), "rule 'test_rule': unknown standard 'weak'"),
        (_rule_obj(standard=None), "rule 'test_rule': unknown standard None"),
        (_rule_obj(synthetic=1), "rule 'test_rule': synthetic must be a boolean"),
        (_rule_obj(synthetic="yes"), "rule 'test_rule': synthetic must be a boolean"),
        (_rule_obj(article=5), "rule 'test_rule': article must be a string"),
        (_rule_obj(article=None), "rule 'test_rule': article must be a string"),
    ])
    def test_rule_entry_errors(self, entry, message):
        with pytest.raises(RuleValidationError) as err:
            parse_ruleset(_doc([entry]))
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["category", "conditions", "theta"])
    def test_missing_field_named(self, field):
        entry = _rule_obj()
        del entry[field]
        with pytest.raises(RuleValidationError) as err:
            parse_ruleset(_doc([entry]))
        assert str(err.value) == f"rule 'test_rule': missing field {field!r}"

    def test_malformed_json(self):
        with pytest.raises(RuleValidationError, match="not valid JSON"):
            parse_ruleset("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_ruleset(tmp_path / "absent.json")

    def test_bad_vocabulary_identifier(self):
        doc = _doc([], vocabulary=["Uppercase_Term"])
        with pytest.raises(RuleValidationError, match="Uppercase_Term"):
            parse_ruleset(doc)
        # "$" would also match before a final newline.
        with pytest.raises(RuleValidationError, match=r"'abc\\n' is not"):
            parse_ruleset(_doc([], vocabulary=["abc\n"]))

    def test_rule_constructor_guards(self):
        with pytest.raises(RuleValidationError):
            Rule("r", RiskCategory.HIGH_RISK, ())
        with pytest.raises(RuleValidationError):
            Rule("r", RiskCategory.HIGH_RISK, ("a", "a"))
        with pytest.raises(RuleValidationError):
            Rule("r", RiskCategory.HIGH_RISK, ("a",), theta=1.0)

    def test_ruleset_takes_two_fields(self, ruleset):
        with pytest.raises(TypeError):
            RuleSet(ruleset.vocabulary, ruleset.rules, {"junk": 1})

    def test_ruleset_lookup(self, ruleset):
        with pytest.raises(KeyError):
            ruleset.rule("no_such_rule")
