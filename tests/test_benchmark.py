"""Dataset loading, case-type bands, and the synthetic generator."""

import gc
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from riskrules.benchmark import (
    Case,
    CaseType,
    Dataset,
    DatasetValidationError,
    ORACLE_PRESENCE_THRESHOLD,
    SplitMix64,
    _LABEL_SHARES,
    _largest_remainder,
    _slot_counts,
    _slots,
    dataset_to_jsonl,
    generate_synthetic,
    load_case,
    load_dataset,
    parse_case,
    reference_label,
    validate_case_types,
)
from riskrules.engine import classify, predicted_category, rule_chain_scores
from riskrules.rules import CATEGORY_ORDER, RiskCategory, Rule, RuleSet
from riskrules.tnorms import TNormKind

from conftest import BENCH_SEED, DATA_DIR

# Frozen implementation artifacts: the generator's output format and RNG
# consumption order are part of the reproducibility contract.
GOLDEN_SHA256_1035_SEED42 = "4c07a973b7df727822cab376cf61d7341e8faa1230cd4a082e172a6353cb81a4"
#: One SHA-256 over every generated dataset of GRID_NS x GRID_SEEDS, n outer.
GRID_NS = (*range(4, 80), 1035, 5000)
GRID_SEEDS = (0, 1, 7, 2 ** 64 - 1)
GRID_SHA256 = "0ddbb7da7fe18e0f259d603427165b38ff7628edc000d70c4707749d8bd5201e"


class TestSplitMix64:
    def test_reference_vectors(self):
        # frozen from an independent C implementation of splitmix64
        rng = SplitMix64(1234567)
        assert [rng.next_uint64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_random_in_unit_interval(self):
        rng = SplitMix64(9)
        values = [rng.random() for _ in range(10000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_randrange_bounds(self):
        rng = SplitMix64(10)
        assert all(0 <= rng.randrange(7) < 7 for _ in range(1000))

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(11)
        xs = list(range(50))
        ys = list(xs)
        rng.shuffle(ys)
        assert sorted(ys) == xs and ys != xs


class TestLoadDataset:
    def test_appendix_cases(self, appendix_dataset):
        assert len(appendix_dataset.cases) == 15
        hrm04 = next(c for c in appendix_dataset.cases if c.case_id == "HRM04")
        assert hrm04.expert_label is RiskCategory.HIGH_RISK
        assert hrm04.case_type is CaseType.BORDERLINE
        assert hrm04.scores["autonomous_decision"] == 0.61

    def test_appendix_predictions_match_published_pattern(self, appendix_dataset, ruleset):
        # per-case correctness of the strong vs bottleneck operators;
        # product tracks lukasiewicz on every one of these cases
        expect_correct = {
            "P01": (True, True), "P02": (True, True), "PM01": (False, False),
            "PM02": (False, False), "PM03": (False, False), "HR01": (True, True),
            "HR02": (True, True), "HRM01": (False, False), "HRM03": (False, False),
            "HRM04": (False, True), "HRM05": (False, True), "HRM07": (True, True),
            "LR01": (True, True), "LR04": (True, True), "MR01": (True, True),
        }
        for case in appendix_dataset.cases:
            preds = {
                kind: predicted_category(ruleset, rule_chain_scores(case.scores, ruleset, kind))
                for kind in (TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.GOEDEL)
            }
            luk_ok, goe_ok = expect_correct[case.case_id]
            assert (preds[TNormKind.LUKASIEWICZ] is case.expert_label) == luk_ok, case.case_id
            assert (preds[TNormKind.GOEDEL] is case.expert_label) == goe_ok, case.case_id
            assert preds[TNormKind.PRODUCT] is preds[TNormKind.LUKASIEWICZ], case.case_id

    def test_appendix_passes_band_validation(self, appendix_dataset):
        assert validate_case_types(appendix_dataset) == []

    def test_duplicate_case_id(self, tmp_path):
        line = json.dumps({"case_id": "dup", "description": "", "case_type": "clear",
                           "expert_label": "minimal_risk", "scores": {"public_space": 0.9}})
        path = tmp_path / "dup.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DatasetValidationError, match="duplicate case_id"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetValidationError, match="no cases"):
            load_dataset(path)

    def test_score_out_of_range_names_case(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "case_id": "bad1", "description": "", "case_type": "clear",
            "expert_label": "minimal_risk", "scores": {"public_space": 1.5}}) + "\n")
        with pytest.raises(DatasetValidationError, match="bad1"):
            load_dataset(path)

    def test_unknown_condition_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "case_id": "bad2", "description": "", "case_type": "clear",
            "expert_label": "minimal_risk", "scores": {"mystery_cond": 0.5}}) + "\n")
        with pytest.raises(DatasetValidationError, match="mystery_cond"):
            load_dataset(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(DatasetValidationError, match="not valid JSON"):
            load_dataset(path)

    def test_round_trip(self, tmp_path, appendix_dataset):
        path = tmp_path / "copy.jsonl"
        path.write_text(dataset_to_jsonl(appendix_dataset))
        again = load_dataset(path)
        assert again.cases == appendix_dataset.cases

    def test_load_single_case(self):
        case = load_case(DATA_DIR / "hrm04.json")
        assert case.case_id == "HRM04"
        assert case.scores["critical_infrastructure"] == 0.93

    def test_load_minimal_case_record(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({"case_id": "m1", "scores": {"public_space": 0.4}}))
        case = load_case(path)
        assert case.case_id == "m1"


_RECORD = {"case_id": "x", "description": "", "case_type": "clear",
           "expert_label": "minimal_risk", "scores": {"public_space": 0.5}}


class TestParseCase:
    @pytest.mark.parametrize("field,message", [
        ({"extra": 1, "aaa": 2}, "case 'x': unknown field 'aaa'"),
        ({"description": 3}, "case 'x': description must be a string"),
        ({"case_type": "nope"}, "case 'x': unknown case_type 'nope'"),
        ({"case_type": [1]}, "case 'x': unknown case_type [1]"),
        ({"expert_label": {"a": 1}}, "case 'x': unknown expert_label {'a': 1}"),
        ({"scores": {"public_space": True}}, "case 'x': score for 'public_space' must be a number"),
        ({"scores": {"public_space": "bad", "mystery": 0.5}},
         "case 'x': score for 'public_space' must be a number"),
        ({"scores": {"public_space": 0.5, "mystery": 0.5}}, "case 'x': unknown condition 'mystery'"),
        ({"scores": {"public_space": float("nan")}},
         "case 'x': score for 'public_space' must be a finite number in [0, 1], got nan"),
        ({"scores": {"public_space": 10 ** 400}},
         f"case 'x': score for 'public_space' must be a finite number in [0, 1], got {10 ** 400}"),
    ])
    def test_error_messages(self, field, message):
        with pytest.raises(DatasetValidationError) as err:
            parse_case({**_RECORD, **field}, frozenset({"public_space"}))
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["case_type", "expert_label"])
    @pytest.mark.parametrize("value", [None, True, False, 0, 1, 0.5, [], {}, ["clear"],
                                       {"clear": "clear"}, "", "CLEAR", "clear "])
    def test_enum_field_takes_only_a_member_value(self, field, value):
        with pytest.raises(DatasetValidationError) as err:
            parse_case({**_RECORD, field: value}, frozenset({"public_space"}))
        assert str(err.value) == f"case 'x': unknown {field} {value!r}"

    @pytest.mark.parametrize("value,expected", [(1, 1.0), (0, 0.0), (-0.0, -0.0), (1.0, 1.0)])
    def test_accepted_scores_are_floats(self, value, expected):
        case = parse_case({**_RECORD, "scores": {"public_space": value}},
                          frozenset({"public_space"}))
        score = case.scores["public_space"]
        assert type(score) is float and math.copysign(1.0, score) == math.copysign(1.0, expected)
        assert score == expected


def _case(case_id, case_type, scores, label=RiskCategory.MINIMAL_RISK):
    return Case(case_id, "", scores, label, case_type)


class TestValidateCaseTypes:
    def test_clear_all_high_ok(self):
        ds = Dataset((_case("c1", CaseType.CLEAR,
                            {"public_space": 0.93, "real_time_processing": 0.88,
                             "biometric_identification": 0.95}),))
        assert validate_case_types(ds) == []

    def test_clear_with_mid_score_warns(self):
        ds = Dataset((_case("c2", CaseType.CLEAR, {"public_space": 0.50}),))
        warnings = validate_case_types(ds)
        assert len(warnings) == 1 and "c2" in warnings[0]

    def test_clear_band_edges_warn(self):
        for v in (0.12, 0.80):
            ds = Dataset((_case("c3", CaseType.CLEAR, {"public_space": v}),))
            assert len(validate_case_types(ds)) == 1

    def test_marginal_with_band_score_ok(self):
        ds = Dataset((_case("m1", CaseType.MARGINAL,
                            {"education_context": 0.92, "determines_access": 0.58,
                             "affects_life_path": 0.63}),))
        assert validate_case_types(ds) == []

    def test_marginal_without_band_score_warns(self):
        ds = Dataset((_case("m2", CaseType.MARGINAL,
                            {"education_context": 0.92, "determines_access": 0.9}),))
        warnings = validate_case_types(ds)
        assert len(warnings) == 1 and "m2" in warnings[0]

    def test_borderline_never_warned(self):
        ds = Dataset((_case("b1", CaseType.BORDERLINE, {"public_space": 0.5}),))
        assert validate_case_types(ds) == []


class TestReferenceLabel:
    def test_all_strong_conditions(self, ruleset):
        scores = {"real_time_processing": 0.9, "public_space": 0.8,
                  "biometric_identification": 0.7}
        assert reference_label(scores, ruleset) is RiskCategory.PROHIBITED

    def test_presence_threshold_is_inclusive(self, ruleset):
        rule = ruleset.rule("high_risk_education")
        scores = {c: 0.55 for c in rule.conditions}
        assert reference_label(scores, ruleset) is RiskCategory.HIGH_RISK
        scores[rule.conditions[1]] = 0.549
        assert reference_label(scores, ruleset) is RiskCategory.MINIMAL_RISK

    def test_missing_condition_blocks(self, ruleset):
        assert reference_label({"education_context": 0.9}, ruleset) is RiskCategory.MINIMAL_RISK

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_random_rule_sets(self, data):
        # Minimal-risk rules, several rules per severity, missing conditions
        # and scores of exactly the presence threshold.
        vocab = ("a", "b", "c", "d", "e")
        rules = data.draw(st.lists(st.tuples(
            st.sampled_from(RiskCategory), st.lists(st.sampled_from(vocab), min_size=1,
                                                     max_size=3, unique=True)), max_size=8))
        ruleset = RuleSet(frozenset(vocab), tuple(
            Rule(f"r{i}", category, tuple(conds)) for i, (category, conds) in enumerate(rules)))
        scores = data.draw(st.dictionaries(st.sampled_from(vocab), st.sampled_from(
            (0.0, 0.3, 0.549, ORACLE_PRESENCE_THRESHOLD, 0.551, 1.0)) | st.floats(0.0, 1.0)))
        present = {r.category for r in ruleset.rules if all(
            scores.get(c, 0.0) >= ORACLE_PRESENCE_THRESHOLD for c in r.conditions)}
        expected = next((c for c in CATEGORY_ORDER if c in present), RiskCategory.MINIMAL_RISK)
        assert reference_label(scores, ruleset) is expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_is_the_goedel_decision(self, data):
        # The labeler is classify()'s Goedel decision with every theta just
        # below the presence threshold: "> nextafter(0.55, 0)" is ">= 0.55".
        # classify() builds the proof trail, which shares no code with the
        # batch fold the labeler reads. Rule thetas vary, since the override
        # must replace every one of them.
        vocab = ("a", "b", "c", "d", "e")
        rules = data.draw(st.lists(st.tuples(
            st.sampled_from(RiskCategory),
            st.lists(st.sampled_from(vocab), min_size=1, max_size=4, unique=True),
            st.floats(0.01, 0.99)), max_size=8))
        ruleset = RuleSet(frozenset(vocab), tuple(
            Rule(f"r{i}", category, tuple(conds), theta)
            for i, (category, conds, theta) in enumerate(rules)))
        scores = data.draw(st.dictionaries(st.sampled_from(vocab), st.sampled_from(
            (0.0, 0.549, math.nextafter(0.55, 0), 0.55, 0.551, 1.0)) | st.floats(0.0, 1.0)))
        decision = classify(scores, ruleset, TNormKind.GOEDEL,
                            theta_override=math.nextafter(ORACLE_PRESENCE_THRESHOLD, 0))
        assert reference_label(scores, ruleset) is decision.predicted


class TestGenerateSynthetic:
    def test_case_type_counts_exact(self, bench1035):
        counts = Counter(c.case_type for c in bench1035.cases)
        assert counts[CaseType.CLEAR] == 630
        assert counts[CaseType.MARGINAL] == 325
        assert counts[CaseType.BORDERLINE] == 80

    def test_label_counts_frozen(self, bench1035):
        counts = Counter(c.expert_label for c in bench1035.cases)
        assert counts[RiskCategory.MINIMAL_RISK] == 331
        assert counts[RiskCategory.HIGH_RISK] == 290
        assert counts[RiskCategory.LIMITED_RISK] == 279
        assert counts[RiskCategory.PROHIBITED] == 135

    def test_deterministic(self, bench1035, ruleset):
        again = generate_synthetic(1035, BENCH_SEED, ruleset)
        assert again == bench1035
        assert dataset_to_jsonl(again) == dataset_to_jsonl(bench1035)

    def test_golden_hash(self, bench1035):
        digest = hashlib.sha256(dataset_to_jsonl(bench1035).encode()).hexdigest()
        assert digest == GOLDEN_SHA256_1035_SEED42

    def test_grid_hash(self):
        digest = hashlib.sha256()
        for n in GRID_NS:
            for seed in GRID_SEEDS:
                digest.update(dataset_to_jsonl(generate_synthetic(n, seed)).encode())
        assert digest.hexdigest() == GRID_SHA256

    def test_slot_composition(self):
        # Rounding the borderline split never gives a category more
        # borderline cases than it has labels.
        for n in (*range(4, 3001), 10 ** 5, 10 ** 6):
            slots = _slots(_slot_counts(n))
            assert len(slots) == n
            types = Counter(archetype for archetype, _ in slots)
            assert types["marginal"] + types["marginal_trap"] == int(n * 325 / 1035 + 0.5)
            assert types["borderline"] == int(n * 80 / 1035 + 0.5)
            labels = dict(zip([cat for cat, _ in _LABEL_SHARES],
                              _largest_remainder(n, [share for _, share in _LABEL_SHARES])))
            borderline = Counter(cat for archetype, cat in slots if archetype == "borderline")
            assert all(count <= labels[cat] for cat, count in borderline.items())

    def test_slot_counts_fit_every_n(self):
        # Every n the generator accepts splits into the fixed ratios: no
        # negative count, and no category with more borderline cases than
        # labels. These replace run-time checks in the generator.
        for n in range(4, 20_001):
            counts = _slot_counts(n)
            assert sum(count for _, _, count in counts) == n, n
            assert all(count >= 0 for _, _, count in counts), n
            labels = dict(zip([cat for cat, _ in _LABEL_SHARES],
                              _largest_remainder(n, [share for _, share in _LABEL_SHARES])))
            assert all(count <= labels[cat] for archetype, cat, count in counts
                       if archetype == "borderline"), n

    def test_slots_expand_the_counts(self):
        for n in (4, 5, 1035, 4099):
            assert Counter(_slots(_slot_counts(n))) == Counter(
                {(archetype, cat): count for archetype, cat, count in _slot_counts(n) if count})

    def test_different_seed_differs(self, bench1035, ruleset):
        assert generate_synthetic(1035, BENCH_SEED + 1, ruleset) != bench1035

    def test_generated_clear_cases_pass_bands(self, bench1035):
        assert validate_case_types(bench1035) == []

    def test_labels_come_from_reference_oracle(self, bench1035, ruleset):
        for case in bench1035.cases:
            assert case.expert_label is reference_label(case.scores, ruleset)

    def test_borderline_fires_goedel_not_lukasiewicz(self, bench1035, ruleset):
        for case in bench1035.cases:
            if case.case_type is not CaseType.BORDERLINE:
                continue
            assert 0.55 < min(case.scores.values()) <= 0.65
            goe = predicted_category(ruleset, rule_chain_scores(case.scores, ruleset,
                                                                TNormKind.GOEDEL))
            luk = predicted_category(ruleset, rule_chain_scores(case.scores, ruleset,
                                                                TNormKind.LUKASIEWICZ))
            assert goe is case.expert_label
            assert luk is RiskCategory.MINIMAL_RISK

    def test_small_n(self):
        ds = generate_synthetic(20, 5)
        counts = Counter(c.case_type for c in ds.cases)
        assert sum(counts.values()) == 20
        assert counts[CaseType.MARGINAL] == 6  # round(20 * 325/1035)
        assert counts[CaseType.BORDERLINE] == 2

    def test_n_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate_synthetic(3, 1)

    @pytest.mark.parametrize("n, seed, named", [
        ("5", 1, "n must be an int, got '5'"),
        (10.0, 1, "n must be an int, got 10.0"),
        (True, 1, "n must be an int, got True"),
        (10, 1.5, "seed must be an int, got 1.5"),
        (10, None, "seed must be an int, got None"),
    ])
    def test_n_and_seed_must_be_ints(self, n, seed, named):
        with pytest.raises(ValueError) as err:
            generate_synthetic(n, seed)
        assert str(err.value) == named

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
            generate_synthetic(4, seed)

    def test_ruleset_missing_category_rejected(self):
        vocab = frozenset({"a", "b", "c"})
        only_high = RuleSet(vocab, (Rule("h", RiskCategory.HIGH_RISK, ("a", "b", "c")),))
        with pytest.raises(ValueError, match="prohibited"):
            generate_synthetic(100, 1, only_high)


# ---------------------------------------------------------------------------
# The JSON-Lines writer.


def _case_to_obj(case):
    """The record a JSON-Lines line stands for, in key order."""
    return {
        "case_id": case.case_id,
        "description": case.description,
        "case_type": case.case_type.value,
        "expert_label": case.expert_label.value,
        "scores": dict(case.scores),
    }


class _Shout(str):
    """A ``str`` whose ``__str__`` is not its value: json writes the value."""

    def __str__(self):
        return "SHOUT"


#: Text with quotes, backslashes, control, non-ASCII, non-BMP and lone
#: surrogate characters, some of it as a ``str`` subclass.
_text = st.text(st.sampled_from('a"\\\x00\x1f\x7f\n\té\u2028\U0001f600\ud800\udfff '),
                max_size=5) | st.text(max_size=5)
_text = _text | st.builds(_Shout, _text)
#: Signed zeros, the ends of [0, 1], the least subnormal, and any score a case holds.
_scores = st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0)]) | st.floats(0.0, 1.0)


@st.composite
def _cases(draw):
    return Case(draw(_text.filter(bool)), draw(_text),
                draw(st.dictionaries(_text, _scores, min_size=1, max_size=4)),
                draw(st.sampled_from(RiskCategory)), draw(st.sampled_from(CaseType)))


class TestDatasetToJsonl:
    @settings(max_examples=300, deadline=None)
    @given(_cases())
    def test_matches_json_dumps(self, case):
        assert dataset_to_jsonl(Dataset((case,))) == json.dumps(_case_to_obj(case)) + "\n"

    def test_peak_is_about_the_result_twice(self):
        # The chunks and the joined result; a list of every line beside
        # the result peaked at 2.19x the output.
        dataset = generate_synthetic(20_000, 1)
        gc.collect()
        tracemalloc.start()
        try:
            text = dataset_to_jsonl(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * len(text)
