"""The dataset read path against oracles: ``decode_json`` against
``json.loads``, and ``parse_case`` and ``load_dataset`` against the
straightforward versions they replaced, kept here as the reference.
Also the case model: slots, no hash, shared key strings, generated
cases' shared descriptions, bytes per case.
"""

import gc
import json
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from riskrules.benchmark import (
    Case,
    CaseType,
    DatasetValidationError,
    dataset_to_jsonl,
    generate_synthetic,
    load_dataset,
    parse_case,
)
from riskrules.rules import CONDITION_VOCABULARY, RiskCategory, decode_json, read_lines
from riskrules.tnorms import unit_score

# ---------------------------------------------------------------------------
# decode_json against json.loads.


def _same_value(a, b) -> bool:
    """Equal JSON values, with dict key order and float bits (repr) too.
    Iterative, so that values nested near the recursion limit compare."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if type(a) is dict:
            if list(a) != list(b):
                return False
            pending.extend((a[k], b[k]) for k in a)
        elif type(a) is list:
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif repr(a) != repr(b):
            return False
    return True


def _outcome_of(decode, text):
    try:
        return "value", decode(text)
    except (ValueError, RecursionError) as exc:
        return "error", str(exc)


def _assert_decodes_as_json_loads(text):
    kind, got = _outcome_of(lambda t: decode_json(t, ValueError), text)
    want_kind, want = _outcome_of(json.loads, text)
    assert kind == want_kind
    if kind == "value":
        assert _same_value(got, want)
    else:
        assert got == f"not valid JSON: {want}"


_scalars = (st.none() | st.booleans()
            | st.integers() | st.integers(10 ** 20, 10 ** 40)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
            | st.text(max_size=6))
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)
_json_texts = st.builds(json.dumps, _values) | st.builds(
    lambda v, a: json.dumps(v, ensure_ascii=a, separators=(",", ":")), _values, st.booleans())
_space = st.text(" \t\n\r", max_size=3)
#: Characters a mutation may drop into a text: JSON syntax, escapes and junk.
_junk = st.sampled_from(list('{}[]:,"\\ \t\n0-+.eEnNaIfuxtl\ufeff\x00 \udcff'))


@st.composite
def _duplicate_key_texts(draw):
    keys = draw(st.lists(st.sampled_from(["a", "b", "é"]), min_size=2, max_size=5))
    pairs = ", ".join(f"{json.dumps(k)}: {json.dumps(draw(_scalars))}" for k in keys)
    return "{" + pairs + "}"


@st.composite
def _mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.text(_junk, max_size=2)) + text[at + cut:]
    return text


@st.composite
def _truncated(draw, texts):
    text = draw(texts)
    return text[:draw(st.integers(0, max(0, len(text) - 1)))]


_decoder_inputs = st.one_of(
    _json_texts,
    st.tuples(_space, _json_texts, _space).map("".join),  # whitespace padding
    _json_texts.map(lambda t: "\ufeff" + t),  # a BOM
    st.tuples(_json_texts, _space, _json_texts | st.text(_junk, min_size=1, max_size=3))
    .map("".join),  # trailing data
    _duplicate_key_texts(),
    _truncated(_json_texts),
    _mutated(_json_texts | _duplicate_key_texts()),
    st.text(_junk, max_size=8),
)


class TestDecodeJson:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_decoder_inputs)
    @example("")
    @example(" ")
    @example("NaN")
    @example("-Infinity")
    @example("[NaN, Infinity, -Infinity, -0.0]")
    @example('{"a": 1, "a": 2}')
    @example('{"b": 1, "a": 2, "b": 3}')
    @example(" {} ")
    @example("{}\n")
    @example("\ufeff{}")
    @example("{} {}")
    @example("{}x")
    @example('"\\ud800"')
    @example("1" * 5000)
    @example("-" + "9" * 4301)
    @example("1e400")
    def test_matches_json_loads(self, text):
        _assert_decodes_as_json_loads(text)

    @pytest.mark.parametrize("depth", [1, 10, 500, 990, 1000, 1010, 5000, 100_000])
    @pytest.mark.parametrize("open_, close", [("[", "]"), ('{"k": ', "}")])
    def test_deep_nesting_matches_json_loads(self, depth, open_, close):
        _assert_decodes_as_json_loads(open_ * depth + "0" + close * depth)
        _assert_decodes_as_json_loads(open_ * depth)

    def test_bytes_decode_as_json_loads_takes_them(self):
        assert decode_json(b'{"a": [1]}', ValueError) == {"a": [1]}

    def test_lines_that_only_decode_together_still_fail_alone(self):
        # A decoder reading "[" + ",".join(lines) + "]" would take these
        # three lines as three objects; each is invalid on its own.
        for line in ['{"a": 1}, {"b": 2}', '{"k": "x', 'y"}']:
            with pytest.raises(DatasetValidationError, match="^not valid JSON: "):
                decode_json(line, DatasetValidationError)


# ---------------------------------------------------------------------------
# parse_case against the reference parser it replaced.

_CASE_KEYS = frozenset({"case_id", "description", "case_type", "expert_label", "scores"})
_CASE_TYPES = {t.value: t for t in CaseType}
_LABELS = {c.value: c for c in RiskCategory}


def _enum_field(table, value, case_id, field):
    member = table.get(value) if type(value) is str else None
    if member is None:
        raise DatasetValidationError(f"case {case_id!r}: unknown {field} {value!r}")
    return member


def reference_parse_case(obj, vocabulary):
    """The record parser as it was before keys were shared: the oracle."""
    if not isinstance(obj, dict):
        raise DatasetValidationError("case records must be JSON objects")
    case_id = obj.get("case_id")
    if not isinstance(case_id, str) or not case_id:
        raise DatasetValidationError("missing or empty case_id")
    keys = obj.keys()
    if keys != _CASE_KEYS:
        unknown = keys - _CASE_KEYS
        if unknown:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown field {sorted(unknown)[0]!r}")
        for key in ("description", "case_type", "expert_label", "scores"):
            if key not in obj:
                raise DatasetValidationError(f"case {case_id!r}: missing field {key!r}")
    if not isinstance(obj["description"], str):
        raise DatasetValidationError(f"case {case_id!r}: description must be a string")
    case_type = _enum_field(_CASE_TYPES, obj["case_type"], case_id, "case_type")
    label = _enum_field(_LABELS, obj["expert_label"], case_id, "expert_label")
    raw_scores = obj["scores"]
    if not isinstance(raw_scores, dict) or not raw_scores:
        raise DatasetValidationError(f"case {case_id!r}: scores must be a non-empty object")
    scores = {}
    for cond, value in raw_scores.items():
        if cond not in vocabulary:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown condition {cond!r}")
        if type(value) is not float and (
                not isinstance(value, (int, float)) or isinstance(value, bool)):
            raise DatasetValidationError(
                f"case {case_id!r}: score for {cond!r} must be a number")
        try:
            scores[cond] = unit_score(value)
        except ValueError as exc:
            raise DatasetValidationError(
                f"case {case_id!r}: score for {cond!r}{str(exc).removeprefix('score')}"
            ) from None
    return Case(case_id, obj["description"], scores, label, case_type)


def reference_utf8_fault(data: bytes):
    """(line, column, byte) of the first byte of ``data`` that is not
    UTF-8, or None if there is none: the strict decoder finds the byte, and
    the valid text before it, with CRLF and CR read as LF, places it."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return (before.count("\n") + 1, len(before) - before.rfind("\n"),
                data[exc.start])
    return None


def reference_load_dataset(path, vocabulary=None):
    """The line loop as it was, on the reference parser, with each error
    placed where it is raised: the oracle."""
    name = str(path)
    vocab = frozenset(CONDITION_VOCABULARY if vocabulary is None else vocabulary)
    cases, seen = [], set()
    fault = reference_utf8_fault(Path(path).read_bytes())
    with open(path, encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            if line.isspace():
                continue
            line = line.rstrip("\n")
            where = f"{name}:{lineno}"
            if fault and fault[0] == lineno:
                raise DatasetValidationError(
                    f"{where}: not valid UTF-8: byte 0x{fault[2]:02x} at column {fault[1]}")
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DatasetValidationError(f"{where}: not valid JSON: {exc}") from None
            try:
                case = reference_parse_case(obj, vocab)
            except DatasetValidationError as exc:
                raise DatasetValidationError(f"{where}: {exc}") from None
            if case.case_id in seen:
                raise DatasetValidationError(f"{where}: duplicate case_id {case.case_id!r}")
            seen.add(case.case_id)
            cases.append(case)
    if not cases:
        raise DatasetValidationError(f"{name}: no cases")
    return cases


def _parsed(parse, *args):
    """A parse's outcome: the case with its score items (float bits by
    repr), or the error message."""
    try:
        case = parse(*args)
    except DatasetValidationError as exc:
        return "error", str(exc)
    return "case", (case, [(k, repr(v)) for k, v in case.scores.items()])


_VOCAB = frozenset({"public_space", "real_time_processing", "biometric_identification",
                    "a", "b_c"})
_conditions = st.sampled_from(sorted(_VOCAB)) | st.sampled_from(
    ["public_spaces", "Public_space", "public space", "", "z", "a\x00"]) | st.text(max_size=3)
_scores = st.one_of(
    st.floats(0.0, 1.0), st.booleans(), st.integers(-2, 2), st.floats(),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf, 1.5, -0.1, 10 ** 400,
                     -(10 ** 400), 2 ** 53 + 1]),
    st.none() | st.just("0.5") | st.just([0.5]) | st.just({}))
_near_types = st.sampled_from(["clear", "marginal", "borderline", "Clear", "clear ", " marginal",
                               "border-line", "", "CLEAR", "minimal_risk"])
_near_labels = st.sampled_from(["prohibited", "high_risk", "limited_risk", "minimal_risk",
                                "High_risk", "high-risk", "minimal", "risk", "", "clear"])
_wrong = (st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False)
          | st.lists(st.integers(), max_size=1) | st.dictionaries(st.text(max_size=1),
                                                                   st.integers(), max_size=1))


#: Per field, values that break it in ways the parser checks for.
_breakers = {
    "case_id": st.just("") | _wrong,
    "description": _wrong,
    "case_type": _near_types | _wrong,
    "expert_label": _near_labels | _wrong,
    "scores": st.dictionaries(_conditions, _scores, max_size=4) | _wrong,
}


@st.composite
def _records(draw):
    """A well-formed record, then a few fields broken, a score swapped
    for any value, fields dropped or added, and the keys reordered."""
    fields = {
        "case_id": draw(st.text(min_size=1, max_size=3)),
        "description": draw(st.text(max_size=3)),
        "case_type": draw(st.sampled_from([t.value for t in CaseType])),
        "expert_label": draw(st.sampled_from([c.value for c in RiskCategory])),
        "scores": draw(st.dictionaries(st.sampled_from(sorted(_VOCAB)), st.floats(0.0, 1.0),
                                       min_size=1, max_size=5)),
    }
    # Each kind of damage is drawn on its own, so every check is reached.
    sometimes = st.sampled_from([False, False, False, True])
    if draw(sometimes):
        for key in draw(st.lists(st.sampled_from(sorted(_breakers)), min_size=1, max_size=2,
                                 unique=True)):
            fields[key] = draw(_breakers[key])
    if isinstance(fields["scores"], dict) and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(_VOCAB)) | _conditions)
        fields["scores"] = {**fields["scores"], key: draw(_scores)}
    if draw(sometimes):
        fields.pop(draw(st.sampled_from(sorted(fields))))
    if draw(sometimes):
        key = draw(st.sampled_from(["caseid", "Scores", "extra", "zz", "aaa", ""])
                   | st.text(max_size=3))
        fields[key] = draw(_wrong)
    order = draw(st.permutations(list(fields)))
    return {key: fields[key] for key in order}


class TestParseCaseOracle:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_records() | _wrong | st.text(max_size=2), st.booleans())
    @example({"case_id": "c", "description": "", "case_type": "clear",
              "expert_label": "high_risk", "scores": {"b_c": -0.0, "a": 1}}, False)
    @example({"case_id": "c", "zz": 1, "description": 1}, True)
    @example({"case_id": "c", "description": "", "case_type": "clear",
              "expert_label": ["high_risk"], "scores": {"a": 0.5}}, True)
    @example({"case_id": "c", "description": "", "case_type": "clear",
              "expert_label": "high_risk", "scores": {"a": 0.5, "b_c": True}}, True)
    @example({"case_id": "c", "description": "", "case_type": "clear",
              "expert_label": "high_risk", "scores": {"a": 10 ** 400}}, True)
    def test_matches_the_reference(self, obj, as_term_map):
        vocabulary = {t: t for t in _VOCAB} if as_term_map else _VOCAB
        got = _parsed(parse_case, obj, vocabulary)
        want = _parsed(reference_parse_case, obj, _VOCAB)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(_records())
    def test_decoded_records_match_the_reference(self, obj):
        # Records as the decoder gives them: through one JSON text each.
        record = json.loads(json.dumps(obj))
        got = _parsed(parse_case, record, {t: t for t in _VOCAB})
        assert got == _parsed(reference_parse_case, record, _VOCAB)


_lines = st.one_of(
    _records().map(lambda r: json.dumps(r, default=str)),
    st.builds(lambda i, s: json.dumps({"case_id": f"c{i}", "description": "", "case_type": "clear",
                                       "expert_label": "minimal_risk",
                                       "scores": {"public_space": s}}),
              st.integers(0, 3), st.floats(0.0, 1.0)),
    st.sampled_from(["", " ", "\t", "{", "[]", '"x"', "{} {}", '{"case_id": "x",}', "\ufeff{}",
                     '{"a": 1}, {"b": 2}', '{"k": "x', 'y"}']),
    _mutated(_records().map(lambda r: json.dumps(r, default=str))),
)


class TestLoadDatasetOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(st.lists(_lines, max_size=6), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_matches_the_reference(self, tmp_path, lines, newline):
        path = tmp_path / "d.jsonl"
        path.write_bytes(newline.join(lines).encode("utf-8", "surrogatepass"))
        try:
            want = "cases", [(c, [(k, repr(v)) for k, v in c.scores.items()])
                             for c in reference_load_dataset(path, _VOCAB)]
        except DatasetValidationError as exc:
            want = "error", str(exc)
        try:
            got = "cases", [(c, [(k, repr(v)) for k, v in c.scores.items()])
                            for c in load_dataset(path, _VOCAB).cases]
        except DatasetValidationError as exc:
            got = "error", str(exc)
        assert got == want


class TestReadLines:
    """``read_lines`` against whole-file decoding: valid UTF-8 joins back to
    ``read_text``'s text, and the first bad byte is placed as
    :func:`reference_utf8_fault` places it."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary() | st.text().map(str.encode))
    @example(b"\xef\xbb\xbf{}\n")  # a BOM
    @example(b"a\rb\r\xff")  # a lone CR
    @example(b"x" * 8191 + b"\r\ny")  # a CRLF split across the 8192-byte decode chunk
    @example(b"x" * 8191 + b"\r\ny\xc3(")
    @example(b"x" * 9000 + b"\n")  # a line longer than one chunk
    @example(b"x" * 9000 + b"\xe9\n")
    @example(b"ok\n\xe2")  # a bad last byte
    def test_matches_whole_file_decoding(self, tmp_path, data):
        path = tmp_path / "any.txt"
        path.write_bytes(data)
        fault = reference_utf8_fault(data)
        if fault is None:
            assert "".join(read_lines(path, ValueError)) == path.read_text(encoding="utf-8")
            return
        with pytest.raises(ValueError) as exc:
            "".join(read_lines(path, ValueError))
        line, column, byte = fault
        assert str(exc.value) == \
            f"{path}:{line}: not valid UTF-8: byte 0x{byte:02x} at column {column}"


# ---------------------------------------------------------------------------
# The case model.

def _case(**scores):
    return Case("c", "d", scores or {"public_space": 0.5}, RiskCategory.HIGH_RISK,
                CaseType.MARGINAL)


class TestCaseModel:
    def test_unhashable_with_one_message(self):
        with pytest.raises(TypeError, match=r"^unhashable type: 'Case'$"):
            hash(_case())
        with pytest.raises(TypeError, match=r"^unhashable type: 'Case'$"):
            {_case()}

    def test_slotted_without_instance_dict(self):
        case = _case()
        assert not hasattr(case, "__dict__")
        with pytest.raises(FrozenInstanceError):
            case.case_id = "x"
        with pytest.raises(FrozenInstanceError):
            case.extra = 1
        with pytest.raises(FrozenInstanceError):
            del case.description

    def test_scores_view_is_read_only_every_time(self):
        case = _case(a=0.5)
        for _ in range(2):
            with pytest.raises(TypeError):
                case.scores["a"] = 1.0
            with pytest.raises(TypeError):
                del case.scores["a"]
        assert case.scores == {"a": 0.5}

    def test_equality_is_by_fields_and_type(self):
        assert _case(a=0.5) == _case(a=0.5)
        assert _case(a=0.5) != _case(a=0.25)
        assert _case() != Case("c", "other", {"public_space": 0.5}, RiskCategory.HIGH_RISK,
                               CaseType.MARGINAL)
        assert _case() != ("c", "d", {"public_space": 0.5}, RiskCategory.HIGH_RISK,
                           CaseType.MARGINAL)

    def test_pickled_loaded_cases_round_trip(self, appendix_dataset):
        again = pickle.loads(pickle.dumps(appendix_dataset))
        assert again == appendix_dataset
        for a, b in zip(again.cases, appendix_dataset.cases):
            assert list(a.scores.items()) == list(b.scores.items())

    def test_repr_names_every_field(self):
        assert repr(_case(a=0.5)) == (
            "Case(case_id='c', description='d', scores={'a': 0.5}, "
            "expert_label=<RiskCategory.HIGH_RISK: 'high_risk'>, "
            "case_type=<CaseType.MARGINAL: 'marginal'>)")


def _fresh(term: str) -> str:
    """An equal string that is a new object (not interned)."""
    copy = "".join(list(term))
    assert copy == term and copy is not term
    return copy


class TestSharedKeys:
    def test_loaded_keys_are_the_vocabularys_own_strings(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(dataset_to_jsonl(generate_synthetic(200, 3)), encoding="utf-8")
        own = {t: t for t in CONDITION_VOCABULARY}
        for case in load_dataset(path).cases:
            assert all(key is own[key] for key in case.scores)
        vocabulary = [_fresh(t) for t in CONDITION_VOCABULARY]
        own = {t: t for t in vocabulary}
        for case in load_dataset(path, vocabulary).cases:
            assert all(key is own[key] for key in case.scores)

    def test_parse_case_keys_are_the_vocabularys_own_strings(self):
        vocabulary = frozenset(_fresh(t) for t in ("public_space", "a"))
        own = {t: t for t in vocabulary}
        record = {"case_id": "c", "description": "", "case_type": "clear",
                  "expert_label": "high_risk",
                  "scores": {_fresh("a"): 0.5, _fresh("public_space"): 0.25}}
        case = parse_case(record, vocabulary)
        assert [key is own[key] for key in case.scores] == [True, True]

    def test_one_description_object_per_generated_text(self):
        cases = generate_synthetic(2000, 3).cases
        texts = {case.description for case in cases}
        assert 1 < len(texts) == len({id(case.description) for case in cases})


#: tracemalloc bytes a loaded generated case keeps (ids, descriptions,
#: scores and the case itself). The read path before shared keys and
#: slotted cases kept 799 B per case; it now keeps 512 B.
BYTES_PER_CASE = 600


def test_bytes_retained_per_loaded_case(tmp_path):
    path = tmp_path / "d.jsonl"
    n = 20_000
    path.write_text(dataset_to_jsonl(generate_synthetic(n, 1)), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        dataset = load_dataset(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.cases) == n
    assert retained / n < BYTES_PER_CASE


def test_fixture_files_load_as_the_reference_loads_them():
    data = Path(__file__).parent / "data" / "cases_appendix.jsonl"
    assert list(load_dataset(data).cases) == reference_load_dataset(data)
