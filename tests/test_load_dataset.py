"""JSON-Lines loading: record separators, decoding, error text and memory.

The parity corpus pins the exact outcome of each file: the cases
loaded, or the message with its line number. Reading the whole text and
splitting it with ``str.splitlines`` gives the same outcomes on this
corpus; it differs only where the separator and decoding tests say.
"""

import gc
import json
import pickle
import tracemalloc
import warnings

import pytest

from riskrules.benchmark import (
    Case,
    CaseType,
    DatasetValidationError,
    dataset_to_jsonl,
    generate_synthetic,
    load_case,
    load_dataset,
    parse_case,
)
from riskrules.rules import (CATEGORY_BY_NAME, CONDITION_VOCABULARY, ConjunctionStandard,
                             RiskCategory, Rule, RuleValidationError, decode_json, load_ruleset,
                             parse_ruleset, read_lines)


def rec(case_id, ensure_ascii=True, **fields):
    obj = {"case_id": case_id, "description": "d", "case_type": "clear",
           "expert_label": "minimal_risk", "scores": {"public_space": 0.9}}
    obj.update(fields)
    return json.dumps(obj, ensure_ascii=ensure_ascii)


def json_error(text):
    """The loaders' message for ``text``: the running Python's own ``json``
    message, passed through (its wording for a trailing comma changed in
    Python 3.13)."""
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    return f"not valid JSON: {err.value}"


A, B, C = rec("a"), rec("b"), rec("c")
BAD_JSON = '{"case_id": "x",}'
BAD_JSON_ERROR = json_error(BAD_JSON)
TRUNCATED = '{"case_id": "x"'
TRUNCATED_ERROR = "not valid JSON: Expecting ',' delimiter: line 1 column 16 (char 15)"
BOM_ERROR = ("not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
             "line 1 column 1 (char 0)")
RANGE = "must be a finite number in [0, 1], got"

# name -> (file text, case ids loaded or the error message; "{path}" is the file)
PARITY = {
    "lf": (f"{A}\n{B}\n{C}\n", ["a", "b", "c"]),
    "crlf": (f"{A}\r\n{B}\r\n{C}\r\n", ["a", "b", "c"]),
    "cr": (f"{A}\r{B}\r{C}\r", ["a", "b", "c"]),
    "no_final_newline": (f"{A}\n{B}\n{C}", ["a", "b", "c"]),
    "mixed_endings": (f"{A}\r\n{B}\r{C}\n", ["a", "b", "c"]),
    "blank_lines": (f"\n{A}\n\n   \n\t\n{B}\n \r\n{C}\n\n", ["a", "b", "c"]),
    "trailing_whitespace": (f"{A}   \n{B}\t\n", ["a", "b"]),
    "non_ascii": (f"{A}\n{rec('é', ensure_ascii=False, description='café ☃')}\n", ["a", "é"]),
    "bom": (f"\ufeff{A}\n{B}\n", f"{{path}}:1: {BOM_ERROR}"),
    "bom_only": ("\ufeff\n", f"{{path}}:1: {BOM_ERROR}"),
    "json_mid_lf": (f"{A}\n{B}\n{BAD_JSON}\n{C}\n", f"{{path}}:3: {BAD_JSON_ERROR}"),
    "json_mid_crlf": (f"{A}\r\n{B}\r\n{BAD_JSON}\r\n{C}\r\n", f"{{path}}:3: {BAD_JSON_ERROR}"),
    "json_mid_cr": (f"{A}\r{B}\r{BAD_JSON}\r{C}\r", f"{{path}}:3: {BAD_JSON_ERROR}"),
    "truncated_last": (f"{A}\n{TRUNCATED}", f"{{path}}:2: {TRUNCATED_ERROR}"),
    "truncated_lf": (f"{A}\n{TRUNCATED}\n", f"{{path}}:2: {TRUNCATED_ERROR}"),
    "truncated_crlf": (f"{A}\r\n{TRUNCATED}\r\n", f"{{path}}:2: {TRUNCATED_ERROR}"),
    "json_after_blanks": (
        f"\n\n{A}\n  \n{{nope\n",
        "{path}:5: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"),
    "two_records_one_line": (
        f"{A} {B}\n", "{path}:1: not valid JSON: Extra data: line 1 column 125 (char 124)"),
    "duplicate": (f"{A}\n{B}\n\n{A}\n", "{path}:4: duplicate case_id 'a'"),
    "duplicate_crlf": (f"{A}\r\n{B}\r\n{A}\r\n", "{path}:3: duplicate case_id 'a'"),
    "non_object": (f"{A}\n[1, 2]\n", "{path}:2: case records must be JSON objects"),
    "non_object_string": (f'{A}\n"text"\n', "{path}:2: case records must be JSON objects"),
    "missing_case_id": (f'{A}\n{{"description": "d"}}\n', "{path}:2: missing or empty case_id"),
    "empty_case_id": (f"{A}\n{rec('')}\n", "{path}:2: missing or empty case_id"),
    "unknown_field": (f"{A}\n{rec('u', zzz=1, aaa=2)}\n",
                      "{path}:2: case 'u': unknown field 'aaa'"),
    "missing_field": (f'{A}\n{{"case_id": "m", "scores": {{"public_space": 0.5}}}}\n',
                      "{path}:2: case 'm': missing field 'description'"),
    "description_not_string": (f"{A}\n{rec('s', description=None)}\n",
                               "{path}:2: case 's': description must be a string"),
    "bad_case_type": (f"{A}\n{rec('t', case_type='nope')}\n",
                      "{path}:2: case 't': unknown case_type 'nope'"),
    "bad_label": (f"{A}\n{rec('l', expert_label=3)}\n",
                  "{path}:2: case 'l': unknown expert_label 3"),
    "bad_score_later": (
        f"{A}\n{B}\n\n{rec('s', scores={'public_space': 0.5, 'remote_biometric': 1.5})}\n",
        "{path}:4: case 's': unknown condition 'remote_biometric'"),
    "out_of_range_score": (f"{A}\n{B}\n{rec('s', scores={'public_space': 1.5})}\n",
                           f"{{path}}:3: case 's': score for 'public_space' {RANGE} 1.5"),
    "nan_score": (f"{A}\n{B}\n{rec('s', scores={'public_space': float('nan')})}\n",
                  f"{{path}}:3: case 's': score for 'public_space' {RANGE} nan"),
    "huge_int_score": (f"{A}\n{rec('s', scores={'public_space': 10 ** 400})}\n",
                       f"{{path}}:2: case 's': score for 'public_space' {RANGE} {10 ** 400}"),
    "string_score": (f"{A}\n{rec('s', scores={'public_space': '0.5'})}\n",
                     "{path}:2: case 's': score for 'public_space' must be a number"),
    "bool_score": (f"{A}\n{rec('s', scores={'public_space': True})}\n",
                   "{path}:2: case 's': score for 'public_space' must be a number"),
    "unknown_condition": (f"{A}\n{rec('s', scores={'mystery': 0.5})}\n",
                          "{path}:2: case 's': unknown condition 'mystery'"),
    "empty_scores": (f"{A}\n{rec('s', scores={})}\n",
                     "{path}:2: case 's': scores must be a non-empty object"),
    "empty_file": ("", "{path}: no cases"),
    "only_blank_lines": ("\n  \n\r\n\t\n", "{path}: no cases"),
}


def _outcome(path):
    try:
        return [case.case_id for case in load_dataset(path).cases]
    except DatasetValidationError as exc:
        return str(exc).replace(str(path), "{path}")


@pytest.mark.parametrize("name", PARITY)
def test_parity_corpus(tmp_path, name):
    text, expected = PARITY[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(path) == expected


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "absent.jsonl")


@pytest.mark.parametrize("load", [load_dataset, load_case, load_ruleset])
def test_empty_path_is_not_the_current_directory(load):
    with pytest.raises(OSError) as err:
        load("")
    assert err.value.filename == ""
    assert not isinstance(err.value, IsADirectoryError)


@pytest.mark.parametrize("path", ["./in.json", b"./in.json"], ids=["str", "bytes"])
@pytest.mark.parametrize("load,error", [(load_dataset, DatasetValidationError),
                                        (load_case, DatasetValidationError),
                                        (load_ruleset, RuleValidationError)])
def test_error_names_the_path_as_given(tmp_path, monkeypatch, load, error, path):
    # Not normalised to "in.json"; a bytes path is named as text, not b'...'.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text("{nope\n")
    with pytest.raises(error, match=r"^\./in\.json:"):
        load(path)


class TestNoLeakedFile:
    """``read_lines`` is a generator, so its file lives as long as it does:
    a load that stops part-way must still close the file."""

    @staticmethod
    def _leaks(load, path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DatasetValidationError):
                load(path)
            gc.collect()
        return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]

    def test_dataset_failing_on_line_2(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text(f"{A}\n{BAD_JSON}\n{B}\n{C}\n" * 50, encoding="utf-8")
        assert self._leaks(load_dataset, path) == []

    def test_case_file_with_a_bad_byte(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_bytes(b'{"case_id": "x",\n "description": "\xff"}\n')
        assert self._leaks(load_case, path) == []


class TestRecordSeparators:
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_only_line_ends_separate_records(self, tmp_path, sep):
        path = tmp_path / "joined.jsonl"
        path.write_bytes(f"{A}{sep}{B}\n".encode("utf-8"))
        assert _outcome(path) == (
            "{path}:1: not valid JSON: Extra data: line 1 column 124 (char 123)")

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_raw_unicode_line_break_inside_a_string_loads(self, tmp_path, char):
        line = rec("x", ensure_ascii=False, description=f"a{char}b")
        assert char in line
        path = tmp_path / "raw.jsonl"
        path.write_bytes(f"{A}\n{line}\n".encode("utf-8"))
        assert load_dataset(path).cases[1].description == f"a{char}b"

    def test_form_feed_line_is_blank_and_counts_once(self, tmp_path):
        path = tmp_path / "ff.jsonl"
        path.write_bytes(f"{A}\n\x0c\n{{bad\n".encode("utf-8"))
        assert _outcome(path).startswith("{path}:3: not valid JSON")


class TestDecoding:
    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(f"{A}\n{B}\n".encode() + b'{"case_id": "\xff"}\n')
        assert _outcome(path) == "{path}:3: not valid UTF-8: byte 0xff at column 14"

    def test_invalid_utf8_far_beyond_the_first_read(self, tmp_path):
        # The bad byte sits well past any read buffer; the line is still exact.
        path = tmp_path / "late.jsonl"
        path.write_bytes(f"{A}\n".encode() + b"\n" * 20000 + f"{B}\n".encode()
                         + b'{"case_id": "ab\xc3("}\n')
        assert _outcome(path) == "{path}:20003: not valid UTF-8: byte 0xc3 at column 16"

    def test_invalid_utf8_in_a_crlf_file(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(f"{A}\r\n".encode() + b"\xe2\x82\r\n")
        assert _outcome(path) == "{path}:2: not valid UTF-8: byte 0xe2 at column 1"


class TestWholeFileDecoding:
    """load_case and load_ruleset read a whole file; a bad byte is placed
    by line and column as load_dataset places it."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_case_file(self, tmp_path, newline):
        path = tmp_path / "case.json"
        path.write_bytes(newline.join(['{"case_id": "x",', '', ' "d": "\xe9\xff"}'])
                         .encode("latin-1"))
        with pytest.raises(DatasetValidationError) as exc:
            load_case(path)
        assert str(exc.value) == f"{path}:3: not valid UTF-8: byte 0xe9 at column 8"

    def test_rule_file_far_beyond_the_first_read(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_bytes(b'{"vocabulary": [],' + b" \n" * 20000 + b'"rules": ["\x80"]}')
        with pytest.raises(RuleValidationError) as exc:
            load_ruleset(path)
        assert str(exc.value) == f"{path}:20001: not valid UTF-8: byte 0x80 at column 12"

    @pytest.mark.parametrize("data", [b"a\r\nb\rc\n", "\ufeff\u00e9\u2028x\r".encode(), b""])
    def test_valid_text_reads_as_read_text_does(self, tmp_path, data):
        path = tmp_path / "any.json"
        path.write_bytes(data)
        assert "".join(read_lines(path, ValueError)) == path.read_text(encoding="utf-8")

    def test_non_ascii_case_file_loads(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_bytes(rec("\u00e9t\u00e9", ensure_ascii=False).encode("utf-8"))
        assert load_case(path).case_id == "\u00e9t\u00e9"


def test_load_holds_no_copy_of_the_file(tmp_path):
    # Holding the whole text and its list of lines peaks at ~1.6x the file
    # size above the cases kept; reading line by line stays below half.
    path = tmp_path / "big.jsonl"
    path.write_text(dataset_to_jsonl(generate_synthetic(20_000, 1)), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        dataset = load_dataset(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.cases) == 20_000
    assert peak - retained < path.stat().st_size / 2


def _rule(**fields):
    obj = {"rule_id": "r", "category": "high_risk", "conditions": ["a"], "theta": 0.5}
    obj.update(fields)
    return obj


def _rule_file(*rules, vocabulary=("a",)):
    return json.dumps({"vocabulary": list(vocabulary), "rules": list(rules)})


# name -> (rule file text, the parser's bare message): one file per error
# that parse_ruleset, _rule_from_obj, Rule and RuleSet raise on file input.
RULE_FILES = {
    "not_json": ("{nope", "not valid JSON: Expecting property name enclosed in double "
                          "quotes: line 1 column 2 (char 1)"),
    "not_object": ("[]", "expected a JSON object"),
    "missing_rules": ('{"vocabulary": []}', "missing top-level key 'rules'"),
    "vocabulary_not_strings": ('{"vocabulary": [1], "rules": []}',
                               "vocabulary must be an array of strings"),
    "rules_not_array": ('{"vocabulary": [], "rules": {}}', "rules must be an array"),
    "entry_not_object": (_rule_file(5), "rule entries must be JSON objects"),
    "empty_rule_id": (_rule_file(_rule(rule_id="")), "rule with missing or empty rule_id"),
    "unknown_field": (_rule_file(_rule(zz=1)), "rule 'r': unknown field 'zz'"),
    "missing_field": (_rule_file({"rule_id": "r", "category": "high_risk", "conditions": ["a"]}),
                      "rule 'r': missing field 'theta'"),
    "unknown_category": (_rule_file(_rule(category="x")), "rule 'r': unknown category 'x'"),
    "conditions_not_strings": (_rule_file(_rule(conditions=[1])),
                               "rule 'r': conditions must be an array of strings"),
    "theta_not_number": (_rule_file(_rule(theta="0.5")), "rule 'r': theta must be a number"),
    "unknown_standard": (_rule_file(_rule(standard="weak")), "rule 'r': unknown standard 'weak'"),
    "synthetic_not_bool": (_rule_file(_rule(synthetic=1)),
                           "rule 'r': synthetic must be a boolean"),
    "article_not_string": (_rule_file(_rule(article=5)), "rule 'r': article must be a string"),
    "empty_conditions": (_rule_file(_rule(conditions=[])), "rule 'r': empty condition list"),
    "duplicate_condition": (_rule_file(_rule(conditions=["a", "a"])),
                            "rule 'r': duplicate condition"),
    "theta_out_of_range": (_rule_file(_rule(theta=1.5)),
                           "rule 'r': theta out of range (0, 1): 1.5"),
    "bad_vocabulary_term": (_rule_file(vocabulary=["A"]),
                            "vocabulary term 'A' is not a lowercase_underscore identifier"),
    "duplicate_rule_id": (_rule_file(_rule(), _rule()), "duplicate rule_id 'r'"),
    "unknown_condition": (_rule_file(_rule(conditions=["b"])),
                          "rule 'r': unknown condition 'b'"),
}

#: The RULE_FILES entries whose one fault Rule itself names: each reaches
#: Rule, since the reader checks only what the JSON alone tells.
RULE_FIELD_FAULTS = ("unknown_category", "conditions_not_strings", "theta_not_number",
                     "unknown_standard", "synthetic_not_bool", "article_not_string",
                     "empty_conditions", "duplicate_condition", "theta_out_of_range")

# name -> (case file text, the parser's bare message); each record has
# the fields load_case would otherwise fill in.
CASE_FILES = {
    "not_json": (BAD_JSON, BAD_JSON_ERROR),
    "bom": (f"\ufeff{A}", BOM_ERROR),
    "not_object": ("[1, 2]", "case records must be JSON objects"),
    "missing_case_id": (rec(""), "missing or empty case_id"),
    "unknown_field": (rec("c", zz=1), "case 'c': unknown field 'zz'"),
    "bad_case_type": (rec("c", case_type="nope"), "case 'c': unknown case_type 'nope'"),
    "unknown_condition": (rec("c", scores={"mystery": 0.5}),
                          "case 'c': unknown condition 'mystery'"),
    "out_of_range_score": (rec("c", scores={"public_space": 1.5}),
                           f"case 'c': score for 'public_space' {RANGE} 1.5"),
}


class TestErrorPlacement:
    """The decoder and the parsers name no file; each loader puts the
    file's path (and line, for a dataset) in front of every error, once."""

    def test_parity_corpus_errors(self):
        # test_parity_corpus matches these exactly, the path put back.
        for _, want in PARITY.values():
            if isinstance(want, str):
                assert want.startswith("{path}:") and want.count("{path}") == 1

    @pytest.mark.parametrize("name", CASE_FILES)
    def test_case_files(self, tmp_path, name):
        text, message = CASE_FILES[name]
        with pytest.raises(DatasetValidationError) as err:
            parse_case(decode_json(text, DatasetValidationError), CONDITION_VOCABULARY)
        assert str(err.value) == message
        path = tmp_path / "case.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetValidationError) as err:
            load_case(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name", RULE_FILES)
    def test_rule_files(self, tmp_path, name):
        text, message = RULE_FILES[name]
        with pytest.raises(RuleValidationError) as err:
            parse_ruleset(text)
        assert str(err.value) == message
        path = tmp_path / "rules.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RuleValidationError) as err:
            load_ruleset(path)
        assert str(err.value) == f"{path}: {message}"


class TestOneOwner:
    """A rule's fields are checked by Rule alone: ``Rule(...)`` on a file's
    entry, its names turned into members, names the fault as
    ``parse_ruleset`` does."""

    @pytest.mark.parametrize("name", RULE_FIELD_FAULTS)
    def test_rule_names_the_files_fault(self, name):
        text, message = RULE_FILES[name]
        [entry] = json.loads(text)["rules"]
        entry["category"] = CATEGORY_BY_NAME.get(entry["category"], entry["category"])
        if "standard" in entry:
            entry["standard"] = {s.value: s for s in ConjunctionStandard}.get(
                entry["standard"], entry["standard"])
        with pytest.raises(RuleValidationError) as err:
            Rule(**entry)
        assert str(err.value) == message

    def test_every_other_entry_fault_is_the_readers(self):
        # The faults RULE_FILES lists for one entry that Rule does not name.
        readers = {"entry_not_object", "empty_rule_id", "unknown_field", "missing_field"}
        entry_faults = {name for name, (_, message) in RULE_FILES.items()
                        if message.startswith(("rule ", "rule entries"))
                        and "unknown condition" not in message}
        assert entry_faults == readers | set(RULE_FIELD_FAULTS)


class TestReadOnlyScores:
    def _case(self, scores):
        return Case("c", "", scores, RiskCategory.HIGH_RISK, CaseType.MARGINAL)

    def test_item_assignment_raises(self):
        case = self._case({"public_space": 0.5})
        with pytest.raises(TypeError):
            case.scores["public_space"] = 0.9
        with pytest.raises(TypeError):
            del case.scores["public_space"]

    def test_loaded_scores_are_read_only(self, appendix_dataset):
        with pytest.raises(TypeError):
            appendix_dataset.cases[0].scores["public_space"] = 1.0

    def test_callers_dict_is_copied(self):
        scores = {"public_space": 0.5}
        case = self._case(scores)
        scores["public_space"] = 0.9
        scores["education"] = 0.1
        assert case.scores == {"public_space": 0.5}

    def test_equal_to_dicts_and_cases(self):
        case = self._case({"a": 0.5, "b": 0.25})
        assert case.scores == {"a": 0.5, "b": 0.25}
        assert case == self._case({"b": 0.25, "a": 0.5})
        assert case != self._case({"a": 0.5})

    def test_pickle_round_trip(self):
        case = self._case({"a": 0.5, "b": -0.0})
        again = pickle.loads(pickle.dumps(case))
        assert again == case
        assert list(again.scores.items()) == list(case.scores.items())
        with pytest.raises(TypeError):
            again.scores["a"] = 1.0
