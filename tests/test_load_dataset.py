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
from riskrules.rules import RiskCategory, RuleValidationError, load_ruleset, read_utf8


def rec(case_id, ensure_ascii=True, **fields):
    obj = {"case_id": case_id, "description": "d", "case_type": "clear",
           "expert_label": "minimal_risk", "scores": {"public_space": 0.9}}
    obj.update(fields)
    return json.dumps(obj, ensure_ascii=ensure_ascii)


A, B, C = rec("a"), rec("b"), rec("c")
BAD_JSON = '{"case_id": "x",}'
BAD_JSON_ERROR = ("not valid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 17 (char 16)")
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
    "unknown_field": (f"{A}\n{rec('u', zzz=1, aaa=2)}\n", "case 'u': unknown field 'aaa'"),
    "missing_field": (f'{A}\n{{"case_id": "m", "scores": {{"public_space": 0.5}}}}\n',
                      "case 'm': missing field 'description'"),
    "description_not_string": (f"{A}\n{rec('s', description=None)}\n",
                               "case 's': description must be a string"),
    "bad_case_type": (f"{A}\n{rec('t', case_type='nope')}\n",
                      "case 't': unknown case_type 'nope'"),
    "bad_label": (f"{A}\n{rec('l', expert_label=3)}\n", "case 'l': unknown expert_label 3"),
    "bad_score_later": (
        f"{A}\n{B}\n\n{rec('s', scores={'public_space': 0.5, 'remote_biometric': 1.5})}\n",
        "case 's': unknown condition 'remote_biometric'"),
    "out_of_range_score": (f"{A}\n{B}\n{rec('s', scores={'public_space': 1.5})}\n",
                           f"case 's': score for 'public_space' {RANGE} 1.5"),
    "nan_score": (f"{A}\n{B}\n{rec('s', scores={'public_space': float('nan')})}\n",
                  f"case 's': score for 'public_space' {RANGE} nan"),
    "huge_int_score": (f"{A}\n{rec('s', scores={'public_space': 10 ** 400})}\n",
                       f"case 's': score for 'public_space' {RANGE} {10 ** 400}"),
    "string_score": (f"{A}\n{rec('s', scores={'public_space': '0.5'})}\n",
                     "case 's': score for 'public_space' must be a number"),
    "bool_score": (f"{A}\n{rec('s', scores={'public_space': True})}\n",
                   "case 's': score for 'public_space' must be a number"),
    "unknown_condition": (f"{A}\n{rec('s', scores={'mystery': 0.5})}\n",
                          "case 's': unknown condition 'mystery'"),
    "empty_scores": (f"{A}\n{rec('s', scores={})}\n",
                     "case 's': scores must be a non-empty object"),
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
        assert read_utf8(path, ValueError) == path.read_text(encoding="utf-8")

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
    assert len(dataset) == 20_000
    assert peak - retained < path.stat().st_size / 2


class TestParseCaseLocation:
    @pytest.mark.parametrize("obj,message", [
        ([1], "f.jsonl:7: case records must be JSON objects"),
        ({"case_id": ""}, "f.jsonl:7: missing or empty case_id"),
        ({"case_id": 3}, "f.jsonl:7: missing or empty case_id"),
    ])
    def test_where_prefixes_unnamed_records(self, obj, message):
        with pytest.raises(DatasetValidationError) as err:
            parse_case(obj, frozenset({"public_space"}), where="f.jsonl:7")
        assert str(err.value) == message

    def test_default_where(self):
        with pytest.raises(DatasetValidationError) as err:
            parse_case("x", frozenset())
        assert str(err.value) == "<case>: case records must be JSON objects"


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
