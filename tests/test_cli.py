"""CLI behaviour: commands, determinism, exit codes, output framing."""

import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from riskrules import cli
from riskrules.benchmark import CaseType
from riskrules.cli import main
from riskrules.rules import (
    CONDITION_VOCABULARY,
    ConjunctionStandard,
    RiskCategory,
    RuleValidationError,
    load_ruleset,
    parse_ruleset,
)

from conftest import DATA_DIR

APPENDIX = str(DATA_DIR / "cases_appendix.jsonl")
HRM04 = str(DATA_DIR / "hrm04.json")
#: JSON nested deeper than the decoder's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


def run_cli(*argv):
    return main(list(argv))


def _bad_json_input(tmp_path, kind, text):
    """CLI arguments that read ``text`` (str or bytes) as a rule file, a case
    file or line 2 of a dataset (after a valid record), and the location its
    error names."""
    data = text.encode() if isinstance(text, str) else text
    if kind == "rules":
        path = tmp_path / "rules.json"
        argv = ("classify", "--case", HRM04, "--rules", str(path), "--tnorm", "goedel")
    elif kind == "case":
        path = tmp_path / "case.json"
        argv = ("classify", "--case", str(path), "--tnorm", "goedel")
    else:
        path = tmp_path / "cases.jsonl"
        first = (DATA_DIR / "cases_appendix.jsonl").read_bytes().splitlines(keepends=True)[0]
        data = first + data + b"\n"
        argv = ("evaluate", "--dataset", str(path), "--tnorm", "goedel")
    path.write_bytes(data)
    return argv, f"{path}:2: " if kind == "dataset" else f"{path}: "


class TestClassify:
    def test_goedel_predicts_high_risk(self, capsys):
        assert run_cli("classify", "--case", HRM04, "--rules", "default",
                       "--tnorm", "goedel") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["predicted"] == "high_risk"
        assert doc["tnorm"] == "goedel"
        assert doc["case_id"] == "HRM04"

    def test_lukasiewicz_predicts_minimal(self, capsys):
        run_cli("classify", "--case", HRM04, "--tnorm", "lukasiewicz")
        assert json.loads(capsys.readouterr().out)["predicted"] == "minimal_risk"

    def test_theta_override(self, capsys):
        run_cli("classify", "--case", HRM04, "--tnorm", "product", "--theta", "0.45")
        assert json.loads(capsys.readouterr().out)["predicted"] == "high_risk"

    def test_mixed_requires_annotations(self, capsys):
        assert run_cli("classify", "--case", HRM04, "--mixed") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "conjunction standard" in err

    def test_mixed_with_annotated_rules(self, tmp_path, capsys, ruleset):
        import dataclasses
        from riskrules.rules import ConjunctionStandard, RuleSet, ruleset_to_json
        annotated = RuleSet(
            ruleset.vocabulary,
            tuple(dataclasses.replace(r, standard=ConjunctionStandard.BOTTLENECK)
                  for r in ruleset.rules))
        rules_path = tmp_path / "annotated.json"
        rules_path.write_text(ruleset_to_json(annotated), encoding="utf-8")
        assert run_cli("classify", "--case", HRM04, "--rules", str(rules_path),
                       "--mixed") == 0
        assert json.loads(capsys.readouterr().out)["predicted"] == "high_risk"

    def test_mixed_theta_checked_before_annotations(self, capsys):
        assert run_cli("classify", "--case", HRM04, "--mixed", "--theta", "1.5") == 1
        assert capsys.readouterr().err == "error: theta out of range (0, 1): 1.5\n"

    def test_tnorm_and_mixed_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--case", HRM04, "--tnorm", "goedel", "--mixed")
        assert exc.value.code == 2


class TestEvaluate:
    def test_report_shape(self, capsys):
        assert run_cli("evaluate", "--dataset", APPENDIX, "--tnorm", "goedel") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 15
        assert doc["fn_count"] == 5

    def test_theta_out_of_range(self, capsys):
        assert run_cli("evaluate", "--dataset", APPENDIX, "--tnorm", "goedel",
                       "--theta", "1.5") == 1
        assert "theta out of range" in capsys.readouterr().err


class TestCompare:
    def test_default_three_operators(self, capsys):
        assert run_cli("compare", "--dataset", APPENDIX) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["reports"]) == ["goedel", "lukasiewicz", "product"]
        assert len(doc["pairs"]) == 3

    def test_explicit_pair(self, capsys):
        assert run_cli("compare", "--dataset", APPENDIX,
                       "--tnorms", "product,logproduct") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairs"][0]["b"] == 0 and doc["pairs"][0]["c"] == 0

    def test_theta_checked_before_operator_count(self, capsys):
        assert run_cli("compare", "--dataset", APPENDIX, "--tnorms", "goedel",
                       "--theta", "1.5") == 1
        assert capsys.readouterr().err == "error: theta out of range (0, 1): 1.5\n"

    def test_unknown_operator_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--dataset", APPENDIX, "--tnorms", "product,zadeh")
        assert exc.value.code == 2


class TestSweep:
    def test_csv_output(self, capsys):
        assert run_cli("sweep", "--dataset", APPENDIX, "--tnorm", "product",
                       "--theta-min", "0.4", "--theta-max", "0.5",
                       "--theta-step", "0.05") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "theta,kind,accuracy,fp_rate,fn_rate"
        assert len(lines) == 4
        assert out.endswith("\n")

    def test_invalid_range_is_validation_error(self, capsys):
        assert run_cli("sweep", "--dataset", APPENDIX, "--tnorm", "product",
                       "--theta-min", "0.6", "--theta-max", "0.4") == 1
        assert "invalid theta range" in capsys.readouterr().err

    def test_empty_operator_list_is_validation_error(self, capsys):
        assert run_cli("sweep", "--dataset", APPENDIX, "--tnorms", ",") == 1
        assert capsys.readouterr().err == "error: need at least one operator\n"

    @pytest.mark.parametrize("grid,labels", [
        (("0.5", "0.5000004", "1e-7"),
         ["0.5", "0.5000001", "0.5000002", "0.5000003", "0.5000004"]),
        (("1e-7", "2e-7", "1e-7"), ["1e-07", "2e-07"]),
    ])
    def test_theta_labels_stay_distinct_off_the_lattice(self, capsys, grid, labels):
        assert run_cli("sweep", "--dataset", APPENDIX, "--tnorm", "goedel",
                       "--theta-min", grid[0], "--theta-max", grid[1],
                       "--theta-step", grid[2]) == 0
        thetas = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert thetas == labels
        assert all(0.0 < float(t) < 1.0 for t in thetas)

    def test_points_that_print_alike_are_validation_error(self, capsys):
        assert run_cli("sweep", "--dataset", APPENDIX, "--tnorm", "goedel",
                       "--theta-min", "0.1", "--theta-max", "0.1000000000000004",
                       "--theta-step", "1e-16") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: theta grid [0.1, 0.1000000000000004] by 1e-16 has "
                                "points that print alike; use a larger step\n")


class TestGenerate:
    def test_byte_identical_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("generate", "--n", "120", "--seed", "9", "--out", str(out_a)) == 0
        assert run_cli("generate", "--n", "120", "--seed", "9", "--out", str(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes().endswith(b"\n")

    def test_generated_dataset_feeds_other_commands(self, tmp_path, capsys):
        out = tmp_path / "bench.jsonl"
        run_cli("generate", "--n", "60", "--seed", "3", "--out", str(out))
        assert run_cli("validate", "--dataset", str(out)) == 0
        assert capsys.readouterr().out == "0 warning(s)\n"
        assert run_cli("evaluate", "--dataset", str(out), "--tnorm", "lukasiewicz") == 0

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
    def test_seed_outside_64_bits_is_rejected(self, tmp_path, capsys, seed):
        # SplitMix64 masks its seed: 2**64 + 1 would alias 1, and -1 alias 2**64 - 1.
        out = tmp_path / "d.jsonl"
        assert run_cli("generate", "--n", "5", "--seed", seed, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed, digest", [
        ("0", "bc573c0eeed8fae0b444741cf191f3f6f692aa6e3283b578edc6e1d5162fa4bd"),
        ("18446744073709551615", "97d548291239ad439607bfdcaebe11adb1162064d74d7e20300b40112174e094"),
    ])
    def test_seeds_at_the_ends_of_the_range(self, capsys, seed, digest):
        assert run_cli("generate", "--n", "5", "--seed", seed) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestValidate:
    def test_clean_dataset(self, capsys):
        assert run_cli("validate", "--dataset", APPENDIX) == 0
        assert capsys.readouterr().out == "0 warning(s)\n"

    def test_warnings_listed(self, tmp_path, capsys):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({
            "case_id": "odd1", "description": "", "case_type": "clear",
            "expert_label": "minimal_risk", "scores": {"public_space": 0.5}}) + "\n")
        assert run_cli("validate", "--dataset", str(path)) == 0
        out = capsys.readouterr().out
        assert "odd1" in out
        assert out.rstrip().endswith("1 warning(s)")

    def test_lone_surrogate_is_escaped_on_every_sink(self, tmp_path):
        # JSON admits a lone-surrogate escape, so this case id loads.
        path = tmp_path / "surrogate.jsonl"
        path.write_text('{"case_id": "a\\udc80", "description": "", "case_type": "clear", '
                        '"expert_label": "minimal_risk", "scores": {"public_space": 0.5}}\n')
        argv = [sys.executable, "-m", "riskrules", "validate", "--dataset", str(path)]
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "PYTHONUTF8") and not k.startswith("LC_")}
        outputs = []
        for extra in ({"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}):
            proc = subprocess.run(argv, capture_output=True, timeout=60, env={**env, **extra})
            assert (proc.returncode, proc.stderr) == (0, b""), extra
            outputs.append(proc.stdout)
        out = tmp_path / "warnings.txt"
        proc = subprocess.run([*argv, "--out", str(out)], capture_output=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        outputs.append(out.read_bytes())
        assert outputs[0].startswith(b"case 'a\\udc80': clear case has ")
        assert outputs == [outputs[0]] * 3

    def test_newline_case_id_keeps_one_line_per_warning(self, tmp_path, capsys):
        path = tmp_path / "newline.jsonl"
        path.write_text('{"case_id": "a\\nb", "description": "", "case_type": "clear", '
                        '"expert_label": "minimal_risk", "scores": {"public_space": 0.5}}\n')
        assert run_cli("validate", "--dataset", str(path)) == 0
        assert capsys.readouterr().out == (
            "case 'a\\nb': clear case has condition public_space=0.5 inside [0.12, 0.80]\n"
            "1 warning(s)\n")

    def test_non_ascii_case_id_is_written_the_same_under_every_locale(self, tmp_path):
        path = tmp_path / "cjk.jsonl"
        path.write_text('{"case_id": "\u65e5", "description": "", "case_type": "clear", '
                        '"expert_label": "minimal_risk", "scores": {"public_space": 0.5}}\n',
                        encoding="utf-8")
        argv = [sys.executable, "-m", "riskrules", "validate", "--dataset", str(path)]
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "PYTHONUTF8") and not k.startswith("LC_")}
        outputs = []
        for extra in ({"PYTHONIOENCODING": "latin-1"}, {"LC_ALL": "C"}):
            proc = subprocess.run(argv, capture_output=True, timeout=60, env={**env, **extra})
            assert (proc.returncode, proc.stderr) == (0, b""), extra
            outputs.append(proc.stdout)
        out = tmp_path / "warnings.txt"
        proc = subprocess.run([*argv, "--out", str(out)], capture_output=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        outputs.append(out.read_bytes())
        assert outputs[0] == (b"case '\\u65e5': clear case has condition public_space=0.5 "
                              b"inside [0.12, 0.80]\n1 warning(s)\n")
        assert outputs == [outputs[0]] * 3


class TestErrorHandling:
    def test_missing_dataset_file(self, capsys):
        assert run_cli("evaluate", "--dataset", "/nonexistent/x.jsonl",
                       "--tnorm", "goedel") == 1
        assert "x.jsonl" in capsys.readouterr().err

    def test_missing_rules_file(self, capsys):
        assert run_cli("classify", "--case", HRM04, "--rules", "/nonexistent/r.json",
                       "--tnorm", "goedel") == 1

    def test_invalid_dataset_content(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "x"}\n')
        assert run_cli("validate", "--dataset", str(path)) == 1
        assert "missing field" in capsys.readouterr().err

    def test_case_file_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        path.write_bytes(b'{"case_id": "x",\n "scores": {"public_space": 0.5}, "d\xff": 1}\n')
        assert run_cli("classify", "--case", str(path), "--tnorm", "goedel") == 1
        assert capsys.readouterr().err == \
            f"error: {path}:2: not valid UTF-8: byte 0xff at column 37\n"

    def test_rule_file_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "rules.json"
        path.write_bytes(b'{"vocabulary": ["caf\xc3\xa9", "b\xe9"], "rules": []}\n')
        assert run_cli("classify", "--case", HRM04, "--rules", str(path),
                       "--tnorm", "goedel") == 1
        assert capsys.readouterr().err == \
            f"error: {path}:1: not valid UTF-8: byte 0xe9 at column 27\n"

    def test_rule_theta_too_large_for_a_float_names_the_rule(self, tmp_path, capsys):
        path = tmp_path / "rules.json"
        path.write_text('{"vocabulary": ["a"], "rules": [{"rule_id": "big", '
                        '"category": "high_risk", "conditions": ["a"], "theta": 1'
                        + "0" * 400 + "}]}")
        assert run_cli("classify", "--case", HRM04, "--rules", str(path),
                       "--tnorm", "goedel") == 1
        assert capsys.readouterr().err == \
            f"error: {path}: rule 'big': theta out of range (0, 1): inf\n"

    @pytest.mark.parametrize("kind", ["rules", "case", "dataset"])
    def test_integer_literal_too_long_names_the_file(self, tmp_path, capsys, kind):
        number = "1" + "0" * 5000
        text = ('{"vocabulary": [], "rules": [], "n": %s}' if kind == "rules"
                else '{"case_id": "x", "scores": {"public_space": %s}}') % number
        argv, where = _bad_json_input(tmp_path, kind, text)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}not valid JSON: Exceeds the limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["rules", "case", "dataset"])
    def test_deeply_nested_json_names_the_file(self, tmp_path, capsys, kind):
        argv, where = _bad_json_input(tmp_path, kind, DEEP)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}not valid JSON: maximum recursion depth exceeded")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_deeply_nested_rule_text_names_the_source(self, tmp_path):
        with pytest.raises(RuleValidationError, match=r"^not valid JSON: maximum recursion depth"):
            parse_ruleset(DEEP)
        path = tmp_path / "r.json"
        path.write_text(DEEP)
        with pytest.raises(RuleValidationError) as err:
            load_ruleset(path)
        assert str(err.value).startswith(f"{path}: not valid JSON: maximum recursion depth")

    @pytest.mark.parametrize("rules", ["null", "5", "false", "{}", '"r"'])
    def test_rules_not_an_array_names_the_file(self, tmp_path, capsys, rules):
        argv, where = _bad_json_input(tmp_path, "rules", '{"vocabulary": [], "rules": %s}' % rules)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {where}rules must be an array\n"

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--dataset", "missing.jsonl", "--tnorm", "goedel"),
        ("classify", "--case", "missing.json", "--tnorm", "goedel"),
        ("generate",),
    ])
    def test_rule_error_comes_first(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vocabulary": ["a"], "rules": [{"rule_id": "r", '
                       '"category": "x", "conditions": ["a"], "theta": 0.5}]}')
        argv = [str(tmp_path / arg) if arg.startswith("missing") else arg for arg in argv]
        assert run_cli(*argv, "--rules", str(bad)) == 1
        assert capsys.readouterr().err == f"error: {bad}: rule 'r': unknown category 'x'\n"

    def test_rule_entry_error_names_the_rule(self, tmp_path, capsys):
        argv, where = _bad_json_input(tmp_path, "rules", json.dumps({
            "vocabulary": ["a"], "rules": [{"rule_id": "r", "category": "high_risk",
                                            "conditions": ["a"], "theta": "0.5"}]}))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {where}rule 'r': theta must be a number\n"

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_bad_tnorm_choice(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--case", HRM04, "--tnorm", "frank")
        assert exc.value.code == 2


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_TERMS = sorted(CONDITION_VOCABULARY)


@st.composite
def _record(draw, fields):
    """An object over a schema's own keys with plausible values and at most
    one fault: a field holding any JSON value, a missing field or an
    unknown field."""
    record = {key: draw(value) for key, value in fields.items()}
    fault = draw(st.none() | st.sampled_from(["any", "missing", "unknown"]))
    key = draw(st.sampled_from(sorted(fields)))
    if fault == "any":
        record[key] = draw(_JSON)
    elif fault == "missing":
        del record[key]
    elif fault == "unknown":
        record["zz"] = draw(_JSON)
    return record


_RULE = _record({
    "rule_id": st.text(min_size=1, max_size=3),
    "category": st.sampled_from([c.value for c in RiskCategory]),
    "conditions": st.lists(st.sampled_from(_TERMS), min_size=1, max_size=3, unique=True),
    "theta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "article": st.text(max_size=3),
    "standard": st.sampled_from([s.value for s in ConjunctionStandard]),
    "synthetic": st.booleans(),
})
_CASE = _record({
    "case_id": st.text(min_size=1, max_size=3),
    "description": st.text(max_size=3),
    "case_type": st.sampled_from([t.value for t in CaseType]),
    "expert_label": st.sampled_from([c.value for c in RiskCategory]),
    "scores": st.dictionaries(st.sampled_from(_TERMS), st.floats(0.0, 1.0),
                              min_size=1, max_size=3),
})
_DOCS = {
    "rules": _record({"vocabulary": st.just(_TERMS), "rules": st.lists(_RULE, max_size=3)}),
    "case": _CASE,
    "dataset": _CASE,
}


_OPERATORS = (("--mixed",), ("--tnorm", "goedel"), ("--tnorm", "product"))
#: Per input kind, each command that reads it and the options it is run with.
_READERS = {
    "case": {"classify": _OPERATORS},
    "dataset": {"evaluate": _OPERATORS, "compare": ((), ("--tnorms", "goedel,product")),
                "sweep": (("--tnorm", "lukasiewicz"), ("--tnorms", "goedel,product")),
                "validate": ((),)},
    "rules": {"classify": _OPERATORS, "generate": (("--n", "40"),)},
}
#: The only exit-1 errors that name no input file: they are about the rule
#: set's content and raised after every file has loaded. Keyed by the
#: command or option that can raise them.
_POST_LOAD_ERRORS = {
    "--mixed": "error: mixed mode requires a conjunction standard on every rule; ",
    "generate": "error: ruleset has no ",
}


class TestFuzzedInputs:
    """Any JSON or any bytes written as a rule file, a case file or a
    dataset line, read by each command that reads that kind of file, ends in
    a result or a one-line exit-1 error that starts with an input's path."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(_READERS)).flatmap(lambda kind: st.tuples(
        st.just(kind),
        st.sampled_from([(command, options) for command, runs in _READERS[kind].items()
                         for options in runs]),
        (_DOCS[kind] | _JSON).map(json.dumps) | st.binary())))
    @example(("rules", ("classify", ("--tnorm", "goedel")), '{"vocabulary": [], "rules": null}'))
    @example(("rules", ("classify", ("--tnorm", "goedel")), '{"vocabulary": [], "rules": 5}'))
    @example(("rules", ("classify", ("--tnorm", "goedel")), '{"vocabulary": [], "rules": false}'))
    @example(("case", ("classify", ("--mixed",)), b"\xef\xbb\xbf{}"))  # a BOM
    @example(("rules", ("generate", ("--n", "40")), b"\r"))  # a lone CR
    @example(("dataset", ("validate", ()), b"\r"))
    @example(("dataset", ("sweep", ("--tnorm", "lukasiewicz")), b"\xff"))
    @example(("case", ("classify", ("--tnorm", "goedel")), b"\xff"))
    def test_exit_0_or_one_error_line(self, tmp_path, run):
        kind, (command, options), data = run
        argv, _ = _bad_json_input(tmp_path, kind, data)
        # ("--case", path), ("--dataset", path) or ("--case", HRM04, "--rules", path)
        files = argv[1:-2]
        if command == "generate":
            files = files[2:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(command, *files, *options)
        assert code in (0, 1)
        if code:
            message = err.getvalue()
            assert message.count("\n") == 1
            placed = tuple(f"error: {path}:" for path in files[1::2])
            unplaced = tuple(_POST_LOAD_ERRORS[arg] for arg in (command, *options)
                             if arg in _POST_LOAD_ERRORS)
            assert message.startswith(placed + unplaced), message
        else:
            assert err.getvalue() == "" and out.getvalue().endswith("\n")
            assert out.getvalue().isascii()


class TestOut:
    ARGS = ("classify", "--case", HRM04, "--tnorm", "goedel")

    def test_failed_replace_keeps_the_old_output(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "trail.json"
        out.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        assert run_cli(*self.ARGS, "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: rename failed\n"
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["trail.json"]

    def test_replaces_the_output(self, tmp_path, capsys):
        out = tmp_path / "trail.json"
        out.write_text("old\n")
        out.chmod(0o640)
        assert run_cli(*self.ARGS, "--out", str(out)) == 0
        run_cli(*self.ARGS)
        assert out.read_text() == capsys.readouterr().out
        assert out.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tmp_path) == ["trail.json"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert run_cli(*self.ARGS, "--out", str(tmp_path / "trail.json")) == 0
        finally:
            os.umask(old)
        assert (tmp_path / "trail.json").stat().st_mode & 0o777 == 0o640

    def test_new_file_is_made_without_changing_the_umask(self, tmp_path, monkeypatch):
        old = os.umask(0o027)

        def fail(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", fail)
        try:
            assert run_cli(*self.ARGS, "--out", str(tmp_path / "trail.json")) == 0
        finally:
            monkeypatch.undo()
            os.umask(old)
        assert (tmp_path / "trail.json").stat().st_mode & 0o777 == 0o666 & ~0o027
        assert os.listdir(tmp_path) == ["trail.json"]

    def test_private_output_is_never_readable_by_others(self, tmp_path, monkeypatch):
        # The new contents of a 0600 output sit in the temp file while they are
        # written; no other user may open it then, whatever the umask.
        out = tmp_path / "trail.json"
        out.write_text("old\n")
        out.chmod(0o600)
        modes = []
        fdopen, replace = os.fdopen, os.replace

        def spy_fdopen(fd, *args, **kwargs):
            modes.append(os.fstat(fd).st_mode & 0o777)
            return fdopen(fd, *args, **kwargs)

        def spy_replace(src, dst):
            modes.append(os.stat(src).st_mode & 0o777)
            replace(src, dst)

        monkeypatch.setattr(os, "fdopen", spy_fdopen)
        monkeypatch.setattr(os, "replace", spy_replace)
        old = os.umask(0o002)
        try:
            assert run_cli(*self.ARGS, "--out", str(out)) == 0
        finally:
            os.umask(old)
        assert modes == [0o600, 0o600]
        assert out.stat().st_mode & 0o777 == 0o600
        assert json.loads(out.read_text())["case_id"] == "HRM04"

    def test_symlink_target_is_replaced(self, tmp_path):
        target = tmp_path / "real.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run_cli(*self.ARGS, "--out", str(link)) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["case_id"] == "HRM04"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "trail.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            assert run_cli(*self.ARGS, "--out", str(fifo)) == 0
        finally:
            reader.join(10)
        assert not reader.is_alive()
        assert json.loads(got[0])["case_id"] == "HRM04"
        assert os.listdir(tmp_path) == ["trail.fifo"]

    def test_missing_directory_error_names_the_output(self, tmp_path, capsys):
        out = tmp_path / "no" / "trail.json"
        assert run_cli(*self.ARGS, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"

    def test_failed_replace_names_the_output_not_the_temp_file(self, tmp_path, capsys,
                                                                 monkeypatch):
        out = tmp_path / "trail.json"

        def fail(src, dst):  # as os.replace raises it: filename2 is the target
            raise OSError(errno.EACCES, "Permission denied", src, None, dst)

        monkeypatch.setattr(os, "replace", fail)
        assert run_cli(*self.ARGS, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {out}: Permission denied\n"
        assert os.listdir(tmp_path) == []


_FLAGS = {"case": "--case", "dataset": "--dataset", "rules": "--rules"}


class TestUnreadableInputs:
    """A missing or directory input exits 1 with ``error: <path>: <strerror>``
    from every command that reads that kind of file, and writes no --out."""

    @pytest.mark.parametrize("kind,command,options", [
        pytest.param(kind, command, runs[0], id=f"{kind}-{command}")
        for kind, commands in _READERS.items() for command, runs in commands.items()])
    @pytest.mark.parametrize("problem,strerror", [("missing", "No such file or directory"),
                                                  ("directory", "Is a directory")],
                             ids=["missing", "directory"])
    def test_error_names_the_input(self, tmp_path, capsys, kind, command, options,
                                   problem, strerror):
        path = tmp_path / "input"
        if problem == "directory":
            path.mkdir()
        argv = [command, _FLAGS[kind], str(path), *options]
        if kind == "rules" and command == "classify":
            argv += ["--case", HRM04]
        out = tmp_path / "out.txt"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {strerror}\n")
        assert os.listdir(tmp_path) == ([] if problem == "missing" else ["input"])

    @pytest.mark.parametrize("argv", [
        ("classify", "--tnorm", "goedel", "--case", ""),
        ("classify", "--tnorm", "goedel", "--case", HRM04, "--rules", ""),
        ("evaluate", "--tnorm", "goedel", "--dataset", ""),
        ("compare", "--dataset", ""),
        ("sweep", "--tnorm", "goedel", "--dataset", ""),
        ("validate", "--dataset", ""),
        ("validate", "--dataset", APPENDIX, "--rules", ""),
        ("generate", "--rules", ""),
        ("generate", "--n", "40", "--out", ""),
        ("classify", "--tnorm", "goedel", "--case", HRM04, "--out", ""),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_empty_path_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # Not the current directory ("error: .: Is a directory"), and not
        # stdout for --out: argparse names the option and exits 2.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument {argv[-2]}: empty path\n")
        assert os.listdir(tmp_path) == []


def _fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "riskrules", *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "COLUMNS": "80"})
    return proc.stdout, proc.stderr, proc.returncode


class TestSharedParser:
    """``main`` reuses one parser: no call may see what an earlier call parsed."""

    SEQUENCE = (
        ("sweep", "--dataset", APPENDIX, "--tnorms", "goedel,product"),
        ("sweep", "--dataset", APPENDIX, "--tnorm", "lukasiewicz"),
        ("compare", "--dataset", APPENDIX, "--tnorms", "goedel,product"),
        ("compare", "--dataset", APPENDIX),
        ("classify", "--case", HRM04, "--tnorm", "product", "--theta", "0.4"),
        ("classify", "--case", HRM04, "--tnorm", "product"),
        ("classify", "--case", HRM04, "--tnorm", "frank"),
        ("sweep", "--dataset", APPENDIX, "--tnorm", "goedel", "--tnorms", "product"),
        ("classify", "--help"),
        ("--help",),
        ("evaluate", "--dataset", APPENDIX, "--mixed"),
        ("evaluate", "--dataset", APPENDIX, "--tnorm", "goedel"),
    )

    def test_each_call_matches_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (out, err, code) == _fresh_process(argv), argv

    def test_parser_is_built_at_most_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        for argv in self.SEQUENCE[:6] * 3:
            assert main(list(argv)) == 0
        assert built == [1]

    def test_import_builds_no_parser(self):
        proc = subprocess.run([sys.executable, "-c", "import riskrules.cli as c; print(c._parser)"],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == "None\n", proc.stderr


def test_module_entry_point(tmp_path):
    out = tmp_path / "d.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "riskrules", "generate", "--n", "40", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and len(out.read_text().splitlines()) == 40
