"""CLI behaviour: commands, determinism, exit codes, output framing."""

import json
import subprocess
import sys

import pytest

from riskrules.cli import main

from conftest import DATA_DIR

APPENDIX = str(DATA_DIR / "cases_appendix.jsonl")
HRM04 = str(DATA_DIR / "hrm04.json")


def run_cli(*argv):
    return main(list(argv))


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
        from riskrules.rules import ConjunctionStandard, RuleSet, save_ruleset
        annotated = RuleSet(
            ruleset.vocabulary,
            tuple(dataclasses.replace(r, standard=ConjunctionStandard.BOTTLENECK)
                  for r in ruleset.rules))
        rules_path = tmp_path / "annotated.json"
        save_ruleset(annotated, rules_path)
        assert run_cli("classify", "--case", HRM04, "--rules", str(rules_path),
                       "--mixed") == 0
        assert json.loads(capsys.readouterr().out)["predicted"] == "high_risk"

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

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_bad_tnorm_choice(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--case", HRM04, "--tnorm", "frank")
        assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "d.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "riskrules", "generate", "--n", "40", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and len(out.read_text().splitlines()) == 40
