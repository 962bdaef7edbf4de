"""Independent oracle for the benchmark's output checks.

Recomputes what the riskrules CLI must print from the input files alone,
with the standard library only: a rule's chain score is a left fold of
its condition scores (missing conditions score 0.0) with the Lukasiewicz
short-circuit on an operand equal to 1.0; a rule fires when its score is
strictly above theta; the prediction is the most severe fired category,
minimal risk otherwise. Nothing here imports riskrules, so a defect in
the program cannot hide in its own check.

Checks return a list of messages; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

#: Report order of categories (most severe first) and their severities.
CATEGORIES = ("prohibited", "high_risk", "limited_risk", "minimal_risk")
SEVERITY = {"prohibited": 3, "high_risk": 2, "limited_risk": 1, "minimal_risk": 0}
CASE_TYPES = ("clear", "marginal", "borderline")
MIXED_OPS = {"strong": "lukasiewicz", "bottleneck": "goedel"}
#: Condition score at or above which the labelling stand-in calls a condition present.
PRESENCE = 0.55


@dataclass(frozen=True)
class Rule:
    rule_id: str
    category: str
    conditions: tuple
    theta: float
    standard: str | None

    @property
    def needs(self) -> frozenset:
        return frozenset(self.conditions)


def read_rules(path) -> list[Rule]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Rule(r["rule_id"], r["category"], tuple(r["conditions"]), float(r["theta"]),
                 r.get("standard")) for r in doc["rules"]]


def live_rules(rules, needs, scores: dict) -> list[Rule]:
    """Rules whose every condition the case scores.

    A missing condition scores 0.0, and 0.0 annihilates all three
    t-norms (the Lukasiewicz short-circuit keeps an accumulator of 0.0
    too), so any other rule's chain is exactly 0.0 and, since every
    theta is above 0, cannot fire; nor can such a rule reach the
    reference label's presence level. Skipping those rules only saves time.
    """
    keys = scores.keys()
    return [r for r, need in zip(rules, needs) if need <= keys]


def read_cases(path):
    """Yield ``(case_id, scores, expert_label, case_type)`` per JSON-Lines record."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                yield obj["case_id"], obj["scores"], obj["expert_label"], obj["case_type"]


def fold(op: str, xs) -> float:
    acc = xs[0]
    for x in xs[1:]:
        if op == "lukasiewicz":
            if acc == 1.0:
                acc = x
            elif x != 1.0:
                acc = acc + x - 1.0
                if acc < 0.0:
                    acc = 0.0
        elif op == "goedel":
            if x < acc:
                acc = x
        else:  # product and logproduct share the exact product value
            acc = acc * x
    return acc


def rule_op(rule: Rule, op: str) -> str:
    return MIXED_OPS[rule.standard] if op == "mixed" else op


def chain_scores(rules, scores: dict, op: str) -> list[float]:
    return [fold(rule_op(r, op), [scores.get(c, 0.0) for c in r.conditions]) for r in rules]


def decide(rules, chains, theta=None) -> str:
    best = "minimal_risk"
    for rule, score in zip(rules, chains):
        limit = rule.theta if theta is None else theta
        if score > limit and SEVERITY[rule.category] > SEVERITY[best]:
            best = rule.category
    return best


def reference_label(rules, scores: dict) -> str:
    """Most severe rule whose every condition scores at least PRESENCE."""
    best = "minimal_risk"
    for rule in rules:
        if min(scores.get(c, 0.0) for c in rule.conditions) >= PRESENCE \
                and SEVERITY[rule.category] > SEVERITY[best]:
            best = rule.category
    return best


def band_warnings(scores: dict, case_type: str) -> int:
    if case_type == "clear":
        return int(any(0.12 <= v <= 0.80 for v in scores.values()))
    if case_type == "marginal":
        return int(not any(0.12 <= v <= 0.65 for v in scores.values()))
    return 0


def sweep_thetas(theta_min: float, theta_max: float, step: float) -> list[float]:
    """The sweep grid: ``theta_min + i * step`` up to theta_max plus a half step."""
    thetas, i = [], 0
    while theta_min + i * step <= theta_max + step * 0.5:
        thetas.append(theta_min + i * step)
        i += 1
    return thetas


# ---------------------------------------------------------------------------
# Reports.

class Tally:
    """Confusion counts per (expert, predicted, case type)."""

    def __init__(self):
        self.cells = {}

    def add(self, expert: str, predicted: str, case_type: str, k: int = 1) -> None:
        key = (expert, predicted, case_type)
        self.cells[key] = self.cells.get(key, 0) + k

    def counts(self):
        n = correct = fp = fn = 0
        for (e, p, _), k in self.cells.items():
            n += k
            if e == p:
                correct += k
            elif SEVERITY[p] > SEVERITY[e]:
                fp += k
            else:
                fn += k
        return n, correct, fp, fn

    def report(self) -> dict:
        """The report object the CLI prints, with its six-digit rounding."""
        n, correct, fp, fn = self.counts()
        by_type = {}
        for t in CASE_TYPES:
            total = sum(k for (_, _, ct), k in self.cells.items() if ct == t)
            right = sum(k for (e, p, ct), k in self.cells.items() if ct == t and e == p)
            by_type[t] = round(right / total, 6) if total else None
        confusion = [[sum(k for (e, p, _), k in self.cells.items() if e == ce and p == cp)
                      for cp in CATEGORIES] for ce in CATEGORIES]
        return {
            "n": n,
            "accuracy_overall": round(correct / n, 6),
            "accuracy_by_type": by_type,
            "fp_count": fp,
            "fn_count": fn,
            "fp_rate": round(fp / n, 6),
            "fn_rate": round(fn / n, 6),
            "categories": list(CATEGORIES),
            "confusion": confusion,
        }

    def csv_fields(self) -> tuple[str, str, str]:
        n, correct, fp, fn = self.counts()
        return f"{correct / n:.6f}", f"{fp / n:.6f}", f"{fn / n:.6f}"


def mcnemar(b: int, c: int) -> dict:
    """Exact two-direction McNemar p-values from the discordant counts."""
    n, tail, term = b + c, 0, 1
    for k in range(min(b, c) + 1):
        tail += term
        term = term * (n - k) // (k + 1)
    p_one = tail / 2 ** n
    return {"b": b, "c": c, "p_one_sided": p_one, "p_two_sided": min(1.0, 2.0 * p_one)}


class DatasetExpectation:
    """Everything the dataset commands must print, from one streaming pass.

    Streaming keeps the oracle's memory small, so it does not set the
    measuring process's peak RSS.
    """

    def __init__(self, rules, dataset_path, ops, mixed_rules=None, sweep=None):
        self.ops = list(ops)
        self.reports = {op: Tally() for op in self.ops}
        self.mixed = Tally() if mixed_rules is not None else None
        self.discordant = {(a, b): [0, 0] for i, a in enumerate(self.ops) for b in self.ops[i + 1:]}
        self.thetas = sweep_thetas(*sweep) if sweep else []
        sweep_tallies = {}  # (op, first theta index, end index, expert, predicted, type) -> count
        self.n = self.warnings = self.label_mismatches = 0
        case_ids = set()
        needs = [r.needs for r in rules]
        mixed_needs = [r.needs for r in mixed_rules or ()]
        for case_id, scores, expert, ctype in read_cases(dataset_path):
            self.n += 1
            case_ids.add(case_id)
            self.warnings += band_warnings(scores, ctype)
            live = live_rules(rules, needs, scores)
            self.label_mismatches += reference_label(live, scores) != expert
            right = {}
            for op in self.ops:
                chains = chain_scores(live, scores, op)
                predicted = decide(live, chains)
                self.reports[op].add(expert, predicted, ctype)
                right[op] = predicted == expert
                if self.thetas:
                    self._sweep_case(sweep_tallies, op, live, chains, expert, ctype)
            for (a, b), bc in self.discordant.items():
                if right[a] != right[b]:
                    bc[0 if right[a] else 1] += 1
            if self.mixed is not None:
                live = live_rules(mixed_rules, mixed_needs, scores)
                self.mixed.add(expert, decide(live, chain_scores(live, scores, "mixed")), ctype)
        self.unique_ids = len(case_ids)
        self.sweep = [{op: Tally() for op in self.ops} for _ in self.thetas]
        for (op, lo, hi, expert, predicted, ctype), k in sweep_tallies.items():
            for i in range(lo, hi):
                self.sweep[i][op].add(expert, predicted, ctype, k)

    def _sweep_case(self, tallies, op, rules, chains, expert, ctype):
        # At grid point i a category fires iff its best score exceeds
        # thetas[i]; bisect_left counts the grid points strictly below it.
        best = {}
        for rule, score in zip(rules, chains):
            if SEVERITY[rule.category] > 0:
                best[rule.category] = max(best.get(rule.category, 0.0), score)
        lo = 0
        for category in CATEGORIES[:3]:
            hi = bisect.bisect_left(self.thetas, best.get(category, 0.0))
            if hi > lo:
                key = (op, lo, hi, expert, category, ctype)
                tallies[key] = tallies.get(key, 0) + 1
                lo = hi
        if lo < len(self.thetas):
            key = (op, lo, len(self.thetas), expert, "minimal_risk", ctype)
            tallies[key] = tallies.get(key, 0) + 1

    # -- expected outputs ---------------------------------------------------

    def comparison(self) -> dict:
        return {"reports": {op: self.reports[op].report() for op in self.ops},
                "pairs": [dict(a=a, b_kind=b, **mcnemar(*bc))
                          for (a, b), bc in self.discordant.items()]}

    def sweep_lines(self) -> list[str]:
        lines = ["theta,kind,accuracy,fp_rate,fn_rate"]
        for theta, tallies in zip(self.thetas, self.sweep):
            for op in self.ops:
                lines.append(",".join((f"{round(theta, 6):g}", op) + tallies[op].csv_fields()))
        return lines


# ---------------------------------------------------------------------------
# Output checks.

def _json(data: bytes, what: str):
    try:
        return json.loads(data), []
    except ValueError as exc:
        return None, [f"{what}: output is not JSON: {exc}"]


def check_report(obj, expected: dict, what: str) -> list[str]:
    errors = []
    if obj != expected:
        errors.append(f"{what}: report differs from the oracle: got {obj!r}, want {expected!r}")
    if isinstance(obj, dict) and isinstance(obj.get("confusion"), list):
        n = obj.get("n")
        if sum(map(sum, obj["confusion"])) != n:
            errors.append(f"{what}: confusion matrix does not sum to n={n}")
        elif n and abs(obj["accuracy_overall"] - (1 - (obj["fp_count"] + obj["fn_count"]) / n)) > 1e-6:
            errors.append(f"{what}: accuracy != 1 - (fp + fn) / n")
    return errors


def check_evaluate(data: bytes, expected: dict, what: str) -> list[str]:
    obj, errors = _json(data, what)
    return errors or check_report(obj, expected, what)


def check_compare(data: bytes, expect: DatasetExpectation) -> list[str]:
    obj, errors = _json(data, "compare")
    if errors:
        return errors
    want = expect.comparison()
    if not isinstance(obj, dict) or set(obj) != {"reports", "pairs"}:
        return ["compare: output is not a {reports, pairs} object"]
    for op in expect.ops:
        errors += check_report(obj["reports"].get(op), want["reports"][op], f"compare[{op}]")
    if obj["pairs"] != want["pairs"]:
        errors.append(f"compare: McNemar pairs differ: got {obj['pairs']!r}, want {want['pairs']!r}")
    return errors


def check_sweep(data: bytes, expect: DatasetExpectation) -> list[str]:
    got = data.decode("utf-8", "replace").splitlines()
    want = expect.sweep_lines()
    if got == want:
        return []
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    return [f"sweep: line {bad + 1} differs from the oracle "
            f"({len(got)} lines, want {len(want)}): got {got[bad:bad + 1]}, want {want[bad:bad + 1]}"]


def check_validate(data: bytes, expect: DatasetExpectation) -> list[str]:
    lines = data.decode("utf-8", "replace").splitlines()
    want = f"{expect.warnings} warning(s)"
    if not lines or lines[-1] != want or len(lines) != expect.warnings + 1:
        return [f"validate: expected {expect.warnings} warning line(s) and {want!r}, got {lines[-1:]}"]
    return []


def check_dataset(expect: DatasetExpectation, n: int) -> list[str]:
    """A generated dataset: n distinct cases, reference labels, no band warnings."""
    errors = []
    if expect.n != n or expect.unique_ids != n:
        errors.append(f"dataset: {expect.n} cases with {expect.unique_ids} distinct ids, want {n}")
    if expect.label_mismatches:
        errors.append(f"dataset: {expect.label_mismatches} expert labels differ from the reference label")
    if expect.warnings:
        errors.append(f"dataset: {expect.warnings} cases fall outside their case-type band")
    return errors


def cross_check(outputs: dict) -> list[str]:
    """Commands of one pass must agree with each other.

    ``outputs`` maps call labels to output bytes. compare's per-operator
    reports must equal evaluate's, and the sweep row at theta = 0.5 (the
    threshold of every default rule) must carry the same rates.
    """
    errors = []
    evaluate = json.loads(outputs["evaluate"]) if "evaluate" in outputs else None
    compare = json.loads(outputs["compare"]) if "compare" in outputs else None
    if evaluate is not None and compare is not None and compare["reports"].get("goedel") != evaluate:
        errors.append("cross-check: compare[goedel] differs from evaluate --tnorm goedel")
    if "sweep" in outputs:
        rows = [line.split(",") for line in outputs["sweep"].decode().splitlines()[1:]]
        at_half = {r[1]: r[2:] for r in rows if float(r[0]) == 0.5}
        reports = dict(compare["reports"]) if compare else {}
        if evaluate is not None:
            reports["goedel"] = evaluate
        for op, rep in reports.items():
            n = rep["n"]
            want = [f"{(n - rep['fp_count'] - rep['fn_count']) / n:.6f}",
                    f"{rep['fp_count'] / n:.6f}", f"{rep['fn_count'] / n:.6f}"]
            if at_half.get(op) != want:
                errors.append(f"cross-check: sweep row theta=0.5 {op} {at_half.get(op)} != {want}")
    return errors


def expected_trail(rules, case_id: str, scores: dict, op: str) -> dict:
    """The proof-trail object ``classify`` prints for one case."""
    rule_objs, fired = [], []
    for rule in rules:
        kind = rule_op(rule, op)
        steps, acc = [], 0.0
        for i, cond in enumerate(rule.conditions):
            s = scores.get(cond)
            missing = s is None
            s = 0.0 if missing else s
            acc = s if i == 0 else fold(kind, [acc, s])
            steps.append({"step_index": i, "rule_id": rule.rule_id, "condition_id": cond,
                          "condition_score": round(s, 6), "operator": kind,
                          "accumulated": round(acc, 6), "missing_condition": missing})
        is_fired = acc > rule.theta
        if is_fired and SEVERITY[rule.category] > 0:
            fired.append((SEVERITY[rule.category], -acc, rule.rule_id, rule.category))
        rule_objs.append({"rule_id": rule.rule_id, "category": rule.category,
                          "score": round(acc, 6), "fired": is_fired, "steps": steps})
    # Most severe fired rule; then the highest score; then the smallest rule_id.
    top = max(fired, key=lambda f: f[0])[0] if fired else None
    winner = min((f for f in fired if f[0] == top), key=lambda f: (f[1], f[2])) if fired else None
    thetas = {r.theta for r in rules}
    return {
        "case_id": case_id,
        "tnorm": op,
        "theta": round(thetas.pop(), 6) if len(thetas) == 1 else None,
        "predicted": winner[3] if winner else "minimal_risk",
        "winning_rule": winner[2] if winner else None,
        "rules": rule_objs,
    }


def check_trail(data: bytes, expected: dict, what: str) -> list[str]:
    obj, errors = _json(data, what)
    if errors or obj == expected:
        return errors
    if not isinstance(obj, dict):
        return [f"{what}: proof trail is not a JSON object"]
    where = next((k for k in expected if obj.get(k) != expected[k]), "keys")
    if where == "rules" and isinstance(obj["rules"], list):
        where = next((f"rules[{i}] ({r['rule_id']})" for i, r in enumerate(expected["rules"])
                      if i >= len(obj["rules"]) or obj["rules"][i] != r), "rules")
    return [f"{what}: proof trail differs from the oracle at {where}"]
