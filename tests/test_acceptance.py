"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as they pass; on failure pytest shows them in the captured output.
"""

import math
import time

from riskrules.benchmark import CaseType, Dataset, SplitMix64, generate_synthetic, load_dataset
from riskrules.cli import main as cli_main
from riskrules.engine import classify, predicted_category, rule_chain_scores
from riskrules.evaluation import (
    build_report,
    compare_operators,
    evaluate,
    mcnemar_exact,
    threshold_sweep,
)
from riskrules.rules import RiskCategory
from riskrules.tnorms import CANONICAL_KINDS, TNormKind, apply, fold_chain, fold_chain_log

from conftest import BENCH_SEED, DATA_DIR

ALL_KINDS = tuple(TNormKind)
L, P, G = TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.GOEDEL

HRM04 = {"critical_infrastructure": 0.93, "safety_component": 0.88, "autonomous_decision": 0.61}
HRM05 = {"education_context": 0.92, "determines_access": 0.58, "affects_life_path": 0.63}


def _verdict(num, title, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num} ({title}): {status}")
    assert not problems, f"criterion {num} ({title}): " + "; ".join(problems)


def test_criterion_1_golden_divergence_cases(ruleset):
    problems = []
    start = time.perf_counter()
    golden = [
        # (scores, chain rule, expected L/P/G chain scores, expected predictions)
        (HRM04, "high_risk_critical_infrastructure", (0.42, 0.499, 0.61)),
        (HRM05, "high_risk_education", (0.13, 0.336, 0.58)),
    ]
    for scores, rule_id, (want_l, want_p, want_g) in golden:
        chain = [scores[c] for c in ruleset.rule(rule_id).conditions]
        got_l = fold_chain(L, chain)
        got_p = fold_chain(P, chain)
        got_g = fold_chain(G, chain)
        if abs(got_l - want_l) > 1e-9:
            problems.append(f"{rule_id} lukasiewicz chain {got_l} != {want_l}")
        if abs(got_p - want_p) > 5e-4:
            problems.append(f"{rule_id} product chain {got_p} != {want_p} +-0.0005")
        if got_g != want_g:
            problems.append(f"{rule_id} goedel chain {got_g} != {want_g}")
        for kind, want_cat in ((L, RiskCategory.MINIMAL_RISK),
                               (P, RiskCategory.MINIMAL_RISK),
                               (G, RiskCategory.HIGH_RISK)):
            got = classify(scores, ruleset, kind).predicted
            if got is not want_cat:
                problems.append(f"{rule_id} {kind.value} predicted {got.value}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, "golden divergence cases", problems)


def test_criterion_2_tnorm_axiom_suite():
    trials = 100_000
    problems = []

    rng = SplitMix64(2001)
    bad = sum(1 for i in range(trials)
              if (lambda k, a, b: apply(k, a, b) != apply(k, b, a))
                 (ALL_KINDS[i % 4], rng.random(), rng.random()))
    if bad:
        problems.append(f"{bad} commutativity violations")

    rng = SplitMix64(2002)
    bad = 0
    for i in range(trials):
        kind, x = ALL_KINDS[i % 4], rng.random()
        if apply(kind, 1.0, x) != x or apply(kind, 0.0, x) != 0.0:
            bad += 1
    if bad:
        problems.append(f"{bad} boundary violations")

    rng = SplitMix64(2003)
    bad = 0
    for i in range(trials):
        kind = ALL_KINDS[i % 4]
        a, a2, b = rng.random(), rng.random(), rng.random()
        lo, hi = (a, a2) if a <= a2 else (a2, a)
        if apply(kind, lo, b) > apply(kind, hi, b):
            bad += 1
    if bad:
        problems.append(f"{bad} monotonicity violations")

    rng = SplitMix64(2004)
    bad = 0
    for i in range(trials):
        kind = ALL_KINDS[i % 4]
        a, b, c = rng.random(), rng.random(), rng.random()
        if abs(apply(kind, apply(kind, a, b), c) - apply(kind, a, apply(kind, b, c))) > 1e-12:
            bad += 1
    if bad:
        problems.append(f"{bad} associativity violations beyond 1e-12")

    rng = SplitMix64(2005)
    bad = 0
    for _ in range(trials):
        a, b = rng.random(), rng.random()
        if not apply(L, a, b) <= apply(P, a, b) <= apply(G, a, b):
            bad += 1
    if bad:
        problems.append(f"{bad} pointwise-ordering violations")

    rng = SplitMix64(2006)
    bad = 0
    for i in range(trials):
        kind = ALL_KINDS[i % 4]
        chain = [rng.random() for _ in range(1 + rng.randrange(8))]
        fold = fold_chain(kind, chain)
        if fold > min(chain) or (kind is G and fold != min(chain)):
            bad += 1
    if bad:
        problems.append(f"{bad} chain-dominance violations")

    _verdict(2, "t-norm axiom suite, 1e5 random inputs per law", problems)


def test_criterion_3_lukasiewicz_threshold_identity():
    # fold(a, b, c) <= 0.5 iff a + b + c <= 2.5 over the full 0.01 grid.
    # Ground truth uses the grid integers (exact); the fold side allows
    # 1e-12 because sums landing exactly on the boundary accumulate about
    # 4e-16 of rounding, which is noise against the 0.01 grid pitch.
    start = time.perf_counter()
    vals = [i / 100.0 for i in range(101)]
    fold = fold_chain
    kind = L
    violations = 0
    checks = 0
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            ij = i + j
            for k, c in enumerate(vals):
                checks += 1
                if (fold(kind, [a, b, c]) <= 0.5 + 1e-12) != (ij + k <= 250):
                    violations += 1
    elapsed = time.perf_counter() - start
    problems = []
    if checks != 101 ** 3:
        problems.append(f"only {checks} grid points checked")
    if violations:
        problems.append(f"{violations} identity violations")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s >= 10s")
    _verdict(3, "lukasiewicz three-chain threshold identity, 0.01 grid", problems)


def test_criterion_4_log_space_product(ruleset, bench1035):
    problems = []
    rng = SplitMix64(4001)
    worst = 0.0
    for _ in range(10_000):
        chain = [rng.uniform(1e-6, 1.0) for _ in range(1 + rng.randrange(10))]
        diff = abs(math.exp(fold_chain_log(chain)) - fold_chain(P, chain))
        worst = max(worst, diff)
    if worst > 1e-9:
        problems.append(f"log/direct divergence {worst:.3e} > 1e-9")

    long_chain = [0.5] * 2000
    lv = fold_chain_log(long_chain)
    if not math.isfinite(lv):
        problems.append("2000-element chain lost to the zero marker")
    direct = fold_chain(P, long_chain)
    if direct != 0.0:
        problems.append("direct 2000-element product unexpectedly finite")

    _, pairs = compare_operators(bench1035, ruleset, [P, TNormKind.LOGPRODUCT])
    res = pairs[0][2]
    if res.b != 0 or res.c != 0:
        problems.append(f"product vs logproduct discordance b={res.b} c={res.c}")
    _verdict(4, "log-space product equivalence and underflow robustness", problems)


def test_criterion_5_mcnemar_exact_oracle():
    problems = []

    # independent oracle: enumerate every equally likely discordance split
    def enumeration_p(b, c):
        n = b + c
        hist = [0] * (n + 1)
        for x in range(2 ** n):
            hist[bin(x).count("1")] += 1
        tail = sum(hist[: min(b, c) + 1])
        p_one = tail / 2 ** n
        return p_one, min(1.0, 2.0 * p_one)

    HIGH, MINI = RiskCategory.HIGH_RISK, RiskCategory.MINIMAL_RISK

    def result(b, c):
        expert = [HIGH] * (b + c + 1)
        pred_a = [HIGH] * b + [MINI] * c + [HIGH]
        pred_b = [MINI] * b + [HIGH] * c + [HIGH]
        return mcnemar_exact(pred_a, pred_b, expert)

    mismatches = 0
    for n in range(0, 21):
        expected = {}
        hist = [0] * (n + 1)
        for x in range(2 ** n):
            hist[bin(x).count("1")] += 1
        for b in range(n + 1):
            c = n - b
            tail = sum(hist[: min(b, c) + 1])
            p_one = tail / 2 ** n
            res = result(b, c)
            if (res.b, res.c) != (b, c) or res.p_one_sided != p_one \
                    or res.p_two_sided != min(1.0, 2.0 * p_one):
                mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} enumeration-oracle mismatches for b+c <= 20")

    res = result(0, 28)
    # exact two-sided tail: 2 * (1/2)^28 = 2^-27, about 7.45e-9
    if res.p_two_sided != 2.0 * 0.5 ** 28:
        problems.append(f"(0,28) p_two {res.p_two_sided!r} != 2*(1/2)^28")
    if not res.p_two_sided < 1e-3:
        problems.append(f"(0,28) p_two {res.p_two_sided!r} not significant at 0.001")

    res = result(1, 1)
    if res.p_two_sided != 1.0:
        problems.append(f"(1,1) p_two {res.p_two_sided!r} != 1.0")
    _verdict(5, "mcnemar exact binomial vs enumeration oracle", problems)


def test_criterion_6_accuracy_arithmetic():
    problems = []
    HIGH, MINI = RiskCategory.HIGH_RISK, RiskCategory.MINIMAL_RISK
    for fp, fn, want_pct in ((0, 223, 78.5), (0, 195, 81.2), (8, 152, 84.5)):
        expert = [MINI] * fp + [HIGH] * fn + [MINI] * (1035 - fp - fn)
        predicted = [HIGH] * fp + [MINI] * fn + [MINI] * (1035 - fp - fn)
        report = build_report(expert, predicted, [CaseType.CLEAR] * 1035)
        if (report.fp_count, report.fn_count, report.n) != (fp, fn, 1035):
            problems.append(f"count round trip failed for fp={fp} fn={fn}")
        got_pct = round(report.accuracy_overall * 100, 1)
        if got_pct != want_pct:
            problems.append(f"fp={fp} fn={fn}: accuracy {got_pct}% != {want_pct}%")
        identity = 1 - (report.fp_count + report.fn_count) / report.n
        if report.accuracy_overall != identity:
            problems.append(f"accuracy identity violated for fp={fp} fn={fn}")
    _verdict(6, "report accuracy arithmetic at published error counts", problems)


def test_criterion_7_synthetic_benchmark_structure(ruleset):
    problems = []
    start = time.perf_counter()
    dataset = generate_synthetic(1035, BENCH_SEED, ruleset)

    type_counts = {t: 0 for t in CaseType}
    for case in dataset.cases:
        type_counts[case.case_type] += 1
    if (type_counts[CaseType.CLEAR], type_counts[CaseType.MARGINAL],
            type_counts[CaseType.BORDERLINE]) != (630, 325, 80):
        problems.append(f"case-type counts {type_counts}")

    reports = {kind: evaluate(dataset, ruleset, kind) for kind in CANONICAL_KINDS}
    if reports[L].fp_count != 0:
        problems.append(f"lukasiewicz fp_count {reports[L].fp_count}")
    if reports[P].fp_count != 0:
        problems.append(f"product fp_count {reports[P].fp_count}")
    if reports[G].fp_rate > 0.02:
        problems.append(f"goedel fp_rate {reports[G].fp_rate:.4f} > 2%")

    bord = {k: reports[k].accuracy_by_type[CaseType.BORDERLINE] for k in CANONICAL_KINDS}
    if not bord[G] > bord[P]:
        problems.append(f"borderline accuracy goedel {bord[G]} !> product {bord[P]}")
    if not bord[P] >= bord[L]:
        problems.append(f"borderline accuracy product {bord[P]} !>= lukasiewicz {bord[L]}")

    monotone_violations = 0
    for case in dataset.cases:
        sev = [
            predicted_category(ruleset, rule_chain_scores(case.scores, ruleset, kind)).severity
            for kind in (L, P, G)
        ]
        if not sev[0] <= sev[1] <= sev[2]:
            monotone_violations += 1
    if monotone_violations:
        problems.append(f"{monotone_violations} severity-monotonicity violations")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _verdict(7, "synthetic benchmark structural properties", problems)


def test_criterion_8_end_to_end_determinism(tmp_path):
    problems = []
    files = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        bench = d / "bench.jsonl"
        report = d / "report.json"
        comparison = d / "comparison.json"
        rc = cli_main(["generate", "--n", "1035", "--seed", str(BENCH_SEED),
                       "--out", str(bench)])
        rc |= cli_main(["evaluate", "--dataset", str(bench), "--tnorm", "goedel",
                        "--out", str(report)])
        rc |= cli_main(["compare", "--dataset", str(bench), "--out", str(comparison)])
        if rc != 0:
            problems.append(f"cli run {tag} failed")
        files[tag] = (bench.read_bytes(), report.read_bytes(), comparison.read_bytes())
    for name, a, b in zip(("generate", "evaluate", "compare"), files["one"], files["two"]):
        if a != b:
            problems.append(f"{name} outputs differ between identical runs")
    _verdict(8, "byte-identical cli runs", problems)


def test_criterion_9_threshold_sweep(ruleset, bench1035):
    problems = []
    appendix = load_dataset(DATA_DIR / "cases_appendix.jsonl")
    singleton = Dataset(tuple(c for c in appendix.cases if c.case_id == "HRM04"))
    points = threshold_sweep(singleton, ruleset, P, 0.25, 0.75, 0.05)
    fired = {round(pt.theta, 2): pt.reports[P].fn_count == 0 for pt in points}
    for theta in (0.25, 0.30, 0.35, 0.40, 0.45):
        if not fired[theta]:
            problems.append(f"product chain 0.499 should fire at theta={theta}")
    for theta in (0.50, 0.55, 0.60, 0.65, 0.70, 0.75):
        if fired[theta]:
            problems.append(f"product chain 0.499 must not fire at theta={theta}")

    sweep = threshold_sweep(bench1035, ruleset, CANONICAL_KINDS, 0.25, 0.75, 0.05)
    for kind in CANONICAL_KINDS:
        fps = [pt.reports[kind].fp_count for pt in sweep]
        if any(a < b for a, b in zip(fps, fps[1:])):
            problems.append(f"{kind.value} fp_count not non-increasing: {fps}")
    _verdict(9, "threshold sweep transition and fp monotonicity", problems)
