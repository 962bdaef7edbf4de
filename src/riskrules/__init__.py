"""riskrules: fuzzy-conjunction rule classification with auditable proof trails.

Classifies AI-system descriptions into EU AI Act risk categories by
folding condition confidences through a selectable t-norm conjunction
operator, and ships the benchmark and statistics harness used to compare
operator behaviour.
"""

from riskrules.benchmark import (
    Case,
    CaseType,
    Dataset,
    DatasetValidationError,
    SplitMix64,
    dataset_to_jsonl,
    generate_synthetic,
    load_case,
    load_dataset,
    reference_label,
    validate_case_types,
)
from riskrules.engine import (
    ClassificationOutcome,
    ProofStep,
    RuleScore,
    classify,
    classify_mixed,
    outcome_to_json,
    predicted_category,
    rule_chain_scores,
    score_rule,
)
from riskrules.evaluation import (
    EvalReport,
    McNemarResult,
    SweepPoint,
    build_report,
    compare_operators,
    comparison_to_json,
    evaluate,
    evaluate_mixed,
    mcnemar_exact,
    report_to_json,
    sweep_to_csv,
    threshold_sweep,
)
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
from riskrules.tnorms import (
    BACKEND,
    CANONICAL_KINDS,
    LOG_ZERO,
    TNormKind,
    apply,
    fold_chain,
    fold_chain_log,
    unit_score,
)

__version__ = "0.1.0"
