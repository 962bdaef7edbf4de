"""Benchmark case model, JSON-Lines dataset format, synthetic generation.

A case carries a condition-score map, an expert label, and a case type:

* ``clear``      -- every score above 0.80 or below 0.12; sanity checks.
* ``marginal``   -- at least one score inside [0.12, 0.65]; these are the
  diagnostically interesting cases.
* ``borderline`` -- genuinely contested expert judgment; never flagged by
  the band validator.

The synthetic generator reproduces the published composition of the
benchmark (630 clear / 325 marginal / 80 borderline per 1035 cases,
label mass 32/28/27/13 across minimal/high/limited/prohibited) from a
documented portable RNG, so runs with equal (n, seed, ruleset) are
byte-identical. Expert labels come from :func:`reference_label`, a
min-score stand-in for the published human annotations: it encodes the
bottleneck reading that a condition at or above 0.55 is "present enough"
for an expert.

Generation is single-threaded on purpose; loaded datasets are immutable
(each case's ``scores`` is a read-only mapping) and shareable across
workers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from riskrules.rules import CATEGORY_ORDER, RiskCategory, Rule, RuleSet, default_ruleset
from riskrules.tnorms import unit_score


class DatasetValidationError(ValueError):
    """A dataset or case record failed validation."""


class CaseType(Enum):
    CLEAR = "clear"
    MARGINAL = "marginal"
    BORDERLINE = "borderline"


@dataclass(frozen=True)
class Case:
    """One annotated case. ``scores`` is a read-only copy of the mapping
    passed in, so a loaded case cannot be changed through it."""

    case_id: str
    description: str
    scores: Mapping[str, float]
    expert_label: RiskCategory
    case_type: CaseType

    def __post_init__(self):
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))

    def __reduce__(self):
        # A mappingproxy cannot be pickled; the constructor wraps the copy again.
        return (Case, (self.case_id, self.description, dict(self.scores),
                       self.expert_label, self.case_type))


@dataclass(frozen=True)
class Dataset:
    cases: tuple[Case, ...]
    provenance: str

    def __len__(self) -> int:
        return len(self.cases)


# ---------------------------------------------------------------------------
# Expert-label stand-in.

#: Minimum condition score at which the labeling oracle treats a
#: condition as legally present.
ORACLE_PRESENCE_THRESHOLD = 0.55


def reference_label(case_scores: Mapping[str, float], ruleset: RuleSet) -> RiskCategory:
    """Label a case by bottleneck reasoning over the rule base.

    Returns the category of the highest-severity rule whose every
    condition scores at least :data:`ORACLE_PRESENCE_THRESHOLD` (missing
    conditions count as 0), defaulting to minimal risk.
    """
    best = RiskCategory.MINIMAL_RISK
    for rule in ruleset.rules:
        if rule.category.severity <= best.severity:
            continue
        lowest = min(case_scores.get(c, 0.0) for c in rule.conditions)
        if lowest >= ORACLE_PRESENCE_THRESHOLD:
            best = rule.category
    return best


# ---------------------------------------------------------------------------
# Case-type band checks (advisory).

def validate_case_types(dataset: Dataset) -> list[str]:
    """Warn about cases whose scores do not match their declared type.

    Clear cases must keep every score outside [0.12, 0.80]; marginal
    cases need at least one score inside [0.12, 0.65]. Borderline cases
    are expert-flagged and never warned about.
    """
    warnings = []
    for case in dataset.cases:
        if case.case_type is CaseType.CLEAR:
            offender = next(
                ((c, v) for c, v in case.scores.items() if 0.12 <= v <= 0.80), None)
            if offender is not None:
                warnings.append(
                    f"case {case.case_id}: clear case has condition "
                    f"{offender[0]}={offender[1]:g} inside [0.12, 0.80]")
        elif case.case_type is CaseType.MARGINAL:
            if not any(0.12 <= v <= 0.65 for v in case.scores.values()):
                warnings.append(
                    f"case {case.case_id}: marginal case has no condition "
                    f"score inside [0.12, 0.65]")
    return warnings


# ---------------------------------------------------------------------------
# JSON-Lines dataset files.

_CASE_KEYS = frozenset({"case_id", "description", "case_type", "expert_label", "scores"})
#: Enum values -> members, for the common case of a well-formed record.
_CASE_TYPES = {t.value: t for t in CaseType}
_LABELS = {c.value: c for c in RiskCategory}


def _case_to_obj(case: Case) -> dict:
    return {
        "case_id": case.case_id,
        "description": case.description,
        "case_type": case.case_type.value,
        "expert_label": case.expert_label.value,
        "scores": dict(case.scores),
    }


def dataset_to_jsonl(dataset: Dataset) -> str:
    return "".join(json.dumps(_case_to_obj(c)) + "\n" for c in dataset.cases)


def save_dataset(dataset: Dataset, path) -> None:
    Path(path).write_text(dataset_to_jsonl(dataset), encoding="utf-8")


def _enum_field(table: dict, enum_cls, value, case_id: str, field: str):
    """The member named by a record field: string values through ``table``,
    anything else (and the error for an unknown value) through the Enum."""
    member = table.get(value) if type(value) is str else None
    if member is None:
        try:
            member = enum_cls(value)
        except ValueError:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown {field} {value!r}") from None
    return member


class _Unplaced(Exception):
    """A record error whose message the caller prefixes with the record's
    location, so the location text is built only when a record fails."""


def _parse_record(obj, vocabulary) -> Case:
    if not isinstance(obj, dict):
        raise _Unplaced("case records must be JSON objects")
    case_id = obj.get("case_id")
    if not isinstance(case_id, str) or not case_id:
        raise _Unplaced("missing or empty case_id")
    keys = obj.keys()
    if keys != _CASE_KEYS:  # a record with exactly the known keys needs no probe
        unknown = keys - _CASE_KEYS
        if unknown:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown field {sorted(unknown)[0]!r}")
        for key in ("description", "case_type", "expert_label", "scores"):
            if key not in obj:
                raise DatasetValidationError(f"case {case_id!r}: missing field {key!r}")
    if not isinstance(obj["description"], str):
        raise DatasetValidationError(f"case {case_id!r}: description must be a string")
    case_type = _enum_field(_CASE_TYPES, CaseType, obj["case_type"], case_id, "case_type")
    label = _enum_field(_LABELS, RiskCategory, obj["expert_label"], case_id, "expert_label")
    raw_scores = obj["scores"]
    if not isinstance(raw_scores, dict) or not raw_scores:
        raise DatasetValidationError(f"case {case_id!r}: scores must be a non-empty object")
    scores: dict[str, float] = {}
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
            # unit_score's message starts with its default label, "score".
            raise DatasetValidationError(
                f"case {case_id!r}: score for {cond!r}{str(exc).removeprefix('score')}"
            ) from None
    return Case(case_id, obj["description"], scores, label, case_type)


def parse_case(obj: dict, vocabulary: frozenset[str] | set[str],
               where: str = "<case>") -> Case:
    """Validate one case record against the schema and vocabulary."""
    try:
        return _parse_record(obj, vocabulary)
    except _Unplaced as exc:
        raise DatasetValidationError(f"{where}: {exc}") from None


#: The characters that undecodable bytes become under ``surrogateescape``.
#: Valid UTF-8 never decodes to a surrogate.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def load_dataset(path, vocabulary: Iterable[str] | None = None) -> Dataset:
    """Load and validate a JSON-Lines dataset.

    ``vocabulary`` defaults to the built-in condition vocabulary; pass
    ``ruleset.vocabulary`` when using a custom rule file.

    The file is UTF-8 and is read one line at a time: records end at LF,
    CRLF or CR only, and blank lines are skipped. Beyond the cases,
    memory is bounded by the longest line.
    """
    p = Path(path)
    vocab = frozenset(vocabulary) if vocabulary is not None else default_ruleset().vocabulary
    cases: list[Case] = []
    seen: set[str] = set()
    # surrogateescape keeps decoding going past a bad byte, so the error
    # below names the line it is on rather than a position in a read chunk.
    with open(p, encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            if line.isspace():
                continue
            # Without its terminator, a JSON error's column is the line's.
            line = line.rstrip("\n")
            if not line.isascii():
                bad = _ESCAPED_BYTE.search(line)
                if bad:
                    raise DatasetValidationError(
                        f"{p}:{lineno}: not valid UTF-8: byte "
                        f"0x{ord(bad.group()) - 0xDC00:02x} at column {bad.start() + 1}")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetValidationError(f"{p}:{lineno}: not valid JSON: {exc}") from None
            try:
                case = _parse_record(obj, vocab)
            except _Unplaced as exc:
                raise DatasetValidationError(f"{p}:{lineno}: {exc}") from None
            if case.case_id in seen:
                raise DatasetValidationError(f"{p}:{lineno}: duplicate case_id {case.case_id!r}")
            seen.add(case.case_id)
            cases.append(case)
    if not cases:
        raise DatasetValidationError(f"{p}: no cases")
    return Dataset(tuple(cases), provenance=str(p))


def load_case(path, vocabulary: Iterable[str] | None = None) -> Case:
    """Load a single case record (a one-object JSON file) for classification."""
    p = Path(path)
    vocab = frozenset(vocabulary) if vocabulary is not None else default_ruleset().vocabulary
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetValidationError(f"{p}: not valid JSON: {exc}") from None
    # Classification inputs may omit the benchmark-only fields.
    if isinstance(obj, dict):
        obj.setdefault("description", "")
        obj.setdefault("case_type", CaseType.MARGINAL.value)
        obj.setdefault("expert_label", RiskCategory.MINIMAL_RISK.value)
    return parse_case(obj, vocab, where=str(p))


# ---------------------------------------------------------------------------
# Deterministic RNG: splitmix64. Chosen over the stdlib Mersenne Twister
# because the whole state is one 64-bit word and the update is trivially
# portable, which makes generated datasets reproducible anywhere.

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 sequence generator (Steele, Lea & Flood's mixing constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_uint64()
            if r < limit:
                return r % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


# ---------------------------------------------------------------------------
# Synthetic generation.

# Fixed composition targets: case-type ratio and label mass.
_TYPE_RATIO = {"marginal": 325 / 1035, "borderline": 80 / 1035}  # remainder clear
_LABEL_SHARES = (
    (RiskCategory.MINIMAL_RISK, 0.32),
    (RiskCategory.HIGH_RISK, 0.28),
    (RiskCategory.LIMITED_RISK, 0.27),
    (RiskCategory.PROHIBITED, 0.13),
)
# Fraction of marginal cases whose weakest condition lands just above
# theta = 0.5, so min-semantics over-classifies them (about 0.8% of a
# full-size dataset, matching the observed false-positive mass).
_TRAP_FRACTION = 0.025

# Score recipes per archetype. Marginal low scores stop at 0.499 and
# borderline high scores at 0.92 so that, by construction, regular
# marginal cases never fire under min-semantics and borderline cases
# (three-condition sums capped at 2.49) never fire under the Lukasiewicz
# chain at theta = 0.5.
_CLEAR_POS_BAND = (0.82, 0.99)
_CLEAR_NEG_BAND = (0.01, 0.11)
_MARGINAL_LOW_BAND = (0.12, 0.499)
_TRAP_LOW_BAND = (0.501, 0.549)
_MARGINAL_REST_BAND = (0.70, 0.95)
_BORDERLINE_LOW_BAND = (0.551, 0.65)
_BORDERLINE_REST_BAND = (0.75, 0.92)


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Apportion ``total`` proportionally to ``weights`` (deterministic)."""
    if total <= 0:
        return [0] * len(weights)
    wsum = sum(weights)
    if wsum <= 0:
        alloc = [0] * len(weights)
        alloc[0] = total
        return alloc
    shares = [total * w / wsum for w in weights]
    alloc = [int(s) for s in shares]
    leftovers = sorted(range(len(weights)),
                       key=lambda i: (-(shares[i] - alloc[i]), i))
    for i in range(total - sum(alloc)):
        alloc[leftovers[i % len(weights)]] += 1
    return alloc


def _capped_apportion(total: int, weights: list[float], caps: list[int]) -> list[int]:
    alloc = _largest_remainder(total, weights)
    alloc = [min(a, c) for a, c in zip(alloc, caps)]
    deficit = total - sum(alloc)
    order = sorted(range(len(alloc)), key=lambda i: (-(caps[i] - alloc[i]), i))
    k = 0
    while deficit > 0 and any(alloc[i] < caps[i] for i in range(len(alloc))):
        i = order[k % len(order)]
        if alloc[i] < caps[i]:
            alloc[i] += 1
            deficit -= 1
        k += 1
    return alloc


def _composition(n: int) -> dict:
    """Slot counts per (case type, category); deterministic arithmetic."""
    n_marginal = _round_half_up(n * _TYPE_RATIO["marginal"])
    n_borderline = _round_half_up(n * _TYPE_RATIO["borderline"])
    n_clear = n - n_marginal - n_borderline
    if n_clear < 0:
        raise ValueError(f"cannot split {n} cases into the fixed type ratio")

    label_counts = dict(zip(
        [cat for cat, _ in _LABEL_SHARES],
        _largest_remainder(n, [share for _, share in _LABEL_SHARES]),
    ))
    positive = [c for c in CATEGORY_ORDER if c is not RiskCategory.MINIMAL_RISK]
    pos_counts = [label_counts[c] for c in positive]
    if n_borderline > sum(pos_counts):
        raise ValueError(f"cannot allocate {n_borderline} borderline cases "
                         f"against {sum(pos_counts)} positive labels")
    bord = _capped_apportion(n_borderline, [float(c) for c in pos_counts], pos_counts)

    clear_neg = min(n_clear, max(0, label_counts[RiskCategory.MINIMAL_RISK] - n_marginal))
    clear_pos_total = n_clear - clear_neg
    cp_weights = [float(max(0, pc - b)) for pc, b in zip(pos_counts, bord)]
    clear_pos = _largest_remainder(clear_pos_total, cp_weights)

    return {
        "n_marginal": n_marginal,
        "n_borderline": n_borderline,
        "n_trap": _round_half_up(n_marginal * _TRAP_FRACTION),
        "clear_neg": clear_neg,
        "clear_pos": dict(zip(positive, clear_pos)),
        "borderline": dict(zip(positive, bord)),
    }


def _draw_scores(rng: SplitMix64, rule: Rule, archetype: str) -> dict[str, float]:
    k = len(rule.conditions)
    if archetype == "clear_pos":
        return {c: rng.uniform(*_CLEAR_POS_BAND) for c in rule.conditions}
    if archetype == "clear_neg":
        return {c: rng.uniform(*_CLEAR_NEG_BAND) for c in rule.conditions}
    if archetype in ("marginal", "marginal_trap"):
        low_band = _TRAP_LOW_BAND if archetype == "marginal_trap" else _MARGINAL_LOW_BAND
        low_at = rng.randrange(k)
        return {
            c: rng.uniform(*(low_band if i == low_at else _MARGINAL_REST_BAND))
            for i, c in enumerate(rule.conditions)
        }
    low_at = rng.randrange(k)  # borderline
    return {
        c: rng.uniform(*(_BORDERLINE_LOW_BAND if i == low_at else _BORDERLINE_REST_BAND))
        for i, c in enumerate(rule.conditions)
    }


_ARCHETYPE_TEXT = {
    "clear_pos": "clear positive",
    "clear_neg": "clear negative",
    "marginal": "marginal",
    "marginal_trap": "marginal (weakest condition just above threshold)",
    "borderline": "borderline",
}


def generate_synthetic(n: int, seed: int, ruleset: RuleSet | None = None) -> Dataset:
    """Generate a deterministic synthetic benchmark of ``n`` cases.

    Equal (n, seed, ruleset) always produce identical datasets. Each case
    draws scores for exactly one target rule; expert labels come from
    :func:`reference_label`.
    """
    if n < 4:
        raise ValueError(f"need at least 4 cases, got {n}")
    if ruleset is None:
        ruleset = default_ruleset()
    comp = _composition(n)
    positive = [c for c in CATEGORY_ORDER if c is not RiskCategory.MINIMAL_RISK]
    for cat in positive:
        if (comp["clear_pos"][cat] or comp["borderline"][cat]) and not ruleset.rules_for(cat):
            raise ValueError(f"ruleset has no {cat.value} rules; cannot generate "
                             "the fixed label composition")

    slots: list[tuple[str, RiskCategory | None]] = []
    for cat in positive:
        slots += [("clear_pos", cat)] * comp["clear_pos"][cat]
    slots += [("clear_neg", None)] * comp["clear_neg"]
    slots += [("marginal_trap", None)] * comp["n_trap"]
    slots += [("marginal", None)] * (comp["n_marginal"] - comp["n_trap"])
    for cat in positive:
        slots += [("borderline", cat)] * comp["borderline"][cat]

    rng = SplitMix64(seed)
    rng.shuffle(slots)

    width = max(6, len(str(n)))
    cases = []
    for i, (archetype, cat) in enumerate(slots, start=1):
        pool = ruleset.rules_for(cat) if cat is not None else ruleset.rules
        rule = rng.choice(pool)
        scores = _draw_scores(rng, rule, archetype)
        label = reference_label(scores, ruleset)
        case_type = {
            "clear_pos": CaseType.CLEAR, "clear_neg": CaseType.CLEAR,
            "marginal": CaseType.MARGINAL, "marginal_trap": CaseType.MARGINAL,
            "borderline": CaseType.BORDERLINE,
        }[archetype]
        cases.append(Case(
            case_id=f"syn-{i:0{width}d}",
            description=f"Synthetic {_ARCHETYPE_TEXT[archetype]} case targeting rule {rule.rule_id}",
            scores=scores,
            expert_label=label,
            case_type=case_type,
        ))
    return Dataset(tuple(cases), provenance=f"generate_synthetic(n={n}, seed={seed})")
