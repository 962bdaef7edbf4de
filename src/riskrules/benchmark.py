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
byte-identical; ``_ARCHETYPES`` holds the score bands each kind of case
draws from. Expert labels come from :func:`reference_label`, a stand-in
for the published human annotations: the category of the most severe
rule whose live-rule Goedel chain, folded by
:func:`~riskrules.engine.rule_chain_scores`, is ``>= 0.55``. It encodes
the bottleneck reading that a condition at or above 0.55 is "present
enough" for an expert.

Generation is single-threaded on purpose; loaded datasets are immutable
and shareable across workers. Each case is one slotted, frozen
:class:`Case`: it keeps its scores in a plain dict, and ``case.scores``
is a read-only view of it. The batch pass in :mod:`riskrules.evaluation`
reads the dict behind the view, where the fold's dict fast paths apply.

Loading (:func:`load_dataset`) takes one JSON-Lines record at a time from
:func:`~riskrules.rules.read_lines`, the one reader of input files:
:func:`~riskrules.rules.decode_json` decodes it, and :func:`parse_case`,
the one record parser, checks it and builds the case. Score keys are
mapped onto the vocabulary's own strings, so a dataset holds one copy of
each term, not one per case. The decoder and the parser name no file;
the loader puts ``path:line: `` in front of a failed record's error.

Writing (:func:`dataset_to_jsonl`) joins the ``json.dumps`` lines a
bounded chunk at a time, so its peak is about twice its result. The
generator builds one description string per (archetype, rule), shared by
the cases that draw that pair.
"""

from __future__ import annotations

import json
import os
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

from riskrules.rules import (CATEGORY_ORDER, CONDITION_VOCABULARY, RiskCategory, RuleSet,
                             decode_json, default_ruleset, read_lines)
from riskrules.engine import rule_chain_scores
from riskrules.tnorms import TNormKind, unit_score


class DatasetValidationError(ValueError):
    """A dataset or case record failed validation."""


class CaseType(Enum):
    CLEAR = "clear"
    MARGINAL = "marginal"
    BORDERLINE = "borderline"


class Case:
    """One annotated case, immutable. ``scores`` is a read-only view
    (``types.MappingProxyType``) of the case's own copy of the mapping
    passed in, made on each read; the case holds only the plain dict.

    A case is one slotted object with no ``__dict__``. It compares equal
    to a case with equal fields and has no hash, since its scores are a
    mapping.
    """

    __slots__ = ("case_id", "description", "_scores", "expert_label", "case_type")
    __hash__ = None

    def __new__(cls, case_id: str, description: str, scores: Mapping[str, float],
                expert_label: RiskCategory, case_type: CaseType):
        return _case(case_id, description, dict(scores), expert_label, case_type)

    @property
    def scores(self) -> Mapping[str, float]:
        return MappingProxyType(self._scores)

    def _fields(self) -> tuple:
        return (self.case_id, self.description, self._scores, self.expert_label,
                self.case_type)

    def __eq__(self, other):
        if other.__class__ is not Case:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"Case(case_id={self.case_id!r}, description={self.description!r}, "
                f"scores={self._scores!r}, expert_label={self.expert_label!r}, "
                f"case_type={self.case_type!r})")

    def __reduce__(self):
        return (Case, self._fields())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_SET_ID, _SET_DESCRIPTION, _SET_SCORES, _SET_LABEL, _SET_TYPE = (
    getattr(Case, name).__set__ for name in Case.__slots__)


def _case(case_id: str, description: str, scores: dict, expert_label: RiskCategory,
          case_type: CaseType) -> Case:
    """A :class:`Case` that takes ``scores`` as its own, uncopied: for a
    dict its caller has just built and keeps no reference to. The slots
    are set past the frozen ``__setattr__``."""
    case = object.__new__(Case)
    _SET_ID(case, case_id)
    _SET_DESCRIPTION(case, description)
    _SET_SCORES(case, scores)
    _SET_LABEL(case, expert_label)
    _SET_TYPE(case, case_type)
    return case


@dataclass(frozen=True)
class Dataset:
    cases: tuple[Case, ...]


# ---------------------------------------------------------------------------
# Expert-label stand-in.

#: Minimum condition score at which the labeling oracle treats a
#: condition as legally present.
ORACLE_PRESENCE_THRESHOLD = 0.55


def reference_label(case_scores: Mapping[str, float], ruleset: RuleSet) -> RiskCategory:
    """Label a case by bottleneck reasoning over the rule base.

    Returns the category of the first rule of ``ruleset.ranked`` (most
    severe first) whose live-rule Goedel chain, from
    :func:`~riskrules.engine.rule_chain_scores`, is at least
    :data:`ORACLE_PRESENCE_THRESHOLD`, defaulting to minimal risk: every
    condition of that rule scores at least 0.55, and a rule with a
    condition the case does not score is not live, so it cannot win.
    """
    chains = rule_chain_scores(case_scores, ruleset, TNormKind.GOEDEL)
    for i, _, category in ruleset.ranked:
        if chains[i] >= ORACLE_PRESENCE_THRESHOLD:
            return category
    return RiskCategory.MINIMAL_RISK


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
                    f"case {case.case_id!a}: clear case has condition "
                    f"{offender[0]}={offender[1]:g} inside [0.12, 0.80]")
        elif case.case_type is CaseType.MARGINAL:
            if not any(0.12 <= v <= 0.65 for v in case.scores.values()):
                warnings.append(
                    f"case {case.case_id!a}: marginal case has no condition "
                    f"score inside [0.12, 0.65]")
    return warnings


# ---------------------------------------------------------------------------
# JSON-Lines dataset files.

_CASE_KEYS = frozenset({"case_id", "description", "case_type", "expert_label", "scores"})
#: Enum values -> members: the strings a record may name them by.
_CASE_TYPES = {t.value: t for t in CaseType}
_LABELS = {c.value: c for c in RiskCategory}


def _case_to_obj(case: Case) -> dict:
    return {
        "case_id": case.case_id,
        "description": case.description,
        "case_type": case.case_type.value,
        "expert_label": case.expert_label.value,
        "scores": case._scores,
    }


#: Lines per ``str.join`` in :func:`dataset_to_jsonl`: only one chunk's
#: list of lines, not every line's, sits beside the chunks joined so far.
_LINES_PER_CHUNK = 256


def dataset_to_jsonl(dataset: Dataset) -> str:
    """The dataset as JSON Lines: one ``json.dumps(record) + "\\n"`` per
    case, with the keys in the order ``case_id``, ``description``,
    ``case_type``, ``expert_label``, ``scores``. Lines are joined a
    bounded chunk at a time, so no list of every line sits beside the
    result.
    """
    cases = dataset.cases
    return "".join([
        "".join([json.dumps(_case_to_obj(c)) + "\n" for c in cases[i:i + _LINES_PER_CHUNK]])
        for i in range(0, len(cases), _LINES_PER_CHUNK)])


def _term_map(vocabulary: Iterable[str]) -> dict[str, str]:
    """``{term: term}`` over a vocabulary: a lookup that hands back the
    vocabulary's own string for any equal one."""
    return {term: term for term in vocabulary}


def parse_case(obj: dict, vocabulary: Iterable[str] | Mapping[str, str]) -> Case:
    """Validate one case record against the schema and vocabulary.

    ``vocabulary`` is a collection of condition terms, or a ``{term:
    term}`` dict of them as :func:`load_dataset` passes it, built once per
    file. The case's score keys are the vocabulary's own strings, so the
    cases of a dataset share one copy of each term. Errors name no file:
    the loader that read the record places them.
    """
    if type(obj) is not dict and not isinstance(obj, dict):
        raise DatasetValidationError("case records must be JSON objects")
    case_id = obj.get("case_id")
    if type(case_id) is not str and not isinstance(case_id, str) or not case_id:
        raise DatasetValidationError("missing or empty case_id")
    keys = obj.keys()
    if keys != _CASE_KEYS:  # a record with exactly the known keys needs no probe
        unknown = keys - _CASE_KEYS
        if unknown:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown field {sorted(unknown)[0]!r}")
        for key in ("description", "case_type", "expert_label", "scores"):
            if key not in obj:
                raise DatasetValidationError(f"case {case_id!r}: missing field {key!r}")
    description = obj["description"]
    if type(description) is not str and not isinstance(description, str):
        raise DatasetValidationError(f"case {case_id!r}: description must be a string")
    # Each table holds every member's string value, and no other JSON
    # value equals one.
    value = obj["case_type"]
    case_type = _CASE_TYPES.get(value) if type(value) is str else None
    if case_type is None:
        raise DatasetValidationError(f"case {case_id!r}: unknown case_type {value!r}")
    value = obj["expert_label"]
    label = _LABELS.get(value) if type(value) is str else None
    if label is None:
        raise DatasetValidationError(f"case {case_id!r}: unknown expert_label {value!r}")
    raw_scores = obj["scores"]
    if type(raw_scores) is not dict and not isinstance(raw_scores, dict) or not raw_scores:
        raise DatasetValidationError(f"case {case_id!r}: scores must be a non-empty object")
    terms = vocabulary if type(vocabulary) is dict else _term_map(vocabulary)
    scores: dict[str, float] = {}
    for cond, value in raw_scores.items():
        term = terms.get(cond)
        if term is None:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown condition {cond!r}")
        if type(value) is not float and (
                not isinstance(value, (int, float)) or isinstance(value, bool)):
            raise DatasetValidationError(
                f"case {case_id!r}: score for {cond!r} must be a number")
        try:
            scores[term] = unit_score(value)
        except ValueError as exc:
            # unit_score's message starts with "score".
            raise DatasetValidationError(
                f"case {case_id!r}: score for {cond!r}{str(exc).removeprefix('score')}"
            ) from None
    return _case(case_id, description, scores, label, case_type)


def load_dataset(path, vocabulary: Iterable[str] | None = None) -> Dataset:
    """Load and validate a JSON-Lines dataset.

    ``vocabulary`` defaults to the built-in condition vocabulary; pass
    ``ruleset.vocabulary`` when using a custom rule file.

    The file is UTF-8, read one line at a time by :func:`read_lines`:
    records end at LF, CRLF or CR only, and blank lines are skipped. Beyond
    the cases, memory is bounded by the longest line. A record's errors,
    a bad byte's too, start with ``path:line: ``; an ``OSError`` names the file.
    Errors name ``path`` as given, not normalised.
    """
    name = os.fsdecode(path)
    terms = _term_map(CONDITION_VOCABULARY if vocabulary is None else vocabulary)
    cases: list[Case] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(name, DatasetValidationError), start=1):
        if line.isspace():
            continue
        try:
            # Without its terminator, a JSON error's column is the line's.
            case = parse_case(decode_json(line.rstrip("\n"), DatasetValidationError), terms)
            if case.case_id in seen:
                raise DatasetValidationError(f"duplicate case_id {case.case_id!r}")
        except DatasetValidationError as exc:
            raise DatasetValidationError(f"{name}:{lineno}: {exc}") from None
        seen.add(case.case_id)
        cases.append(case)
    if not cases:
        raise DatasetValidationError(f"{name}: no cases")
    return Dataset(tuple(cases))


def load_case(path, vocabulary: Iterable[str] | None = None) -> Case:
    """Load a one-record JSON case file for classification, read through
    :func:`~riskrules.rules.read_lines`; errors start with its path."""
    name = os.fsdecode(path)
    terms = _term_map(CONDITION_VOCABULARY if vocabulary is None else vocabulary)
    text = "".join(read_lines(name, DatasetValidationError))
    try:
        obj = decode_json(text, DatasetValidationError)
        # Classification inputs may omit the benchmark-only fields.
        if isinstance(obj, dict):
            obj.setdefault("description", "")
            obj.setdefault("case_type", CaseType.MARGINAL.value)
            obj.setdefault("expert_label", RiskCategory.MINIMAL_RISK.value)
        return parse_case(obj, terms)
    except DatasetValidationError as exc:
        raise DatasetValidationError(f"{name}: {exc}") from None


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
#: The categories a clear-positive or borderline case targets, most severe first.
_POSITIVE = tuple(c for c in CATEGORY_ORDER if c is not RiskCategory.MINIMAL_RISK)
# Fraction of marginal cases whose weakest condition lands just above
# theta = 0.5, so min-semantics over-classifies them (about 0.8% of a
# full-size dataset, matching the observed false-positive mass).
_TRAP_FRACTION = 0.025

# Archetype -> (case type, description text, band of the one low
# condition or None, band of every other condition). Marginal low scores
# stop at 0.499 and borderline high scores at 0.92 so that, by
# construction, regular marginal cases never fire under min-semantics and
# borderline cases (three-condition sums capped at 2.49) never fire under
# the Lukasiewicz chain at theta = 0.5.
_ARCHETYPES = {
    "clear_pos": (CaseType.CLEAR, "clear positive", None, (0.82, 0.99)),
    "clear_neg": (CaseType.CLEAR, "clear negative", None, (0.01, 0.11)),
    "marginal": (CaseType.MARGINAL, "marginal", (0.12, 0.499), (0.70, 0.95)),
    "marginal_trap": (CaseType.MARGINAL, "marginal (weakest condition just above threshold)",
                      (0.501, 0.549), (0.70, 0.95)),
    "borderline": (CaseType.BORDERLINE, "borderline", (0.551, 0.65), (0.75, 0.92)),
}


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Apportion ``total`` proportionally to ``weights`` (deterministic)."""
    if total <= 0:
        return [0] * len(weights)
    wsum = sum(weights)
    shares = [total * w / wsum for w in weights]
    alloc = [int(s) for s in shares]
    leftovers = sorted(range(len(weights)),
                       key=lambda i: (-(shares[i] - alloc[i]), i))
    for i in range(total - sum(alloc)):
        alloc[leftovers[i % len(weights)]] += 1
    return alloc


def _slot_counts(n: int) -> list[tuple[str, RiskCategory | None, int]]:
    """How many of ``n`` cases get each (archetype, target category), in
    the unshuffled order; deterministic arithmetic. A category of None
    targets any rule."""
    n_marginal = _round_half_up(n * _TYPE_RATIO["marginal"])
    n_borderline = _round_half_up(n * _TYPE_RATIO["borderline"])
    n_clear = n - n_marginal - n_borderline

    label_counts = dict(zip(
        [cat for cat, _ in _LABEL_SHARES],
        _largest_remainder(n, [share for _, share in _LABEL_SHARES]),
    ))
    pos_counts = [label_counts[c] for c in _POSITIVE]
    # Each share is at most its label count and rounds by at most one, so
    # no category gets more borderline cases than it has labels.
    bord = _largest_remainder(n_borderline, [float(c) for c in pos_counts])

    clear_neg = min(n_clear, max(0, label_counts[RiskCategory.MINIMAL_RISK] - n_marginal))
    cp_weights = [float(max(0, pc - b)) for pc, b in zip(pos_counts, bord)]
    clear_pos = _largest_remainder(n_clear - clear_neg, cp_weights)
    n_trap = _round_half_up(n_marginal * _TRAP_FRACTION)
    return [*(("clear_pos", cat, k) for cat, k in zip(_POSITIVE, clear_pos)),
            ("clear_neg", None, clear_neg), ("marginal_trap", None, n_trap),
            ("marginal", None, n_marginal - n_trap),
            *(("borderline", cat, k) for cat, k in zip(_POSITIVE, bord))]


def _slots(n: int) -> list[tuple[str, RiskCategory | None]]:
    """The unshuffled (archetype, target category) of each of ``n`` cases."""
    slots: list[tuple[str, RiskCategory | None]] = []
    for archetype, cat, count in _slot_counts(n):
        slots += [(archetype, cat)] * count
    return slots


def generate_synthetic(n: int, seed: int, ruleset: RuleSet | None = None) -> Dataset:
    """Generate a deterministic synthetic benchmark of ``n`` cases.

    Equal (n, seed, ruleset) always produce identical datasets; ``seed``
    is a 64-bit unsigned integer. Each case draws scores for exactly one
    target rule; expert labels come from :func:`reference_label`.
    """
    if n < 4:
        raise ValueError(f"need at least 4 cases, got {n}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if ruleset is None:
        ruleset = default_ruleset()
    # Each category's rules in declared order; None draws from every rule.
    pools = {cat: tuple(r for r in ruleset.rules if r.category is cat) for cat in _POSITIVE}
    for cat in _POSITIVE:
        if not pools[cat] and any(target is cat and count for _, target, count in _slot_counts(n)):
            raise ValueError(f"ruleset has no {cat.value} rules; cannot generate "
                             "the fixed label composition")
    pools[None] = ruleset.rules

    slots = _slots(n)
    rng = SplitMix64(seed)
    rng.shuffle(slots)

    # One description string per (archetype text, rule), shared by the
    # cases that draw that pair.
    descriptions = {(text, rule.rule_id): f"Synthetic {text} case targeting rule {rule.rule_id}"
                    for _, text, _, _ in _ARCHETYPES.values() for rule in ruleset.rules}
    width = max(6, len(str(n)))
    cases = []
    for i, (archetype, cat) in enumerate(slots, start=1):
        case_type, text, low, rest = _ARCHETYPES[archetype]
        rule = rng.choice(pools[cat])
        low_at = rng.randrange(len(rule.conditions)) if low else -1
        scores = {c: rng.uniform(*(low if j == low_at else rest))
                  for j, c in enumerate(rule.conditions)}
        cases.append(_case(
            case_id=f"syn-{i:0{width}d}",
            description=descriptions[text, rule.rule_id],
            scores=scores,
            expert_label=reference_label(scores, ruleset),
            case_type=case_type,
        ))
    return Dataset(tuple(cases))
