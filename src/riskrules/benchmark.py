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
for the published human annotations: the engine's Goedel decision with
theta just below 0.55, so a rule counts when every condition scores
``>= 0.55``. It encodes the bottleneck reading that a condition at or
above 0.55 is "present enough" for an expert.

Generation is single-threaded on purpose; loaded datasets are immutable
and shareable across workers. Each case is a :class:`Case`, a slotted
record (see :class:`~riskrules.engine._Record`) built only by
``Case(...)``: it keeps its own copy of the scores in a plain dict, and
``case.scores`` is a read-only view of it. The batch pass in
:mod:`riskrules.evaluation` reads the dict behind the view, where the
fold's dict fast paths apply.

Loading (:func:`load_dataset`) takes one JSON-Lines record at a time from
:func:`~riskrules.rules.read_lines`, the reader of dataset files:
:func:`~riskrules.rules.decode_json` decodes it in one scan, the record
parser that :func:`parse_case` runs reads what the JSON alone tells, and
``Case(...)`` checks every field. Score keys are mapped onto the
vocabulary's own strings, so a dataset holds one copy of each term, not
one per case. The decoder, the parser and ``Case`` name no file; the
loader puts ``path:line: `` in front of a failed record's error. A case
file (:func:`load_case`) is one record, read whole by
:func:`~riskrules.rules.read_json`, which places its errors at ``path: ``.

Writing (:func:`dataset_to_jsonl`) writes each record's fixed layout
directly, the bytes ``json.dumps`` writes for it, as
:func:`~riskrules.engine.outcome_to_json` does for the proof trail;
``tests/test_benchmark.py::TestDatasetToJsonl`` holds the reference
record (``_case_to_obj``) and checks the writer against ``json.dumps``
on random cases. It joins the lines a bounded chunk at a time, so its
peak is about twice its result. The generator builds one description
string per (archetype, rule), shared by the cases that draw that pair.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from riskrules.rules import (CATEGORY_BY_NAME, CATEGORY_ORDER, CONDITION_VOCABULARY, RiskCategory,
                             RuleSet, _file_name, _require, _vocabulary, check_fields,
                             decode_json, default_ruleset, read_json, read_lines)
from riskrules.engine import _Record, _setters, _str, predicted_category, rule_chain_scores
from riskrules.tnorms import TNormKind, unit_score


class DatasetValidationError(ValueError):
    """A dataset or case record failed validation."""


class CaseType(Enum):
    CLEAR = "clear"
    MARGINAL = "marginal"
    BORDERLINE = "borderline"


@dataclass(frozen=True, init=False, repr=False)
class Case(_Record):
    """One annotated case, immutable; ``Case(...)`` is the only way to build
    one: ``__init__`` takes ``scores`` for the field ``_scores``, so
    ``dataclasses.replace`` raises TypeError. ``scores`` is a read-only view
    (``types.MappingProxyType``) of the case's own copy, made on each read.

    The constructor raises DatasetValidationError with the case file's
    message unless, in order: ``case_id`` is a non-empty ``str``,
    ``description`` a ``str``, ``case_type`` a :class:`CaseType`,
    ``expert_label`` a :class:`RiskCategory`, ``scores`` a non-empty
    mapping, and key by key a ``str`` whose score
    :func:`~riskrules.tnorms.unit_score` takes (stored as its float).
    Which conditions exist, :func:`parse_case` checks.

    A slotted record (see :class:`~riskrules.engine._Record`), with no
    hash, since its scores are a mapping.
    """

    __slots__ = ("case_id", "description", "_scores", "expert_label", "case_type")
    __hash__ = None

    case_id: str
    description: str
    _scores: dict[str, float]
    expert_label: RiskCategory
    case_type: CaseType

    def __init__(self, case_id, description, scores, expert_label, case_type):
        if not isinstance(case_id, str) or not case_id:
            raise DatasetValidationError("missing or empty case_id")
        if not isinstance(description, str):
            raise DatasetValidationError(f"case {case_id!r}: description must be a string")
        if type(case_type) is not CaseType:
            raise DatasetValidationError(f"case {case_id!r}: unknown case_type {case_type!r}")
        if type(expert_label) is not RiskCategory:
            raise DatasetValidationError(
                f"case {case_id!r}: unknown expert_label {expert_label!r}")
        # A dict needs no Mapping ABC check, the slow part of isinstance.
        if (type(scores) is not dict and not isinstance(scores, Mapping)) or not scores:
            raise DatasetValidationError(f"case {case_id!r}: scores must be a non-empty object")
        own = {}
        for cond, value in scores.items():
            if not isinstance(cond, str):
                raise DatasetValidationError(f"case {case_id!r}: unknown condition {cond!r}")
            try:
                own[cond] = unit_score(value)
            except ValueError as exc:
                # unit_score's message starts with "score".
                raise DatasetValidationError(
                    f"case {case_id!r}: score for {cond!r}{str(exc).removeprefix('score')}"
                ) from None
        # The slots are set past the frozen __setattr__.
        _SET_ID(self, case_id)
        _SET_DESCRIPTION(self, description)
        _SET_SCORES(self, own)
        _SET_LABEL(self, expert_label)
        _SET_TYPE(self, case_type)

    @property
    def scores(self) -> Mapping[str, float]:
        return MappingProxyType(self._scores)

    def __repr__(self) -> str:
        return (f"Case(case_id={self.case_id!r}, description={self.description!r}, "
                f"scores={self._scores!r}, expert_label={self.expert_label!r}, "
                f"case_type={self.case_type!r})")


_SET_ID, _SET_DESCRIPTION, _SET_SCORES, _SET_LABEL, _SET_TYPE = _setters(Case)


@dataclass(frozen=True)
class Dataset:
    """The cases of a benchmark: a tuple of :class:`Case`, which the
    constructor checks. The loader keeps case ids distinct, naming the line."""

    cases: tuple[Case, ...]

    def __post_init__(self):
        if not isinstance(self.cases, tuple):
            raise DatasetValidationError(
                f"dataset cases must be a tuple, got {type(self.cases).__name__}")
        for case in self.cases:
            if type(case) is not Case:
                raise DatasetValidationError(f"dataset cases must be Case objects, got {case!r}")


# ---------------------------------------------------------------------------
# Expert-label stand-in.

#: Minimum condition score at which the labeling oracle treats a
#: condition as legally present.
ORACLE_PRESENCE_THRESHOLD = 0.55


def reference_label(case_scores: Mapping[str, float], ruleset: RuleSet) -> RiskCategory:
    """Label a case by bottleneck reasoning over the rule base.

    The engine's Goedel decision with every theta just below
    :data:`ORACLE_PRESENCE_THRESHOLD` ("> nextafter(0.55, 0)" is
    ">= 0.55"): the category of the most severe rule whose conditions all
    score at least 0.55, or minimal risk. Labels and predictions share
    one decision function.
    """
    return predicted_category(ruleset, rule_chain_scores(case_scores, ruleset, TNormKind.GOEDEL),
                              math.nextafter(ORACLE_PRESENCE_THRESHOLD, 0.0))


# ---------------------------------------------------------------------------
# Case-type band checks (advisory).

def validate_case_types(dataset: Dataset) -> list[str]:
    """Warn about cases whose scores do not match their declared type.

    Clear cases must keep every score outside [0.12, 0.80]; marginal
    cases need at least one score inside [0.12, 0.65]. Borderline cases
    are expert-flagged and never warned about. Raises ValueError unless
    ``dataset`` is a :class:`Dataset`.
    """
    _require(dataset, Dataset, "dataset")
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
_CASE_REQUIRED = ("description", "case_type", "expert_label", "scores")
#: Enum values -> members: the strings a record may name them by.
_CASE_TYPES = {t.value: t for t in CaseType}


def _case_line(case: Case) -> str:
    # A Case holds only exact, finite floats, which json spells as repr does.
    scores = ", ".join([f"{_str(cond)}: {value!r}" for cond, value in case._scores.items()])
    return (f'{{"case_id": {_str(case.case_id)}, "description": {_str(case.description)}, '
            f'"case_type": "{case.case_type._value_}", '
            f'"expert_label": "{case.expert_label._value_}", "scores": {{{scores}}}}}\n')


#: Lines per ``str.join`` in :func:`dataset_to_jsonl`: only one chunk's
#: list of lines, not every line's, sits beside the chunks joined so far.
_LINES_PER_CHUNK = 256


def dataset_to_jsonl(dataset: Dataset) -> str:
    """The dataset as JSON Lines, one record per case, with the keys in
    the order ``case_id``, ``description``, ``case_type``,
    ``expert_label``, ``scores``. Each line is the layout of
    ``json.dumps(record) + "\\n"``, written directly; the parity test in
    ``tests/test_benchmark.py`` holds it to ``json.dumps``. Lines are
    joined a bounded chunk at a time, so no list of every line sits
    beside the result. Raises ValueError unless ``dataset`` is a
    :class:`Dataset`.
    """
    _require(dataset, Dataset, "dataset")
    cases = dataset.cases
    return "".join([
        "".join([_case_line(c) for c in cases[i:i + _LINES_PER_CHUNK]])
        for i in range(0, len(cases), _LINES_PER_CHUNK)])


def _term_map(vocabulary: Iterable[str]) -> dict[str, str]:
    """``{term: term}`` over a vocabulary, checked as :class:`RuleSet`
    checks one: a lookup that hands back the vocabulary's own string for
    any equal one."""
    return {term: term for term in _vocabulary(vocabulary)}


def parse_case(obj: dict, vocabulary: Iterable[str]) -> Case:
    """Check one case record against the schema and vocabulary, and build
    the case.

    ``vocabulary`` is a collection of condition terms (a dict reads as
    its keys), checked as :class:`~riskrules.rules.RuleSet` checks its
    own. The case's score keys are the vocabulary's own strings, so the
    cases of a dataset share one copy of each term. Errors name no file:
    the loader places them.
    """
    return _case_from_obj(obj, _term_map(vocabulary))


def _case_from_obj(obj: dict, terms: dict[str, str]) -> Case:
    # Only what the JSON tells: an object, its case_id, its keys, names
    # made members and conditions made terms; Case checks every field.
    if not isinstance(obj, dict):
        raise DatasetValidationError("case records must be JSON objects")
    case_id = obj.get("case_id")
    if not isinstance(case_id, str) or not case_id:
        raise DatasetValidationError("missing or empty case_id")
    if obj.keys() != _CASE_KEYS:  # a record with exactly the known keys needs no probe
        check_fields(obj, _CASE_KEYS, _CASE_REQUIRED, DatasetValidationError, "case", case_id)
    description, case_type, label = obj["description"], obj["case_type"], obj["expert_label"]
    if type(case_type) is str:
        case_type = _CASE_TYPES.get(case_type, case_type)
    if type(label) is str:
        label = CATEGORY_BY_NAME.get(label, label)
    raw_scores = obj["scores"]
    scores = {}  # anything but an object stays empty, and Case names it
    if isinstance(raw_scores, dict):
        for cond, value in raw_scores.items():
            term = terms.get(cond)
            if term is None:
                # Case names any fault before this one; a valid score stands in.
                scores[cond] = 0.0
                Case(case_id, description, scores, label, case_type)
                raise DatasetValidationError(f"case {case_id!r}: unknown condition {cond!r}")
            scores[term] = value
    return Case(case_id, description, scores, label, case_type)


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
    name = _file_name(path, DatasetValidationError)
    terms = _term_map(CONDITION_VOCABULARY if vocabulary is None else vocabulary)
    cases: list[Case] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(name, DatasetValidationError), start=1):
        if line.isspace():
            continue
        try:
            # Without its terminator, a JSON error's column is the line's.
            case = _case_from_obj(decode_json(line.rstrip("\n"), DatasetValidationError), terms)
            if case.case_id in seen:
                raise DatasetValidationError(f"duplicate case_id {case.case_id!r}")
        except DatasetValidationError as exc:
            raise DatasetValidationError(f"{name}:{lineno}: {exc}") from None
        seen.add(case.case_id)
        cases.append(case)
    if not cases:
        raise DatasetValidationError(f"{name}: no cases")
    return Dataset(tuple(cases))


#: The benchmark-only fields a case file may omit, and what they read as.
_CASE_FILE_DEFAULTS = {"description": "", "case_type": CaseType.MARGINAL.value,
                       "expert_label": RiskCategory.MINIMAL_RISK.value}


def load_case(path, vocabulary: Iterable[str] | None = None) -> Case:
    """Load a one-record JSON case file for classification.

    The file is read by :func:`~riskrules.rules.read_json`, so errors
    start with its path. Its record, merged over
    :data:`_CASE_FILE_DEFAULTS` (the benchmark-only fields it may omit),
    is read as a dataset record is. ``path`` is checked before
    ``vocabulary``, which reads as in :func:`load_dataset`.
    """
    name = _file_name(path, DatasetValidationError)
    terms = _term_map(CONDITION_VOCABULARY if vocabulary is None else vocabulary)
    return read_json(name, DatasetValidationError, lambda obj: _case_from_obj(
        {**_CASE_FILE_DEFAULTS, **obj} if isinstance(obj, dict) else obj, terms))


# ---------------------------------------------------------------------------
# Deterministic RNG: splitmix64. Chosen over the stdlib Mersenne Twister
# because the whole state is one 64-bit word and the update is trivially
# portable, which makes generated datasets reproducible anywhere.

_MASK64 = (1 << 64) - 1


def _check_int(name: str, value) -> None:
    """Reject ``value`` unless it is an ``int`` and not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


class SplitMix64:
    """splitmix64 sequence generator (Steele, Lea & Flood's mixing constants).

    ``seed`` is a 64-bit unsigned ``int``; anything else, a ``bool``
    included, raises ValueError naming it.
    """

    def __init__(self, seed: int):
        _check_int("seed", seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self._state = seed

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


def _slots(counts: list[tuple[str, RiskCategory | None, int]],
           ) -> list[tuple[str, RiskCategory | None]]:
    """The unshuffled (archetype, target category) of each counted case."""
    slots: list[tuple[str, RiskCategory | None]] = []
    for archetype, cat, count in counts:
        slots += [(archetype, cat)] * count
    return slots


def generate_synthetic(n: int, seed: int, ruleset: RuleSet | None = None) -> Dataset:
    """Generate a deterministic synthetic benchmark of ``n`` cases.

    Equal (n, seed, ruleset) always produce identical datasets; ``n`` and
    ``seed`` are ``int``s (not ``bool``s), ``seed`` is a 64-bit unsigned
    integer, and ``ruleset`` is a :class:`RuleSet` or None (the default
    rules). Each case draws scores for exactly one target rule; expert
    labels come from :func:`reference_label`. ValueError names, in order,
    an ``n`` or ``seed`` that is not an ``int``, an ``n`` below 4, a
    ``seed`` out of range (:class:`SplitMix64`'s check), then ``ruleset``.
    """
    _check_int("n", n)
    _check_int("seed", seed)
    if n < 4:
        raise ValueError(f"need at least 4 cases, got {n}")
    rng = SplitMix64(seed)
    if ruleset is None:
        ruleset = default_ruleset()
    _require(ruleset, RuleSet, "ruleset")
    # Each category's rules in declared order; None draws from every rule.
    pools = {cat: tuple(r for r in ruleset.rules if r.category is cat) for cat in _POSITIVE}
    counts = _slot_counts(n)
    for cat in _POSITIVE:
        if not pools[cat] and any(target is cat and count for _, target, count in counts):
            raise ValueError(f"ruleset has no {cat.value} rules; cannot generate "
                             "the fixed label composition")
    pools[None] = ruleset.rules

    slots = _slots(counts)
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
        # Positional: keywords would make type.__call__ build a dict per case.
        cases.append(Case(f"syn-{i:0{width}d}", descriptions[text, rule.rule_id], scores,
                          reference_label(scores, ruleset), case_type))
    return Dataset(tuple(cases))
