"""Condition vocabulary, risk categories, conjunctive rules, rule files.

A rule is a conjunctive tuple: a risk category, an ordered list of
condition identifiers, and a firing threshold theta. The built-in rule
set formalises EU AI Act provisions; rule files use a small JSON format
(see :func:`load_ruleset`). Rule sets are immutable after construction
and safe to share across evaluation workers.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import re
from dataclasses import dataclass, field, fields


class RuleValidationError(ValueError):
    """A rule or rule file failed validation; the message names the culprit."""


@functools.total_ordering
class RiskCategory(enum.Enum):
    """Risk categories, declared from most to least severe; ``severity``
    is a member's distance from the end: 3 (prohibited) down to 0."""

    PROHIBITED = "prohibited"
    HIGH_RISK = "high_risk"
    LIMITED_RISK = "limited_risk"
    MINIMAL_RISK = "minimal_risk"

    def __lt__(self, other: object):
        if not isinstance(other, RiskCategory):
            return NotImplemented
        return self.severity < other.severity

#: Categories in descending severity, the enum's declaration order; the
#: fixed ordering used by reports. ``severity`` is a plain attribute, not
#: a property: decisions and report tallies read it once per case.
CATEGORY_ORDER = tuple(RiskCategory)
for _rank, _category in enumerate(reversed(CATEGORY_ORDER)):
    _category.severity = _rank
del _rank, _category
#: Category names -> members, for rule and dataset files. Only a str is
#: looked up: no other JSON value equals a name, and a list has no hash.
CATEGORY_BY_NAME = {c.value: c for c in RiskCategory}


class ConjunctionStandard(enum.Enum):
    """Which conjunction reading a rule takes in mixed-operator mode.

    ``STRONG`` rules demand joint confirmation of all conditions and map
    to the Lukasiewicz operator; ``BOTTLENECK`` rules only need every
    condition to clear the threshold individually and map to the Goedel
    operator.
    """

    STRONG = "strong"
    BOTTLENECK = "bottleneck"


_IDENT_RE = re.compile("[a-z][a-z_]*")
_STANDARDS = {s.value: s for s in ConjunctionStandard}


@dataclass(frozen=True)
class Rule:
    """Conjunctive rule: fires when the t-norm chain over its conditions
    strictly exceeds ``theta``.

    The constructor checks every field and raises RuleValidationError
    with the rule file's message. In order: a non-empty str ``rule_id``;
    a :class:`RiskCategory`; a list or tuple of str ``conditions``,
    stored as a tuple; an int or float ``theta``, not a bool, stored as a
    float (an int too large for a double reads as inf); ``standard`` None
    or a :class:`ConjunctionStandard`; a bool ``synthetic``; a str
    ``article``; then non-empty, distinct conditions and theta in (0, 1).
    """

    rule_id: str
    category: RiskCategory
    conditions: tuple[str, ...]
    theta: float = 0.5
    article: str = ""
    standard: ConjunctionStandard | None = None
    synthetic: bool = False

    def __post_init__(self):
        if not self.rule_id or not isinstance(self.rule_id, str):
            raise RuleValidationError("rule with empty rule_id" if self.rule_id == "" else
                                      f"rule_id must be a string, got {self.rule_id!r}")
        if type(self.category) is not RiskCategory:
            raise RuleValidationError(f"rule {self.rule_id!r}: unknown category {self.category!r}")
        if not isinstance(self.conditions, (list, tuple)) or not all(
                isinstance(c, str) for c in self.conditions):
            raise RuleValidationError(
                f"rule {self.rule_id!r}: conditions must be an array of strings")
        object.__setattr__(self, "conditions", conditions := tuple(self.conditions))
        if type(theta := self.theta) is not float:
            if not isinstance(theta, (int, float)) or isinstance(theta, bool):
                raise RuleValidationError(f"rule {self.rule_id!r}: theta must be a number")
            try:
                theta = float(theta)
            except OverflowError:  # an int too large for a double is out of range too
                theta = float("inf")
            object.__setattr__(self, "theta", theta)
        if self.standard is not None and type(self.standard) is not ConjunctionStandard:
            raise RuleValidationError(f"rule {self.rule_id!r}: unknown standard {self.standard!r}")
        if type(self.synthetic) is not bool:
            raise RuleValidationError(f"rule {self.rule_id!r}: synthetic must be a boolean")
        if not isinstance(self.article, str):
            raise RuleValidationError(f"rule {self.rule_id!r}: article must be a string")
        if not conditions:
            raise RuleValidationError(f"rule {self.rule_id!r}: empty condition list")
        if len(set(conditions)) != len(conditions):
            raise RuleValidationError(f"rule {self.rule_id!r}: duplicate condition")
        if not 0.0 < theta < 1.0:
            raise RuleValidationError(f"rule {self.rule_id!r}: theta out of range (0, 1): {theta}")


#: Most condition sets one rule set memoises in :meth:`RuleSet.live_rules`.
LIVE_MEMO_SIZE = 4096


def _vocabulary(terms) -> frozenset[str]:
    """``terms`` as a frozenset, if a collection of ``str`` and not itself
    one (a dict reads as its keys): RuleSet's check, which the case readers reuse."""
    try:
        vocabulary = None if isinstance(terms, str) else frozenset(terms)
    except TypeError:  # not iterable, or an unhashable item
        vocabulary = None
    if vocabulary is None or not all(isinstance(term, str) for term in vocabulary):
        raise RuleValidationError("vocabulary must be an array of strings")
    return vocabulary


@dataclass(frozen=True)
class RuleSet:
    """A closed vocabulary plus the rules defined over it.

    The constructor raises RuleValidationError with the rule file's
    message unless, in order: ``vocabulary`` is a collection of ``str``
    (see :func:`_vocabulary`), stored as a frozenset; ``rules`` is a list
    or tuple of :class:`Rule`, stored as a tuple; each term is a
    lowercase_underscore identifier; rule ids are distinct and every
    condition is in the vocabulary.
    """

    vocabulary: frozenset[str]
    rules: tuple[Rule, ...]
    #: (index, theta, category) of the rules that can win, those above the
    #: minimal-risk floor: most severe first, declared order within a severity.
    ranked: tuple = field(default=(), init=False, repr=False, compare=False)
    #: The theta every rule uses, or None if they differ (or there are none).
    shared_theta: float | None = field(default=None, init=False, repr=False, compare=False)
    _live: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vocabulary", _vocabulary(self.vocabulary))
        if not isinstance(self.rules, (list, tuple)):
            raise RuleValidationError("rules must be an array")
        for rule in self.rules:
            if type(rule) is not Rule:
                raise RuleValidationError(f"rules must hold only Rule objects, got {rule!r}")
        object.__setattr__(self, "rules", tuple(self.rules))
        for name in sorted(self.vocabulary):
            if not _IDENT_RE.fullmatch(name):
                raise RuleValidationError(
                    f"vocabulary term {name!r} is not a lowercase_underscore identifier")
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise RuleValidationError(f"duplicate rule_id {rule.rule_id!r}")
            for cond in rule.conditions:
                if cond not in self.vocabulary:
                    raise RuleValidationError(
                        f"rule {rule.rule_id!r}: unknown condition {cond!r}")
            seen.add(rule.rule_id)
        object.__setattr__(self, "ranked", tuple(sorted(
            ((i, r.theta, r.category) for i, r in enumerate(self.rules)
             if r.category is not RiskCategory.MINIMAL_RISK),
            key=lambda ranked: -ranked[2].severity)))
        thetas = {r.theta for r in self.rules}
        object.__setattr__(self, "shared_theta", thetas.pop() if len(thetas) == 1 else None)

    def live_rules(self, scored: frozenset[str]) -> tuple[int, ...]:
        """Indices of the rules whose conditions all appear in ``scored``.

        Only these rules can fire on a case that scores exactly ``scored``
        (see :func:`riskrules.engine.rule_chain_scores`). Memoised for the
        first :data:`LIVE_MEMO_SIZE` sets: a dataset repeats a few condition
        patterns many times, and the cap bounds what the rule set keeps.
        """
        live = self._live.get(scored)
        if live is None:
            live = tuple(i for i, r in enumerate(self.rules) if scored.issuperset(r.conditions))
            if len(self._live) < LIVE_MEMO_SIZE:
                self._live[scored] = live
        return live

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.rule_id == rule_id:
                return rule
        raise KeyError(f"no rule {rule_id!r}")


# The condition vocabulary has 22 terms. The final term,
# subliminal_technique, is reconstructed rather than taken from a
# published rule; see the synthetic-rule note below.
CONDITION_VOCABULARY: tuple[str, ...] = (
    "real_time_processing",
    "public_space",
    "biometric_identification",
    "public_authority",
    "evaluates_social_behavior",
    "detrimental_treatment",
    "employment_context",
    "recruitment_or_promotion",
    "automated_decision",
    "essential_service",
    "creditworthiness_or_insurance",
    "individual_assessment",
    "interacts_with_humans",
    "ai_generated_output",
    "not_clearly_disclosed",
    "critical_infrastructure",
    "safety_component",
    "autonomous_decision",
    "education_context",
    "determines_access",
    "affects_life_path",
    "subliminal_technique",
)


_DEFAULT_RULES = (
    Rule("prohibited_rt_biometric", RiskCategory.PROHIBITED,
         ("real_time_processing", "public_space", "biometric_identification"),
         article="Art. 5(1)(h)"),
    Rule("prohibited_social_scoring", RiskCategory.PROHIBITED,
         ("public_authority", "evaluates_social_behavior", "detrimental_treatment"),
         article="Art. 5(1)(c)"),
    Rule("prohibited_subliminal_manipulation", RiskCategory.PROHIBITED,
         ("subliminal_technique", "detrimental_treatment", "interacts_with_humans"),
         article="Art. 5(1)(a)", synthetic=True),
    Rule("high_risk_employment", RiskCategory.HIGH_RISK,
         ("employment_context", "recruitment_or_promotion", "automated_decision"),
         article="Annex III 4"),
    Rule("high_risk_credit", RiskCategory.HIGH_RISK,
         ("essential_service", "creditworthiness_or_insurance", "individual_assessment"),
         article="Annex III 5"),
    Rule("high_risk_critical_infrastructure", RiskCategory.HIGH_RISK,
         ("critical_infrastructure", "safety_component", "autonomous_decision"),
         article="Annex III 2"),
    Rule("high_risk_education", RiskCategory.HIGH_RISK,
         ("education_context", "determines_access", "affects_life_path"),
         article="Annex III 3"),
    Rule("high_risk_biometric_categorisation", RiskCategory.HIGH_RISK,
         ("biometric_identification", "individual_assessment", "automated_decision"),
         article="Annex III 1", synthetic=True),
    Rule("high_risk_essential_access", RiskCategory.HIGH_RISK,
         ("essential_service", "determines_access", "automated_decision"),
         article="Annex III 5", synthetic=True),
    Rule("high_risk_worker_monitoring", RiskCategory.HIGH_RISK,
         ("employment_context", "evaluates_social_behavior", "automated_decision"),
         article="Annex III 4", synthetic=True),
    Rule("limited_chatbot", RiskCategory.LIMITED_RISK,
         ("interacts_with_humans", "ai_generated_output", "not_clearly_disclosed"),
         article="Art. 50(1)"),
    Rule("limited_deepfake_content", RiskCategory.LIMITED_RISK,
         ("ai_generated_output", "public_space", "not_clearly_disclosed"),
         article="Art. 50(4)", synthetic=True),
    Rule("limited_biometric_notice", RiskCategory.LIMITED_RISK,
         ("biometric_identification", "interacts_with_humans", "not_clearly_disclosed"),
         article="Art. 50(3)", synthetic=True),
    Rule("limited_profiling_notice", RiskCategory.LIMITED_RISK,
         ("individual_assessment", "evaluates_social_behavior", "not_clearly_disclosed"),
         article="Art. 50", synthetic=True),
)


def default_ruleset() -> RuleSet:
    """The built-in 14-rule formalisation of selected EU AI Act provisions.

    Seven rules carry exact article citations; the seven marked ``synthetic``
    follow the same three-condition ALL-conjunction pattern to cover the
    remaining category mass and are labelled as reconstructions, not as
    authoritative readings of the Act. Every rule uses theta = 0.5. Each call
    returns a new ``RuleSet`` over the same ``Rule`` objects, built at import.
    """
    return RuleSet(frozenset(CONDITION_VOCABULARY), _DEFAULT_RULES)


# ---------------------------------------------------------------------------
# Rule file format: a JSON object with keys "vocabulary" and "rules".

_RULE_KEYS = frozenset(f.name for f in fields(Rule))  # a rule entry's keys are its fields
_RULE_REQUIRED = ("category", "conditions", "theta")


def ruleset_to_json(ruleset: RuleSet) -> str:
    """Serialize deterministically: sorted vocabulary, rules in stored order."""
    doc = {
        "vocabulary": sorted(ruleset.vocabulary),
        "rules": [_rule_to_obj(r) for r in ruleset.rules],
    }
    return json.dumps(doc, indent=2) + "\n"


def _rule_to_obj(rule: Rule) -> dict:
    obj = {
        "rule_id": rule.rule_id,
        "category": rule.category.value,
        "conditions": list(rule.conditions),
        "theta": rule.theta,
        "article": rule.article,
    }
    if rule.standard is not None:
        obj["standard"] = rule.standard.value
    if rule.synthetic:
        obj["synthetic"] = True
    return obj


def parse_ruleset(text: str) -> RuleSet:
    """The rule set a rule file's text holds: the text decoded by
    :func:`decode_json`, then read by :func:`_ruleset_from_obj`, the reader
    :func:`load_ruleset` passes to :func:`read_json`. Errors name no file."""
    return _ruleset_from_obj(decode_json(text, RuleValidationError))


def _ruleset_from_obj(doc) -> RuleSet:
    """The rule set a rule file's decoded value holds. Checks only what
    the JSON alone tells (an object with both keys, a vocabulary that is
    not an object, each entry as :func:`_rule_from_obj` reads it); RuleSet
    checks the rest. The vocabulary is read by :func:`_vocabulary` before
    the entries, so a bad vocabulary is named before a bad entry."""
    if not isinstance(doc, dict):
        raise RuleValidationError("expected a JSON object")
    for key in ("vocabulary", "rules"):
        if key not in doc:
            raise RuleValidationError(f"missing top-level key {key!r}")
    vocabulary, rules = doc["vocabulary"], doc["rules"]
    if isinstance(vocabulary, dict):  # RuleSet would read an object as its keys
        raise RuleValidationError("vocabulary must be an array of strings")
    vocabulary = _vocabulary(vocabulary)
    if isinstance(rules, list):  # anything else, RuleSet names
        rules = [_rule_from_obj(obj) for obj in rules]
    return RuleSet(vocabulary, rules)


def _rule_from_obj(obj: dict) -> Rule:
    # Only what the JSON tells; names become members, and Rule checks every field.
    if not isinstance(obj, dict):
        raise RuleValidationError("rule entries must be JSON objects")
    rule_id = obj.get("rule_id")
    if not isinstance(rule_id, str) or not rule_id:
        raise RuleValidationError("rule with missing or empty rule_id")
    check_fields(obj, _RULE_KEYS, _RULE_REQUIRED, RuleValidationError, "rule", rule_id)
    category, standard = obj["category"], obj.get("standard")
    if standard is None and "standard" in obj:  # Rule reads None as "no standard"
        raise RuleValidationError(f"rule {rule_id!r}: unknown standard None")
    if type(category) is str:
        category = CATEGORY_BY_NAME.get(category, category)
    if type(standard) is str:
        standard = _STANDARDS.get(standard, standard)
    return Rule(rule_id, category, obj["conditions"], obj["theta"], obj.get("article", ""),
                standard, obj.get("synthetic", False))


def check_fields(obj: dict, known, required, error: type[ValueError], kind: str, name: str):
    """Raise ``error`` for the first key of ``obj`` outside ``known`` in sorted order
    (``<kind> '<name>': unknown field 'k'``), then the first ``required`` one it lacks."""
    unknown = obj.keys() - known
    if unknown:
        raise error(f"{kind} {name!r}: unknown field {sorted(unknown)[0]!r}")
    for key in required:
        if key not in obj:
            raise error(f"{kind} {name!r}: missing field {key!r}")


def _require(value, cls: type, name: str) -> None:
    """Reject an argument ``name`` that is not a ``cls`` with ValueError,
    which names the argument and the type it got: the check an entry
    point makes once, before it reads any case."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def load_ruleset(path) -> RuleSet:
    """Load and validate a rule file: :func:`read_json` runs
    :func:`_ruleset_from_obj` on its value, so errors start with its path
    and name the rule and field."""
    return read_json(_file_name(path, RuleValidationError), RuleValidationError, _ruleset_from_obj)


def read_json(name: str, error: type[ValueError], build):
    """``build(value)`` for the one JSON value a whole file holds: the one
    reader of rule and case files. The file is read by :func:`read_lines`
    and decoded by :func:`decode_json`; an ``error`` from the decoder or
    from ``build`` gets ``name: `` in front (a bad byte's error already
    names the file and line). ``name`` is a loader's checked path, from
    :func:`_file_name`."""
    text = "".join(read_lines(name, error))
    try:
        return build(decode_json(text, error))
    except error as exc:
        raise error(f"{name}: {exc}") from None


#: The default decoder's scanner, without ``json.loads``' checks around it.
_raw_decode = json.JSONDecoder().raw_decode


def decode_json(text: str, error: type[ValueError]):
    """``json.loads(text)``; text that is not JSON raises ``error``, naming
    no file (its loader places it). That covers an integer literal too long
    to convert, nesting too deep for the decoder, and a ``text`` that is
    not a ``str``, ``bytes`` or ``bytearray``.

    The common case, one value that starts the text and is followed by
    JSON whitespace at most (a file's last newline), takes one
    ``raw_decode`` scan. Anything else (leading whitespace, a BOM, extra
    data, an error) goes through ``json.loads``, so values and messages
    are exactly its own.
    """
    try:
        value, end = _raw_decode(text)
        if end == len(text) or json.decoder.WHITESPACE.match(text, end).end() == len(text):
            return value
    except (ValueError, RecursionError, TypeError):  # TypeError: bytes, which json.loads takes
        pass
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"not valid JSON: {exc}") from None
    except TypeError:  # neither str, bytes nor bytearray
        raise error(f"not valid JSON: expected text, got {text!r}") from None


#: What undecodable bytes become under ``surrogateescape``; valid UTF-8
#: never decodes to a surrogate.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _file_name(path, error: type[ValueError]) -> str:
    """``path`` as a loader names it: a ``str``, ``bytes`` or
    ``os.PathLike`` through ``os.fsdecode``. Anything else, an int (which
    ``open`` reads as a file descriptor) included, raises ``error``, and
    so does a name holding a NUL character, which no file has."""
    try:
        name = os.fsdecode(path)
    except TypeError:
        raise error(f"path must be a str, bytes or os.PathLike, got {path!r}") from None
    if "\0" in name:
        raise error(f"path must not hold a NUL character, got {name!r}")
    return name


def read_lines(path, error: type[ValueError]):
    """Each line of a UTF-8 text file with its terminator, as a text-mode
    ``open`` yields it: LF, CRLF and CR each end a line and read as LF.
    The only reader of input files: :func:`read_json` joins the lines of a
    rule or case file, and the dataset loader takes one line at a time.
    A byte that is not UTF-8 raises ``error`` naming the file, line and
    column; an unreadable file raises the ``OSError`` itself."""
    with open(path, encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.isascii() and (bad := _ESCAPED_BYTE.search(line)):
                raise error(f"{path}:{lineno}: not valid UTF-8: byte "
                            f"0x{ord(bad.group()) - 0xDC00:02x} at column {bad.start() + 1}")
            yield line
