"""T-norm conjunction operators on the closed unit interval.

Three canonical operators plus a log-space product variant:

* ``lukasiewicz`` -- max(0, a + b - 1); strong conjunction, jointly weak
  conditions drag the result to zero.
* ``product``     -- a * b; smooth multiplicative conjunction.
* ``goedel``      -- min(a, b); bottleneck conjunction, the weakest
  condition alone decides.
* ``logproduct``  -- decision-equivalent to ``product``; the genuinely
  log-space accumulation lives in :func:`fold_chain_log` and stays finite
  on chains long enough to underflow a direct product.

Chains fold left-associated, which fixes the floating-point bit pattern
of every result. :func:`fold_chain` holds the one definition of each
operator and :func:`apply` is its two-element chain, so the proof
trail's step-by-step fold and the batch path's fold cannot drift apart.
All functions here are pure and safe to call from any number of
concurrent workers. These are inference-time combinators only; nothing
is differentiable or trainable.

The Lukasiewicz operator short-circuits on an operand exactly equal to
1.0: ``1.0 + x`` can round away the low bit of ``x``, and the boundary
law T(1, x) = x must hold bit-for-bit. ``BACKEND`` names this, the one
implementation.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

BACKEND = "pure-python"

LOG_ZERO = float("-inf")


class TNormKind(enum.Enum):
    """Selectable conjunction operators. Values are the config/CLI names."""

    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"
    GOEDEL = "goedel"
    LOGPRODUCT = "logproduct"

    @classmethod
    def from_name(cls, name: str) -> "TNormKind":
        try:
            return cls(name)
        except ValueError:
            names = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown t-norm {name!r}; expected one of: {names}") from None


#: The three operators compared in benchmark runs (logproduct is a
#: numerical alias of product, not a fourth behaviour).
CANONICAL_KINDS = (TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.GOEDEL)

_LUKASIEWICZ = TNormKind.LUKASIEWICZ
_GOEDEL = TNormKind.GOEDEL


def unit_score(value: float) -> float:
    """Validate a confidence value and return it as a float in [0, 1].

    Raises ValueError for non-finite values or anything outside the
    closed interval. Dataset and case scores enter the system through
    this check; the operators below then assume validated inputs.
    """
    try:
        v = float(value)
    except OverflowError:  # an int too large for a double is out of range too
        v = math.inf
    if not 0.0 <= v <= 1.0:  # also rejects NaN, which fails every comparison
        raise ValueError(f"score must be a finite number in [0, 1], got {value!r}")
    return v


def apply(kind: TNormKind, a: float, b: float) -> float:
    """Combine two unit-interval scores with the selected t-norm: the
    two-element :func:`fold_chain`, which holds the one definition of each
    operator.

    ``logproduct`` returns exactly the same value as ``product``. Inputs
    are assumed validated (see :func:`unit_score`).
    """
    return fold_chain(kind, (a, b))


def fold_chain(kind: TNormKind, scores: Iterable[float]) -> float:
    """Left-associated t-norm fold over a non-empty score chain.

    ``scores`` may be any iterable. A single-element chain returns that
    element unchanged. An empty chain is rejected: a rule with no
    conditions has no meaning.
    """
    it = iter(scores)
    acc = next(it, None)
    if acc is None:
        raise ValueError("empty condition chain")
    if kind is _LUKASIEWICZ:
        for x in it:
            if acc == 1.0:
                acc = x
            elif x != 1.0:
                acc = acc + x - 1.0
                if acc < 0.0:
                    acc = 0.0
    elif kind is _GOEDEL:
        for x in it:
            if x < acc:  # a tie keeps the accumulator and its sign
                acc = x
    else:
        for x in it:
            acc = acc * x
    return acc


def fold_chain_log(scores: Iterable[float]) -> float:
    """Product chain accumulated in log space: the sum of natural logs.

    Returns :data:`LOG_ZERO` when any factor is exactly zero; exp() of
    the result matches ``fold_chain(PRODUCT, scores)`` up to rounding,
    while staying finite for long chains of strictly positive scores
    whose direct product would underflow. Like :func:`fold_chain`, it
    takes any iterable and rejects an empty one.
    """
    total = None
    for x in scores:
        if x == 0.0:
            return LOG_ZERO
        total = (0.0 if total is None else total) + math.log(x)
    if total is None:
        raise ValueError("empty condition chain")
    return total
