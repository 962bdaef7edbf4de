"""Pure-Python t-norm kernels.

The one implementation of the operators: :mod:`riskrules.tnorms` wraps
it for the scalar path, and the batch path in
:mod:`riskrules.evaluation` calls :func:`tnorm_fold` directly. Folds
take any non-empty iterable of validated scores.

The Lukasiewicz path short-circuits on an operand exactly equal to 1.0:
``1.0 + x`` can round away the low bit of ``x``, and the boundary law
T(1, x) = x must hold bit-for-bit.
"""

import math

LUKASIEWICZ = 0
PRODUCT = 1
GOEDEL = 2
LOGPRODUCT = 3

LOG_ZERO = float("-inf")


def tnorm_apply(kind: int, a: float, b: float) -> float:
    """Binary t-norm; ``kind`` is one of the module-level operator codes."""
    if kind == LUKASIEWICZ:
        if a == 1.0:
            return b
        if b == 1.0:
            return a
        t = a + b - 1.0
        return t if t > 0.0 else 0.0
    if kind == GOEDEL:
        return a if a < b else b
    # PRODUCT and LOGPRODUCT share the exact product value.
    return a * b


def tnorm_fold(kind: int, scores) -> float:
    """Left fold of the binary t-norm over a non-empty iterable of scores."""
    it = iter(scores)
    acc = next(it)
    if kind == LUKASIEWICZ:
        for x in it:
            if acc == 1.0:
                acc = x
            elif x != 1.0:
                acc = acc + x - 1.0
                if acc < 0.0:
                    acc = 0.0
    elif kind == GOEDEL:
        for x in it:
            if x < acc:
                acc = x
    else:
        for x in it:
            acc = acc * x
    return acc


def tnorm_fold_log(scores) -> float:
    """Sum of natural logs; ``LOG_ZERO`` marks an exact zero factor."""
    total = 0.0
    for x in scores:
        if x == 0.0:
            return LOG_ZERO
        total += math.log(x)
    return total
