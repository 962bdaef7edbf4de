"""Operator semantics: worked examples, algebraic laws, log-space chain."""

import math

import pytest
from hypothesis import given, strategies as st

from riskrules.benchmark import SplitMix64
from riskrules.tnorms import (
    LOG_ZERO,
    TNormKind,
    apply,
    fold_chain,
    fold_chain_log,
    unit_score,
)

ALL_KINDS = tuple(TNormKind)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_chains = st.lists(unit_floats, min_size=1, max_size=8)


def _uniform_pairs(count, seed=101):
    rng = SplitMix64(seed)
    return [(rng.random(), rng.random()) for _ in range(count)]


class TestApplyExamples:
    def test_lukasiewicz(self):
        assert apply(TNormKind.LUKASIEWICZ, 0.92, 0.58) == pytest.approx(0.50)
        assert apply(TNormKind.LUKASIEWICZ, 0.30, 0.40) == 0.0  # dead zone

    def test_goedel(self):
        assert apply(TNormKind.GOEDEL, 0.61, 0.93) == 0.61

    def test_product(self):
        assert apply(TNormKind.PRODUCT, 0.50, 0.50) == 0.25

    @pytest.mark.parametrize("kind, a, b, expected", [
        (TNormKind.GOEDEL, 0.0, -0.0, "0x0.0p+0"),  # a tie keeps the first operand
        (TNormKind.GOEDEL, -0.0, 0.0, "-0x0.0p+0"),
        (TNormKind.LUKASIEWICZ, 1.0, 0.30000000000000004, "0x1.3333333333334p-2"),
        (TNormKind.LUKASIEWICZ, 0.30000000000000004, 1.0, "0x1.3333333333334p-2"),
        (TNormKind.PRODUCT, -0.0, 0.5, "-0x0.0p+0"),
    ])
    def test_bit_pattern(self, kind, a, b, expected):
        assert apply(kind, a, b).hex() == expected

    def test_logproduct_equals_product(self):
        for a, b in _uniform_pairs(500):
            assert apply(TNormKind.LOGPRODUCT, a, b) == apply(TNormKind.PRODUCT, a, b)


class TestFoldExamples:
    def test_lukasiewicz_three_chain(self):
        assert fold_chain(TNormKind.LUKASIEWICZ, [0.93, 0.88, 0.61]) == pytest.approx(0.42)
        assert fold_chain(TNormKind.LUKASIEWICZ, [0.92, 0.58, 0.63]) == pytest.approx(0.13)

    def test_product_three_chain(self):
        assert fold_chain(TNormKind.PRODUCT, [0.93, 0.88, 0.61]) == pytest.approx(0.499, abs=5e-4)

    def test_goedel_three_chain(self):
        assert fold_chain(TNormKind.GOEDEL, [0.92, 0.58, 0.63]) == 0.58

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_element_unchanged(self, kind):
        assert fold_chain(kind, [0.375]) == 0.375

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_chain_rejected(self, kind):
        with pytest.raises(ValueError, match="empty condition chain"):
            fold_chain(kind, [])

    @pytest.mark.parametrize("kind", ["goedel", "g", None, 0, TNormKind])
    def test_non_member_rejected(self, kind):
        # Nothing but the four members folds: no other value reads as product.
        for call in (lambda: fold_chain(kind, [0.9, 0.8]), lambda: fold_chain(kind, [0.9]),
                     lambda: apply(kind, 0.9, 0.8)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"unknown t-norm {kind!r}"


class TestFoldLog:
    def test_ones(self):
        assert fold_chain_log([1.0, 1.0]) == 0.0

    def test_zero_factor_is_marker(self):
        assert fold_chain_log([0.5, 0.0, 0.9]) == LOG_ZERO
        assert math.exp(LOG_ZERO) == 0.0

    def test_against_direct_log_oracle(self):
        # independent oracle: ln of the directly computed product
        expected = math.log(0.93 * 0.88 * 0.61)
        assert fold_chain_log([0.93, 0.88, 0.61]) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty condition chain"):
            fold_chain_log([])

    def test_underflow_robustness(self):
        # 0.5^2000 underflows a double to exactly 0; the log path stays finite
        chain = [0.5] * 2000
        direct = 1.0
        for x in chain:
            direct *= x
        assert direct == 0.0
        lv = fold_chain_log(chain)
        assert math.isfinite(lv)
        assert lv == pytest.approx(2000 * math.log(0.5), rel=1e-12)

    @given(unit_chains)
    def test_positive_inputs_never_marker(self, chain):
        chain = [x if x > 0.0 else 0.5 for x in chain]
        assert fold_chain_log(chain) > LOG_ZERO

    def test_log_space_equivalence_random_chains(self):
        rng = SplitMix64(77)
        for _ in range(2000):
            n = 1 + rng.randrange(10)
            chain = [rng.uniform(1e-6, 1.0) for _ in range(n)]
            direct = fold_chain(TNormKind.PRODUCT, chain)
            assert abs(math.exp(fold_chain_log(chain)) - direct) <= 1e-9


class TestAxioms:
    @given(st.sampled_from(ALL_KINDS), unit_floats, unit_floats)
    def test_commutativity(self, kind, a, b):
        assert apply(kind, a, b) == apply(kind, b, a)

    @given(st.sampled_from(ALL_KINDS), unit_floats)
    def test_boundary(self, kind, x):
        assert apply(kind, 1.0, x) == x
        assert apply(kind, x, 1.0) == x
        assert apply(kind, 0.0, x) == 0.0

    @given(st.sampled_from(ALL_KINDS), unit_floats)
    def test_fold_boundary_bit_for_bit(self, kind, x):
        assert fold_chain(kind, [1.0, x]).hex() == x.hex()
        assert fold_chain(kind, [x, 1.0]).hex() == x.hex()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_is_the_identity_on_signed_zeros(self, kind):
        # unit_floats draws no -0.0, and a case file may score one.
        for x in (-0.0, 0.0):
            assert fold_chain(kind, [1.0, x]).hex() == x.hex()
            assert fold_chain(kind, [x, 1.0]).hex() == x.hex()

    @given(st.sampled_from(ALL_KINDS), unit_floats, unit_floats, unit_floats)
    def test_monotonicity(self, kind, a, a2, b):
        lo, hi = min(a, a2), max(a, a2)
        assert apply(kind, lo, b) <= apply(kind, hi, b)

    @given(st.sampled_from(ALL_KINDS), unit_chains)
    def test_chain_dominance(self, kind, chain):
        assert fold_chain(kind, chain) <= min(chain)

    @given(unit_chains)
    def test_goedel_fold_is_exact_min(self, chain):
        assert fold_chain(TNormKind.GOEDEL, chain) == min(chain)

    def test_associativity_randomized(self):
        rng = SplitMix64(303)
        for _ in range(5000):
            kind = ALL_KINDS[rng.randrange(4)]
            a, b, c = rng.random(), rng.random(), rng.random()
            left = apply(kind, apply(kind, a, b), c)
            right = apply(kind, a, apply(kind, b, c))
            assert abs(left - right) <= 1e-12

    def test_pointwise_ordering_randomized(self):
        # standard ordering: lukasiewicz <= product <= goedel
        for a, b in _uniform_pairs(20000, seed=505):
            tl = apply(TNormKind.LUKASIEWICZ, a, b)
            tp = apply(TNormKind.PRODUCT, a, b)
            tg = apply(TNormKind.GOEDEL, a, b)
            assert tl <= tp <= tg

    def test_left_fold_matches_iterated_apply(self):
        rng = SplitMix64(909)
        for _ in range(2000):
            kind = ALL_KINDS[rng.randrange(4)]
            chain = [rng.random() for _ in range(1 + rng.randrange(6))]
            acc = chain[0]
            for x in chain[1:]:
                acc = apply(kind, acc, x)
            assert fold_chain(kind, chain) == acc


class TestThresholdIdentity:
    def test_three_chain_lukasiewicz_identity_coarse_grid(self):
        # fold <= 0.5 iff a+b+c <= 2.5; integer grid arithmetic is the
        # ground truth, the fold is compared at 1e-12 to absorb the
        # ~4e-16 rounding of sums that land exactly on the boundary
        vals = [i / 20 for i in range(21)]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                for k, c in enumerate(vals):
                    fold = fold_chain(TNormKind.LUKASIEWICZ, [a, b, c])
                    assert (fold <= 0.5 + 1e-12) == (i + j + k <= 50)


class TestFoldIterables:
    chains = st.lists(st.sampled_from([0.0, -0.0, 1.0]) | unit_floats, min_size=1, max_size=8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(chain=chains)
    def test_iterator_fold_is_the_list_fold(self, kind, chain):
        folded = fold_chain(kind, map(float, chain))
        assert folded.hex() == fold_chain(kind, chain).hex()
        assert folded.hex() == fold_chain(kind, tuple(chain)).hex()

    @given(chain=chains)
    def test_iterator_log_fold_is_the_list_fold(self, chain):
        assert fold_chain_log(map(float, chain)).hex() == fold_chain_log(chain).hex()

    def test_empty_iterator_rejected_by_log_fold(self):
        with pytest.raises(ValueError, match="empty condition chain"):
            fold_chain_log(map(float, []))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_iterator_rejected(self, kind):
        with pytest.raises(ValueError, match="empty condition chain"):
            fold_chain(kind, map(float, []))
        with pytest.raises(ValueError, match="empty condition chain"):
            fold_chain(kind, iter(()))


class TestUnitScore:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 1e-9])
    def test_accepts(self, value):
        assert unit_score(value) == value

    @pytest.mark.parametrize("value", [-0.001, 1.0001, float("nan"), float("inf"), -1.0])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            unit_score(value)

    def test_error_names_the_score(self):
        with pytest.raises(ValueError) as err:
            unit_score(2.0)
        assert str(err.value) == "score must be a finite number in [0, 1], got 2.0"

    @pytest.mark.parametrize("value", ["0.5", b"1", True, False, None, [0.5], 0.5j])
    def test_rejects_what_is_not_a_number(self, value):
        # Before, float() took "0.5", b"1" and True.
        with pytest.raises(ValueError) as err:
            unit_score(value)
        assert str(err.value) == "score must be a number"

    @pytest.mark.parametrize("value,score", [(0, 0.0), (1, 1.0), (0.25, 0.25), (-0.0, -0.0)])
    def test_returns_a_float(self, value, score):
        result = unit_score(value)
        assert type(result) is float and math.copysign(1, result) == math.copysign(1, score)
        assert result == score
