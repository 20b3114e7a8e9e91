import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistor_spectra.exact import (GammaPoleError, GammaQuotient,
                                   NonCommensurableError, evaluate_numeric,
                                   Tagged, format_rational, pq_classes, pq_numeric,
                                   pq_ratio, ratio_tagged, rational, reduce_exact,
                                   telescope)


def G(arg, exp=1):
    """Gamma(arg)**exp as a quotient."""
    return GammaQuotient(factors=((rational(arg), exp),))


def pochhammer(x, m):
    """Rising factorial x (x+1) ... (x+m-1), the reference for Gamma(x+m)/Gamma(x)."""
    out = Q(1)
    for t in range(m):
        out *= x + t
    return out


def exact_ratio(a, b):
    """The exact value of a finite ratio a/b."""
    tagged = ratio_tagged(a, b)
    assert tagged.kind == "finite"
    return tagged.value


class TestRationalHelpers:
    def test_parse_forms(self):
        assert rational("3/2") == Q(3, 2)
        assert rational("-7") == -7
        assert rational(Q(1, 3)) == Q(1, 3)

    def test_format(self):
        assert format_rational(Q(-3, 2)) == "-3/2"
        assert format_rational(Q(4, 2)) == "2"

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            rational("1/0")


class TestRatio:
    def test_two_functional_equation_steps(self):
        assert exact_ratio(G("7/2"), G("3/2")) == Q(15, 4)

    def test_identical_pole_factors_cancel(self):
        assert exact_ratio(G(-2), G(-2)) == 1

    def test_pole_pair_cancels_through_functional_equation(self):
        # Gamma(0)/Gamma(-1) -> -1 via Gamma(0) = (-1) Gamma(-1)
        assert exact_ratio(G(0), G(-1)) == -1

    def test_net_zero_reduces_to_exact_zero(self):
        tagged = ratio_tagged(G(1), G(0))
        assert tagged.kind == "zero" and tagged.value == 0 and tagged.order == 1

    def test_net_pole_is_tagged(self):
        # a pole's order is negative, as the kernels give it
        tagged = ratio_tagged(G(0) * G(-1), G(1) * G(2))
        assert tagged.kind == "pole" and tagged.order == -2
        assert tagged == Tagged(-2) and tagged.value == 0

    def test_render_has_one_form_per_kind(self):
        assert ratio_tagged(G("7/2"), G("1/2")).render() == "15/8"
        assert ratio_tagged(G(1), G(0)).render() == "0"
        assert ratio_tagged(G(0), G(1)).render() == "POLE"

    def test_non_integer_spacing_rejected(self):
        with pytest.raises(NonCommensurableError):
            ratio_tagged(G("1/3"), G("1/2"))

    def test_spectral_quotient_step(self):
        # hand reduction: the four-gamma quotients at (7/2, 7/2) and
        # (5/2, 5/2) with r = 3/2, s = +1 share three factor classes and
        # leave Gamma(9/2)Gamma(5/2)/Gamma(7/2)^2 = 7/5
        top = GammaQuotient.from_args(["9/2", "3/2"], ["7/2", "-1/2"], Q(1, 2))
        bottom = GammaQuotient.from_args(["7/2", "3/2"], ["5/2", "-1/2"], Q(1, 2))
        assert exact_ratio(top, bottom) == Q(7, 5)

    def test_prefactor_carries_through(self):
        a = GammaQuotient(Q(3), G("5/2").factors)
        b = GammaQuotient(Q(2), G("1/2").factors)
        assert exact_ratio(a, b) == Q(3, 2) * Q(3, 2) * Q(1, 2)

    @given(x=st.fractions(min_value=-10, max_value=10, max_denominator=12),
           m=st.integers(min_value=0, max_value=20))
    def test_pochhammer_identity(self, x, m):
        # a chain through a non-positive integer is a net zero, of value 0
        assert ratio_tagged(G(x + m), G(x)).value == pochhammer(x, m)

    @given(x=st.fractions(min_value=-6, max_value=6, max_denominator=8),
           y=st.fractions(min_value=-6, max_value=6, max_denominator=8),
           ka=st.integers(0, 8), kb=st.integers(0, 8), kc=st.integers(0, 8),
           la=st.integers(0, 8), lb=st.integers(0, 8), lc=st.integers(0, 8))
    def test_ratio_is_multiplicative(self, x, y, ka, kb, kc, la, lb, lc):
        a = G(x + ka) * G(y + la)
        b = G(x + kb) * G(y + lb)
        c = G(x + kc) * G(y + lc)
        t_ab, t_bc, t_ac = ratio_tagged(a, b), ratio_tagged(b, c), ratio_tagged(a, c)
        if all(t.kind == "finite" for t in (t_ab, t_bc, t_ac)):
            assert t_ab.value * t_bc.value == t_ac.value
        # net vanishing orders telescope even through poles and zeros
        assert t_ab.order + t_bc.order == t_ac.order


def per_argument_ratio(pq_a, pq_b):
    """(order, value) of the ratio of (p, q, exp) triples by the independent
    rule: every argument of a class walked down to the class's least one,
    one Gamma(x+1) = x Gamma(x) step at a time (the telescoping the running-
    exponent sweep replaced)."""
    classes = {}
    for p, q, exp in pq_a:
        classes.setdefault((p % q, q), []).append((p, exp))
    for p, q, exp in pq_b:
        classes.setdefault((p % q, q), []).append((p, -exp))
    order, num, den = 0, 1, 1
    for (_, q), items in classes.items():
        if sum(e for _, e in items):
            raise NonCommensurableError("unbalanced class")
        p0 = min(p for p, _ in items)
        for p, e in items:
            steps = (p - p0) // q
            prod, zeros = 1, 0
            for base in range(p0, p, q):
                if base == 0:
                    zeros += 1
                else:
                    prod *= base
            order += zeros * e
            if e > 0:
                num *= prod ** e
                den *= q ** (steps * e)
            else:
                num *= q ** (-steps * e)
                den *= prod ** -e
    return order, Q(num, den)


@st.composite
def balanced_classes(draw):
    """Two (p, q, exp) triple lists whose ratio balances class by class: some
    classes of one cluster, some of two clusters far apart, each cluster
    balanced on its own, near 0 (through poles and zeros) or not."""
    pq_a, pq_b = [], []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(1, 6))
        residue = draw(st.integers(0, q - 1))
        clusters = [draw(st.integers(-8, 8))]
        if draw(st.booleans()):
            clusters.append(clusters[0] + draw(st.integers(200, 2000)))
        for corner in clusters:
            items = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 3)),
                                  min_size=1, max_size=5))
            last = draw(st.integers(0, 8))
            items.append((last, -sum(e for _, e in items)))
            for k, e in items:
                p = residue + q * (corner + k)
                if draw(st.booleans()):
                    pq_a.append((p, q, e))
                else:
                    pq_b.append((p, q, -e))     # divided by, so negated
    return pq_a, pq_b


class TestTelescope:
    """pq_ratio's running-exponent sweep against the per-argument reference."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(balanced_classes())
    def test_matches_the_per_argument_reference(self, classes):
        pq_a, pq_b = classes
        order, value = per_argument_ratio(pq_a, pq_b)
        got = pq_ratio(pq_a, pq_b)
        assert got.order == order
        if not order:
            assert got.value == value

    def test_only_spans_that_do_not_cancel_give_factors(self):
        # Gamma(x+1)/Gamma(x) at x = 10**6 and at -10**6 + 1/2, one class with
        # q = 2: the running sum is 0 on the span between the clusters
        far = 10 ** 6
        items = [(2 * far + 2, 1), (-2 * far + 3, 1), (2 * far, -1), (-2 * far + 1, -1)]
        assert telescope(items, 2) == [(-2 * far + 1, 1), (2 * far, 1)]
        got = pq_ratio([(2 * far + 2, 2, 1), (-2 * far + 3, 2, 1)],
                       [(2 * far, 2, 1), (-2 * far + 1, 2, 1)])
        assert Q(got.num, got.den) == far * Q(-2 * far + 1, 2)

    def test_an_unbalanced_class_raises(self):
        with pytest.raises(NonCommensurableError):
            pq_ratio([(1, 2, 1), (5, 2, 1)], [(3, 2, 1)])


class TestGammaQuotient:
    def test_canonical_merge_and_flags(self):
        g = GammaQuotient(factors=[(Q(-3), 1), (Q(5, 2), 2), (Q(5, 2), -2), (Q(0), -1)])
        assert g.factors == ((Q(-3), 1), (Q(0), -1))
        assert g.is_pole and g.is_zero
        assert not G(-3, -1).is_pole and G(-3, -1).is_zero
        assert G(-3).is_pole and not G(-3).is_zero
        assert not G(Q(-5, 2)).is_pole and not G(Q(-5, 2), -1).is_zero

    @given(st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                              st.integers(min_value=-2, max_value=2)), max_size=12))
    def test_canonical_factors_sum_exponents_per_argument(self, factors):
        totals = {}
        for arg, exp in factors:
            totals[arg] = totals.get(arg, 0) + exp
        want = tuple(sorted((a, e) for a, e in totals.items() if e != 0))
        assert GammaQuotient(factors=factors).factors == want
        ints = [(int(a), e) for a, e in factors if a.denominator == 1]
        assert GammaQuotient(factors=ints).factors == \
            GammaQuotient(factors=[(Q(a), e) for a, e in ints]).factors

    def test_zero_prefactor_rejected(self):
        with pytest.raises(ValueError):
            GammaQuotient(prefactor=Q(0))

    def test_json_round_trip(self):
        # the block command's shared-factor field, read back by hand
        g = GammaQuotient.from_args(["5/2"], ["1/2", "-3/2"], Q(-2, 3))
        data = g.to_json()
        assert data["phase"] == 0
        back = GammaQuotient(rational(data["prefactor"]),
                             [(rational(f["arg"]), f["exp"]) for f in data["factors"]])
        assert back == g

    def test_reduce_exact(self):
        g = GammaQuotient.from_args(["9/2", "3"], ["5/2", "1"], Q(1, 7))
        out = reduce_exact(g)
        assert out.kind == "finite"
        assert out.value == Q(1, 7) * Q(7, 2) * Q(5, 2) * 2
        # in lowest terms with a positive denominator, as Tagged.reduced gives it
        assert out == Tagged(0, 5, 2) == Tagged(0, -10, -4).reduced()


class TestNumeric:
    def test_trivial_unit(self):
        g = GammaQuotient.from_args(["1/2", "1/2"], ["1/2", "1/2"])
        assert evaluate_numeric(g) == pytest.approx(1.0, rel=1e-12)

    def test_matches_exact_ratio(self):
        g = GammaQuotient.from_args(["7/2"], ["3/2"])
        assert evaluate_numeric(g) == pytest.approx(3.75, rel=1e-12)

    def test_negative_arguments(self):
        # Gamma(-1/2) = -2 sqrt(pi), Gamma(-3/2) = 4 sqrt(pi)/3: ratio -3/2...
        g = GammaQuotient.from_args(["-1/2"], ["-3/2"])
        assert reduce_exact(g).value == Q(-3, 2)
        assert evaluate_numeric(g) == pytest.approx(-1.5, rel=1e-12)

    def test_pole_raises_with_argument(self):
        with pytest.raises(GammaPoleError) as err:
            evaluate_numeric(G(-4))
        assert err.value.argument == Q(-4)

    def test_formal_zero_evaluates_to_zero(self):
        assert evaluate_numeric(G(0, exp=-1)) == 0.0

    def test_beyond_the_float_range_is_signed_inf(self):
        # Gamma(200) ~ 3.9e372; 1/Gamma(-401/2) is as large, and negative
        assert evaluate_numeric(GammaQuotient(Q(-1), G(200).factors)) == -math.inf
        assert evaluate_numeric(G("-401/2", exp=-1)) == -math.inf
        assert evaluate_numeric(G("-399/2", exp=-1)) == math.inf
        assert evaluate_numeric(G(200, exp=-1)) == 0.0

    @settings(max_examples=60)
    @given(x=st.fractions(min_value=Q(1, 4), max_value=8, max_denominator=8),
           k=st.integers(0, 10), m=st.integers(0, 10))
    def test_numeric_agrees_with_exact(self, x, k, m):
        a, b = G(x + k), G(x + m)
        approx = evaluate_numeric(a * G(x + m, exp=-1))
        assert approx == pytest.approx(float(exact_ratio(a, b)), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("side", [1, -1])
    def test_an_argument_whose_float_is_a_pole_reflects(self, n, side):
        # float(x) is -n exactly, x is not: Gamma(-n + d) = (-1)^n/(n! d) (1 + O(d))
        d = Q(side, 10 ** 20)
        x = -n + d
        assert float(x) == -n
        want = (-1) ** n / (math.factorial(n) * float(d))
        assert evaluate_numeric(G(x)) == pytest.approx(want, rel=1e-12)
        assert evaluate_numeric(G(x, exp=-1)) == pytest.approx(1 / want, rel=1e-12)

    def test_an_argument_past_two_to_the_53_takes_its_exact_sign(self):
        # every float there is an integer; |1/Gamma(x)| is beyond the float
        # range, and its sign is that of the integer cell holding x
        x = Q(-10 ** 20) + Q(1, 3)
        assert float(x) == float(x - 1) == -1e20
        assert evaluate_numeric(G(x, exp=-1)) == math.inf
        assert evaluate_numeric(G(x - 1, exp=-1)) == -math.inf
        assert evaluate_numeric(G(x)) == 0.0

    def test_an_argument_whose_float_underflows_reflects(self):
        # Gamma(d)/Gamma(2 d) -> 2 as d -> 0; float(d) is 0.0
        d = Q(1, 10 ** 400)
        assert evaluate_numeric(G(d) * G(2 * d, exp=-1)) == pytest.approx(2.0, rel=1e-12)

    def test_beyond_the_lgamma_range_is_inf(self):
        # lgamma overflows past about 2.5e305; |Gamma| is then beyond any float
        assert evaluate_numeric(G(10 ** 306)) == math.inf
        assert evaluate_numeric(G(10 ** 306, exp=-1)) == 0.0
        assert evaluate_numeric(G(Q(-10 ** 306) + Q(1, 2), exp=-1)) == math.inf
        with pytest.raises(OverflowError):      # inf - inf has no float to give
            evaluate_numeric(G(10 ** 306) * G(10 ** 306 + 1, exp=-1))

    def test_kernels_read_the_canonical_triples(self):
        g = GammaQuotient.from_args(["-7/2", "9/4", "2"], ["1/2", "-3/2"], Q(-2, 3))
        assert g._pq == ((-7, 2, 1), (-3, 2, -1), (1, 2, -1), (2, 1, 1), (9, 4, 1))
        assert pq_numeric(g.prefactor, g._pq) == evaluate_numeric(g)
        assert pq_classes(g._pq) == frozenset({((1, 2), -1), ((0, 1), 1), ((1, 4), 1)})
