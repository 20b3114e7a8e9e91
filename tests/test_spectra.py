import contextlib
import itertools
import math
from fractions import Fraction as Q

import pytest
from conftest import dirac_l_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistor_spectra import faults, spectra, verify
from twistor_spectra.operators import d_block
from twistor_spectra.exact import (GammaPoleError, GammaQuotient,
                                   NonCommensurableError, evaluate_numeric, format_ratio,
                                   pq_numeric, ratio_tagged, reduce_exact)
from twistor_spectra.ktypes import (DIRECTIONS, Direction, KType, Labels, Params,
                                    enumerate_ktypes, f2_range, label_dirac, label_scale,
                                    make_ktype, partner_keys, window_keys)
from twistor_spectra.spectra import (SPECTRUM_COLUMNS, InconsistentSystemError,
                                     SingularCoefficientError, Tagged, block2x2,
                                     block_coefficients, calibrate_L, exchanged_rs_eigenvalue,
                                     mult1_quotient_matrix,
                                     mult2_det_quotient_matrix,
                                     mult2_gamma_product, first_order_block,
                                     spectrum_rows, w_terms, z_for, z_forms, z_product, z_ratio,
                                     z_terms, z_value)

P4H = Params(4, Q(1, 2))


def closed_form_half(f, J, s):
    return -Q(1, 4) * (f - s * J)


def pochhammer(x, k):
    """(x)_k for an integer k; None where a reciprocal factor (k < 0) vanishes."""
    if k >= 0:
        return math.prod((x + i for i in range(k)), start=Q(1))
    den = math.prod((x + i for i in range(k, 0)), start=Q(1))
    return None if den == 0 else 1 / den


class TestZValue:
    def test_half_integer_orders_are_finite_products(self):
        # z(r; f, J, s) = (s/2) (a)_{r-s/2} (b)_{r+s/2}; at r = 1/2 - k the
        # indices are negative and z is the reciprocal of a product
        kinds = set()
        for r, n, lattice in itertools.product(
                (Q(1, 2), Q(3, 2), Q(5, 2), Q(7, 2), Q(-1, 2), Q(-3, 2)), (4, 6, 8),
                ("half", "int")):
            params = Params(n, r, lattice)
            fs = [Q(k, 2) for k in f2_range(params, Q(-9, 2), Q(9, 2))]
            for f, j, s in itertools.product(fs, (Q(1, 2) + i for i in range(5)), (1, -1)):
                J = j + Q(n - 2, 2)
                a = (2*f + 2*J - 2*r + 2 + s) / 4
                b = (-2*f + 2*J - 2*r + 2 - s) / 4
                pa, pb = pochhammer(a, int(r - Q(s, 2))), pochhammer(b, int(r + Q(s, 2)))
                out = reduce_exact(z_value(params, f, J, s))
                kinds.add(out.kind)
                if pa is None or pb is None:
                    assert out.kind == "pole", (params, f, J, s)
                else:
                    want = Q(s, 2) * pa * pb
                    assert out.kind == ("zero" if want == 0 else "finite")
                    assert out.value == want, (params, f, J, s)
        assert kinds == {"finite", "zero", "pole"}

    def test_order_one_closed_form_samples(self):
        for n in (4, 6, 8):
            params = Params(n, Q(1, 2))
            for f in (Q(-7, 2), Q(-1, 2), Q(5, 2)):
                for j in (Q(1, 2), Q(5, 2)):
                    J = j + Q(n - 2, 2)
                    for s in (1, -1):
                        out = reduce_exact(z_value(params, f, J, s))
                        want = closed_form_half(f, J, s)
                        if out.kind == "zero":
                            assert want == 0
                        else:
                            assert out.kind == "finite" and out.value == want

    def test_frozen_example(self):
        out = reduce_exact(z_value(P4H, Q(5, 2), Q(3, 2), 1))
        assert out.kind == "finite" and out.value == Q(-1, 4)

    @pytest.mark.parametrize("fn", [z_value, mult2_gamma_product])
    def test_xi_eps_must_be_a_sign(self, fn):
        with pytest.raises(ValueError, match="xi_eps must be"):
            fn(P4H, Q(5, 2), Q(3, 2), 0)

    def test_kernel_line_is_a_formal_zero(self):
        out = reduce_exact(z_value(P4H, Q(5, 2), Q(5, 2), 1))
        assert out.kind == "zero"
        assert closed_form_half(Q(5, 2), Q(5, 2), 1) == 0

    def test_reflection_negates(self):
        # f -> -f, s -> -s swaps the two numerator (and denominator) factor
        # sets but flips the prefactor sign
        params = Params(6, Q(7, 3))
        a = z_value(params, Q(3, 2), Q(9, 2), 1)
        b = z_value(params, Q(-3, 2), Q(9, 2), -1)
        assert {arg for arg, _ in a.factors} == {arg for arg, _ in b.factors}
        got = ratio_tagged(a, b)
        assert got.kind == "finite" and got.value == -1

    def test_order_reversal_product(self):
        # z(r; f, J, s) * z(-r; f, J, -s) = -1/4: the gamma sets swap exactly
        pa = Params(4, Q(5, 2))
        pb = Params(4, Q(-5, 2))
        prod = z_value(pa, Q(3, 2), Q(7, 2), 1) * z_value(pb, Q(3, 2), Q(7, 2), -1)
        out = reduce_exact(prod)
        assert out.kind == "finite" and out.value == Q(-1, 4)


def eight_gamma_reference(r, f, J, s):
    """The eight-argument quotient as displayed, written out in full."""
    sh = Q(s, 2)
    num, den = [], []
    for JJ in (J, J + 2):
        num += [(f + JJ + r - sh) / 2, (-f + JJ + r + sh) / 2]
        den += [(f + JJ - r + sh) / 2, (-f + JJ - r - sh) / 2]
    return GammaQuotient.from_args(num, den, prefactor=Q(1, 4))


class TestMult2GammaProduct:
    def test_matches_the_displayed_eight_gamma_quotient(self):
        rs = [Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3), Q(0), Q(-3, 2), Q(3, 4)]
        checked = 0
        for n in (4, 6, 8):
            for r in rs:
                for lattice, offset in (("half", Q(1, 2)), ("int", Q(0))):
                    params = Params(n, r, lattice)
                    for k in range(-10, 10):
                        f = k + offset
                        for j2 in range(1, 12, 2):       # j = 1/2, ..., 11/2
                            J = Q(j2, 2) + Q(n - 2, 2)
                            for s in (1, -1):
                                assert mult2_gamma_product(params, f, J, s) == \
                                    eight_gamma_reference(r, f, J, s)
                                checked += 1
        assert checked == 3 * 8 * 2 * 20 * 6 * 2

    def test_order_reversal_product(self):
        pa, pb = Params(4, Q(3, 2)), Params(4, Q(-3, 2))
        prod = mult2_gamma_product(pa, Q(1, 2), Q(5, 2), 1) * \
            mult2_gamma_product(pb, Q(1, 2), Q(5, 2), -1)
        out = reduce_exact(prod)
        assert out.kind == "finite" and out.value == Q(1, 16)

    def test_top_right_ratio_two_routes(self):
        # the exact product ratio and the determinant-quotient entry must
        # give one value; at this configuration both give 15/7
        params = Params(4, Q(1))
        target = mult2_gamma_product(params, Q(3, 2), Q(5, 2), 1)
        center = mult2_gamma_product(params, Q(1, 2), Q(3, 2), 1)
        got = ratio_tagged(target, center)
        assert got.kind == "finite" and got.value == Q(15, 7)
        kt = make_ktype(params, 1, Q(1, 2), Q(1, 2), 0, 1)
        entry = mult2_det_quotient_matrix(params, kt).get((1, 1))
        assert entry.value == Q(15, 7)


def gamma_reference(params, terms, scale=1):
    """ratio_tagged on the gamma quotients of prod z(r; F/scale, J/scale, s)**e."""
    num = den = GammaQuotient()
    for F, J, s, e in terms:
        f, J = Q(F, scale), Q(J, scale)
        for _ in range(abs(e)):
            if e > 0:
                num = num * z_value(params, f, J, s)
            else:
                den = den * z_value(params, f, J, s)
    return ratio_tagged(num, den)


# the acceptance grid, r off it, and r in Z + 1/2, where the numerator and
# denominator gamma classes of z coincide mod 1
R_DRAWS = [Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3),
           Q(0), Q(-3, 2), Q(3, 4), Q(1, 3), Q(-1, 2), Q(7, 2)]


def shape_calls(labels, shape, center):
    """The (terms) the suites hand to z_product around one center, for one call shape."""
    center = labels.of(center)
    nbs = labels.neighbors(center)[1::2]
    if shape == "z/z":
        at_center = z_terms(center, -1)
        return [z_terms(nb, 1) + at_center for nb in nbs]
    if shape == "w/w":
        at_center = w_terms(center, -1)
        return [w_terms(nb, 1) + at_center for nb in nbs]
    if shape == "block/block":
        at_center = z_terms(center, -1, block=True)
        return [z_terms(nb, 1, block=True) + at_center for nb in nbs]
    assert shape == "z/block"
    at_center = z_terms(center, -1, block=True)
    return [z_terms(labels.at(key), 1) + at_center for key in partner_keys(center.key)]


def per_argument_template(scale, pattern):
    """(set of (A, B, C, K, e) factors, num, den) of a ratio pattern by the
    independent rule: every gamma form of a class walked down to the class's
    least constant, one Gamma(x+1) = x Gamma(x) step at a time (the
    telescoping ``exact.telescope``'s sweep replaced)."""
    prefactor = Q(1)
    step = 4 * scale
    classes = {}
    for dF, dJ, s, e in pattern:
        pre, args = spectra._Z_GAMMAS[s]
        prefactor *= pre ** e
        for A, B, C, K, sign in args:
            K = K * scale + A * dF + B * dJ
            classes.setdefault((A, B, C, K % step), []).append((K, sign * e))
    chain = {}
    for (A, B, C, _), items in classes.items():
        if sum(e for _, e in items):
            raise NonCommensurableError("unbalanced class")
        k0 = min(K for K, _ in items)
        for K, e in items:
            for k in range(k0, K, step):
                chain[A, B, C, k] = chain.get((A, B, C, k), 0) + e
    factors = {(*form, e) for form, e in chain.items() if e}
    factors.add((0, 0, 0, step, -sum(chain.values())))
    return factors, prefactor.numerator, prefactor.denominator


class TestZProduct:
    """The ratio kernel against ratio_tagged on the gamma quotients: kind, value and order."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n=st.sampled_from([4, 6, 8]), r=st.sampled_from(R_DRAWS),
           lattice=st.sampled_from(["half", "int"]),
           shape=st.sampled_from(["z/z", "w/w", "block/block", "z/block", "calibration"]),
           xi=st.sampled_from([1, -1]), eps=st.sampled_from([1, -1]),
           k=st.integers(-6, 6), steps=st.integers(0, 4),
           dirac=st.sampled_from([0, 0, 1, 4]))
    @example(n=4, r=Q(1, 2), lattice="half", shape="w/w", xi=1, eps=1, k=0, steps=0, dirac=0)
    @example(n=4, r=Q(-3, 2), lattice="half", shape="block/block", xi=-1, eps=1, k=1,
             steps=0, dirac=0)
    @example(n=6, r=Q(3, 2), lattice="half", shape="z/z", xi=1, eps=-1, k=2, steps=0, dirac=4)
    @example(n=8, r=Q(5, 2), lattice="half", shape="calibration", xi=1, eps=1, k=0,
             steps=0, dirac=1)
    def test_matches_ratio_tagged(self, n, r, lattice, shape, xi, eps, k, steps, dirac):
        params = Params(n, r, lattice)
        f = Q(k) + (Q(1, 2) if lattice == "half" else 0)
        q = 1 if shape in ("z/z", "calibration") else 0
        center = KType(xi, f, Q(1, 2) + q + steps, q, eps)   # steps = 0: the lattice bottom
        with faults.inject("DIRAC", Q(dirac)) if dirac else contextlib.nullcontext():
            if shape == "calibration":
                calls = self.calibration_calls(params, center)
            else:
                labels = Labels(params)
                calls = [(labels.scale, terms, z_product(r, labels.scale, terms))
                         for terms in shape_calls(labels, shape, center)]
            for scale, terms, got in calls:
                assert got.reduced() == gamma_reference(params, terms, scale), terms

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n=st.sampled_from([4, 6, 8]), lattice=st.sampled_from(["half", "int"]),
           shape=st.sampled_from(["z/z", "w/w", "block/block", "z/block", "calibration"]),
           xi=st.sampled_from([1, -1]), eps=st.sampled_from([1, -1]),
           k=st.integers(-6, 6), steps=st.integers(0, 4),
           dirac=st.sampled_from([0, 0, 1, 4]))
    def test_templates_match_the_per_argument_reference(self, n, lattice, shape, xi, eps,
                                                        k, steps, dirac):
        # a template does not depend on r
        params = Params(n, Q(1), lattice)
        f = Q(k) + (Q(1, 2) if lattice == "half" else 0)
        q = 1 if shape in ("z/z", "calibration") else 0
        center = KType(xi, f, Q(1, 2) + q + steps, q, eps)
        with faults.inject("DIRAC", Q(dirac)) if dirac else contextlib.nullcontext():
            if shape == "calibration":
                calls = [(scale, terms) for scale, terms, _ in
                         self.calibration_calls(params, center)]
            else:
                labels = Labels(params)
                calls = [(labels.scale, terms)
                         for terms in shape_calls(labels, shape, center)]
            for scale, terms in calls:
                F0, J0 = terms[0][0], terms[0][1]
                pattern = tuple((F - F0, J - J0, s, e) for F, J, s, e in terms)
                factors, num, den = spectra._ratio_template(scale, pattern)
                assert len(set(factors)) == len(factors)
                assert (set(factors), num, den) == per_argument_template(scale, pattern)

    @staticmethod
    def calibration_calls(params, center):
        """Every z_product call calibrate_L makes on a window around the center."""
        calls = []

        def spy(r, scale, terms):
            calls.append((scale, terms, z_product(r, scale, terms)))
            return calls[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "z_product", spy)
            try:
                calibrate_L(Labels(params), center.xi, center.f - 1, center.f + 1, center.j + 1)
            except InconsistentSystemError:
                pass      # a fault may leave the system unsolvable; the edges were still seen
        assert calls
        return calls

    def test_unbalanced_pattern_raises_like_ratio_tagged(self):
        params = Params(4, Q(1))
        terms = ((1, 5, 1, 1),)
        with pytest.raises(NonCommensurableError):
            gamma_reference(params, terms, 2)
        with pytest.raises(NonCommensurableError):
            z_product(params.r, 2, terms)

    def test_templates_are_keyed_on_the_pattern_not_on_r(self):
        def walk(r):
            labels = Labels(Params(6, r))
            for c in enumerate_ktypes(labels.params, Q(-3, 2), Q(3, 2), Q(7, 2), (0,)):
                for terms in shape_calls(labels, "w/w", c):
                    z_product(r, labels.scale, terms)

        walk(Q(1))
        size = spectra._ratio_template.cache_info().currsize
        for r in (Q(7, 3), Q(3, 4), Q(-5, 2), Q(11, 13)):
            walk(r)
        assert spectra._ratio_template.cache_info().currsize == size


class TestZRatio:
    """A run reduces each distinct z ratio once, on its label table."""

    def test_a_run_computes_each_ratio_once(self, monkeypatch):
        seen = {}

        def spy(r, scale, terms):
            seen[terms] = seen.get(terms, 0) + 1
            return z_product(r, scale, terms)

        monkeypatch.setattr(spectra, "z_product", spy)
        params = Params(6, Q(5, 2))
        window = (Q(-7, 2), Q(7, 2), Q(9, 2))
        reports, _ = verify.run_all_suites(params, window_keys(params, *window), *window)
        assert seen and set(seen.values()) == {1}
        edges = sum(len(rep.checks) for rep in reports.values())
        assert len(seen) < edges        # the suites meet most ratios more than once

    def test_the_ratio_is_z_product_on_the_table(self):
        labels = Labels(Params(8, Q(7, 3)))
        for c in enumerate_ktypes(labels.params, Q(-3, 2), Q(3, 2), Q(7, 2)):
            shapes = ("z/z",) if c.q else ("w/w", "block/block", "z/block")
            for shape in shapes:
                for terms in shape_calls(labels, shape, c):
                    want = z_product(labels.params.r, labels.scale, terms)
                    assert z_ratio(labels, terms) == want
                    assert z_ratio(labels, terms) is labels.pairs[terms]

    def test_an_unbalanced_ratio_raises_each_time(self):
        labels = Labels(Params(4, Q(1)))
        terms = ((1, 5, 1, 1),)
        for _ in range(2):
            with pytest.raises(NonCommensurableError):
                z_ratio(labels, terms)
        assert terms not in labels.pairs


def numeric_outcome(value):
    """A numeric evaluation's float, bit for bit (so its z_numeric cell too), or POLE."""
    try:
        return repr(value())
    except GammaPoleError:
        return "POLE"


class TestZForms:
    """z's integer gamma forms against the quotient ``_z_cached`` builds: the
    triples one for one, and every numeric cell bit for bit."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.sampled_from([4, 6, 8, 10]),
           r=st.sampled_from([Q(-5, 2), Q(-3, 2), Q(-1, 2), Q(0), Q(1, 2), Q(3, 2),
                              Q(7, 3), Q(200)]),
           lattice=st.sampled_from(["half", "int"]), k=st.integers(-10, 10),
           steps=st.integers(0, 5), eps=st.sampled_from([1, -1]), s=st.sampled_from([1, -1]),
           dirac=st.sampled_from([0, 0, 0, Q(1, 3)]))
    # a zero and a pole on each side of r = 0
    @example(n=4, r=Q(5, 2), lattice="half", k=-5, steps=0, eps=1, s=-1, dirac=0)
    @example(n=4, r=Q(5, 2), lattice="half", k=5, steps=0, eps=1, s=-1, dirac=0)
    @example(n=6, r=Q(-1, 2), lattice="half", k=-5, steps=1, eps=1, s=1, dirac=0)
    @example(n=10, r=Q(1, 2), lattice="half", k=5, steps=0, eps=1, s=1, dirac=0)
    def test_triples_and_cells_match_the_quotient(self, n, r, lattice, k, steps, eps, s,
                                                  dirac):
        f = Q(k) + (Q(1, 2) if lattice == "half" else 0)
        j = Q(3, 2) + steps
        with faults.inject("DIRAC", dirac) if dirac else contextlib.nullcontext():
            scale = label_scale(n)
            J = eps * label_dirac(n, int(2 * j), eps)
            prefactor, pq = z_forms(r, scale, int(f * scale), int(J * scale), s)
            zq = spectra._z_cached(r, f, J, s)
            assert (prefactor, pq) == (zq.prefactor, zq._pq)
            assert z_value(Params(n, r, lattice), f, J, s) is zq
            assert (numeric_outcome(lambda: pq_numeric(prefactor, pq, {}))
                    == numeric_outcome(lambda: evaluate_numeric(zq)))

    def test_off_the_lattice_the_quotient_is_the_forms_at_the_least_scale(self):
        # a run reads z_forms at scale 2 (or a fractional DIRAC's), so f and J
        # off the half-integers, at the least scale d of both, are checked here
        fs = (Q(1, 3), Q(-5, 7), Q(4, 9))
        Js = (Q(1, 3), Q(5, 7), Q(4, 9), Q(11, 7))
        cases = 0
        for r, f, J, s in itertools.product((Q(1, 2), Q(7, 3), Q(-3, 2), Q(13, 11)),
                                            fs, Js, (1, -1)):
            d = math.lcm(f.denominator, J.denominator)
            zq = z_value(Params(4, r), f, J, s)
            assert (zq.prefactor, zq._pq) == z_forms(r, d, int(f * d), int(J * d), s)
            if r == Q(1, 2):        # -(f - sJ)/4, a zero of order 1 where f = sJ
                out, want = reduce_exact(zq), -(f - s * J) / 4
                assert (out.order, out.value) == ((0, want) if want else (1, 0)), (f, J, s)
            cases += 1
        assert cases == 96

    def test_the_examples_hold_a_zero_and_a_pole(self):
        zero = z_forms(Q(5, 2), 2, -9, 5, -1)      # n = 4: J = j + 1 = 5/2
        pole = z_forms(Q(5, 2), 2, 11, 5, -1)
        assert pq_numeric(*zero, {}) == 0.0
        with pytest.raises(GammaPoleError):
            pq_numeric(*pole, {})


class TestSpectrumRows:
    """``spectrum_rows`` keeps its per-run tables to itself."""

    @pytest.mark.parametrize("n, r, lattice, special", [
        (8, Q(1, 2), "half", {"POLE", "0"}),     # poles that cancel exactly
        (4, Q(3, 2), "half", {"POLE", "0"}),
        (8, Q(7, 3), "half", set()),
        (4, Q(-3, 2), "half", {"POLE"}),
        (4, Q(-3, 2), "int", set()),
    ])
    def test_z_numeric_is_the_standalone_kernel(self, n, r, lattice, special):
        # each q = 1 row's z_numeric against pq_numeric on its z_forms with
        # a new log-gamma table: the run's table changes no bit of any float
        params = Params(n, r, lattice)
        keys = window_keys(params, Q(-19, 2), Q(19, 2), Q(11, 2))
        labels = Labels(params)
        scale, cells = labels.scale, set()
        for (xi, f2, j2, q, eps), row in zip(keys, spectrum_rows(params, keys), strict=True):
            if not q:
                continue
            forms = z_forms(r, scale, f2 * scale // 2, labels.spectral_J(j2, eps), xi * eps)
            try:
                want = f"{pq_numeric(*forms, {}):.15g}"
            except GammaPoleError:
                want = "POLE"
            assert row[SPECTRUM_COLUMNS.index("z_numeric")] == want
            cells.add(want)
        assert cells & {"POLE", "0"} == special

    def test_nothing_of_a_run_outlives_it(self):
        # the same window at five off-grid r, its rows drawn, with no command
        # start between: every memo table holds what the first run left
        def sizes():
            return [table.cache_info().currsize for table in faults._TABLES]

        after = []
        for r in (Q(2, 7), Q(5, 3), Q(9, 4), Q(13, 5), Q(11, 6)):
            params = Params(6, r)
            keys = window_keys(params, Q(-15, 2), Q(15, 2), Q(9, 2))
            assert len(list(spectrum_rows(params, keys))) == len(keys)
            after.append(sizes())
        assert after == [after[0]] * 5


def neighbors_reference(kt):
    """The diagram as a Fraction transcription: six arrows, the bottom row cut at j = 1/2 + q."""
    out = []
    for direction in DIRECTIONS:
        j2 = kt.j + direction.dj
        if j2 >= Q(1, 2) + kt.q:
            eps2 = -kt.eps if direction.dj == 0 else kt.eps
            out.append((direction, KType(kt.xi, kt.f + direction.df, j2, kt.q, eps2)))
    return out


def corner_pairs_reference(r, f, J, s):
    """The six linear (numerator, denominator) pairs as a Fraction transcription."""
    sh, half = Q(s, 2), Q(1, 2)
    return {
        (1, 1): (f + J + 1 + r - sh, f + J + 1 - r + sh),
        (-1, 1): (-f + J + 1 + r + sh, -f + J + 1 - r - sh),
        (1, 0): (f + half + r + s * J, f + half - r - s * J),
        (-1, 0): (-f + half + r - s * J, -f + half - r + s * J),
        (1, -1): (f - J + 1 + r + sh, f - J + 1 - r - sh),
        (-1, -1): (-f - J + 1 + r - sh, -f - J + 1 - r + sh),
    }


def quotient_reference(params, kt, offsets):
    """{direction: (neighbor, num, den)} in Fractions; an armed site moves its value by its offset.

    J is eps * (eps (j + (n-2)/2) + DIRAC offset); mult-1 entries are the
    linear pairs, mult-2 entries the determinant squares Y^2 - 1 (strict:
    the misprinted middle-right denominator).
    """
    r, f, xi = params.r, kt.f, kt.xi
    s = kt.xi * kt.eps
    J = kt.eps * (kt.eps * (kt.j + Q(params.n - 2, 2)) + offsets.get("DIRAC", 0))
    pairs = corner_pairs_reference(r, f, J, s)
    out = {}
    for direction, nb in neighbors_reference(kt):
        y_num, y_den = pairs[direction]
        if kt.q == 1:
            out[direction] = (nb, y_num + offsets.get("Q1", 0), y_den)
            continue
        den = y_den * y_den - 1
        if params.strict_paper and direction == (1, 0):
            den = (f + Q(1, 2) - xi - r - s * J) * (f + Q(1, 2) + xi - r - xi * J)
        out[direction] = (nb, y_num * y_num - 1 + offsets.get("Q2", 0), den)
    return out


def quotient_outcomes(params, kt, offsets=None):
    """(kernel, reference) entries at one label, the kernel's taken off its integer scale."""
    unit = 2 * Labels(params).scale * params.r.denominator
    unit = unit if kt.q == 1 else unit * unit
    matrix = mult1_quotient_matrix if kt.q == 1 else mult2_det_quotient_matrix
    got = {d: (e.neighbor, Q(e.num, unit), Q(e.den, unit))
           for d, e in matrix(params, kt).items()}
    return got, quotient_reference(params, kt, offsets or {})


class TestQuotientKernel:
    """The integer quotient entries against the Fraction transcription, as formal fractions."""

    def test_grid_matches_the_reference(self):
        kinds = set()
        for n, r, lattice, strict in itertools.product(
                (4, 8, 12), (Q(5, 2), Q(7, 3), Q(-3, 2), Q(-2, 9)), ("half", "int"),
                (False, True)):
            params = Params(n, r, lattice, strict)
            for kt in enumerate_ktypes(params, Q(-3, 2), Q(3, 2), Q(7, 2)):
                got, want = quotient_outcomes(params, kt)
                assert list(got) == list(want) and got == want, (params, kt)
                kinds |= {e.kind for e in mult1_quotient_matrix(params, kt).values()} \
                    if kt.q == 1 else set()
        assert kinds == {"finite", "pole", "zero", "indeterminate"}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.sampled_from([4, 6, 8, 10, 12]),
           r=st.fractions(min_value=-6, max_value=6, max_denominator=9),
           lattice=st.sampled_from(["half", "int"]), k=st.integers(-12, 12),
           steps=st.integers(0, 6), q=st.sampled_from([0, 1]), xi=st.sampled_from([1, -1]),
           eps=st.sampled_from([1, -1]), strict=st.booleans())
    @example(n=4, r=Q(5, 2), lattice="half", k=0, steps=0, q=1, xi=1, eps=1, strict=False)
    @example(n=4, r=Q(1), lattice="half", k=1, steps=0, q=0, xi=1, eps=-1, strict=True)
    def test_property_matches_the_reference(self, n, r, lattice, k, steps, q, xi, eps, strict):
        params = Params(n, r, lattice, strict)
        f = Q(k) + (Q(1, 2) if lattice == "half" else 0)
        got, want = quotient_outcomes(params, KType(xi, f, Q(1, 2) + q + steps, q, eps))
        assert got == want

    def test_an_armed_site_moves_each_entry_by_the_offset(self):
        for site, delta, n, r, lattice in itertools.product(
                ("Q1", "Q2", "DIRAC"), (Q(1), Q(1, 3)), (4, 8), (Q(1), Q(-7, 3)),
                ("half", "int")):
            params = Params(n, r, lattice)
            centers = list(enumerate_ktypes(params, Q(-3, 2), Q(3, 2), Q(7, 2)))
            with faults.inject(site, delta):
                pairs = [quotient_outcomes(params, kt, {site: delta}) for kt in centers]
            for kt, (got, want) in zip(centers, pairs):
                assert got == want, (site, delta, params, kt)

    def test_records_walk_the_reference_diagram(self):
        params = Params(6, Q(7, 3), "int")
        labels = Labels(params)
        for kt in enumerate_ktypes(params, Q(-2), Q(2), Q(9, 2)):
            rec = labels.of(kt)
            J, s = kt.j + 2, kt.xi * kt.eps
            assert (Q(rec.F, rec.scale), Q(rec.J, rec.scale), rec.s) == (kt.f, J, s)
            arrows = iter(labels.neighbors(rec))
            got = [(d, nb.ktype) for d, nb in zip(arrows, arrows)]
            assert got == neighbors_reference(kt)
            assert labels.neighbors(rec) is labels.neighbors(rec)


class TestMult1QuotientMatrix:
    def test_pole_entry_flagged_not_thrown(self):
        kt = make_ktype(P4H, 1, Q(5, 2), Q(3, 2), 1, 1)   # J = 5/2
        entry = mult1_quotient_matrix(P4H, kt).get((1, 0))
        # the numerator 6 on the entries' scale 2 d r.denominator = 8
        assert entry.kind == "pole" and entry.num == 48 and entry.den == 0
        # the spectral-function route flags the same edge
        nb = make_ktype(P4H, 1, Q(7, 2), Q(3, 2), 1, -1)
        assert ratio_tagged(z_for(P4H, nb), z_for(P4H, kt)).kind == "pole"

    def test_middle_right_consistency_frozen(self):
        kt = make_ktype(P4H, 1, Q(1, 2), Q(3, 2), 1, 1)   # J = 5/2
        entry = mult1_quotient_matrix(P4H, kt).get((1, 0))
        assert entry.value == -2
        nb = make_ktype(P4H, 1, Q(3, 2), Q(3, 2), 1, -1)
        got = ratio_tagged(z_for(P4H, nb), z_for(P4H, kt))
        assert got.kind == "finite" and got.value == -2

    def test_entries_reciprocal_across_opposite_directions(self):
        # the quotient from the neighbor back to the center inverts the
        # quotient out, at every order including r = 0
        for r in (Q(0), Q(1), Q(7, 3)):
            params = Params(4, r)
            kt = make_ktype(params, -1, Q(3, 2), Q(5, 2), 1, 1)
            matrix = mult1_quotient_matrix(params, kt)
            assert len(matrix) == 6
            for direction, nb in neighbors_reference(kt):
                fwd = matrix.get((direction.df, direction.dj))
                back = mult1_quotient_matrix(params, nb).get((-direction.df,
                                                              -direction.dj))
                assert fwd.num * back.num == fwd.den * back.den

    def test_boundary_row_omitted(self):
        kt = make_ktype(P4H, 1, Q(1, 2), Q(3, 2), 1, 1)
        matrix = mult1_quotient_matrix(P4H, kt)
        assert matrix.get((1, -1)) is None and matrix.get((-1, -1)) is None
        assert list(matrix) == [(-1, 1), (1, 1), (-1, 0), (1, 0)]


class TestMult2DetQuotientMatrix:
    def test_frozen_top_right(self):
        params = Params(4, Q(1))
        kt = make_ktype(params, 1, Q(1, 2), Q(1, 2), 0, 1)
        assert mult2_det_quotient_matrix(params, kt).get((1, 1)).value == Q(15, 7)

    def test_entries_do_not_depend_on_chirality(self):
        params = Params(6, Q(3, 2))
        for eps in (1, -1):
            a = make_ktype(params, 1, Q(3, 2), Q(5, 2), 0, eps)
            b = make_ktype(params, -1, Q(3, 2), Q(5, 2), 0, -eps)
            ma = mult2_det_quotient_matrix(params, a)
            mb = mult2_det_quotient_matrix(params, b)
            # xi*eps is equal pairwise, so every entry agrees
            for d, entry in ma.items():
                assert mb[d].num == entry.num
                assert mb[d].den == entry.den

    def test_strict_flag_touches_only_middle_right_eps_minus(self):
        params = Params(4, Q(1))
        for eps in (1, -1):
            kt = make_ktype(params, 1, Q(3, 2), Q(3, 2), 0, eps)
            default = mult2_det_quotient_matrix(params, kt)
            strict = mult2_det_quotient_matrix(Params(4, Q(1), strict_paper=True), kt)
            for d in default:
                same = (strict[d].num == default[d].num
                        and strict[d].den == default[d].den)
                if d == Direction(1, 0) and eps == -1:
                    assert not same
                else:
                    assert same


class TestBlock2x2:
    def test_order_one_degeneration_matches_first_order_block(self):
        # includes labels where the misprinted coefficients disagree
        cases = [(4, Q(1, 2), Q(1, 2), 1, 1), (4, Q(3, 2), Q(1, 2), 1, 1),
                 (6, Q(1, 2), Q(3, 2), 1, 1), (6, Q(-5, 2), Q(5, 2), -1, -1),
                 (8, Q(7, 2), Q(3, 2), -1, 1)]
        for n, f, j, eps, xi in cases:
            params = Params(n, Q(1, 2))
            kt = make_ktype(params, xi, f, j, 0, eps)
            try:
                coeffs = block_coefficients(params, kt)
            except SingularCoefficientError:
                continue
            s = xi * eps
            J = j + Q(n - 2, 2)
            z_half = closed_form_half(f + 1, J, s)
            got = tuple(c * Q(-4) * z_half for c in coeffs)
            want = first_order_block(params, kt)
            assert got == (want[0][0], want[0][1], want[1][0], want[1][1])

    def test_misprinted_coefficients_break_the_degeneration(self):
        params = Params(6, Q(1, 2))
        kt = make_ktype(params, 1, Q(1, 2), Q(3, 2), 0, 1)   # J = 7/2
        good = block_coefficients(params, kt)
        strict_params = Params(6, Q(1, 2), strict_paper=True)
        strict = block_coefficients(strict_params, kt)
        assert good[3] != strict[3] and good[:3] == strict[:3]
        want = first_order_block(params, kt)
        strict_first = first_order_block(strict_params, kt)
        assert want[0][0] != strict_first[0][0]
        z_half = closed_form_half(kt.f + 1, Q(7, 2), 1)
        assert good[3] * Q(-4) * z_half == want[1][1]
        assert strict[3] * Q(-4) * z_half != want[1][1]

    def test_vanishing_c2_kills_off_diagonals(self):
        params = Params(4, Q(3, 4), "int")
        kt = make_ktype(params, 1, Q(-1), Q(1, 2), 0, 1)   # 2 f r + s J = 0
        b11, b12, b21, b22 = block_coefficients(params, kt)
        assert (b12, b21) == (0, 0)
        assert b11 == -1          # the block's (1,1) entry reduces to -z
        assert b22 == Q(1, 3)     # frozen: C6/C1 = (3/2)/(9/2)

    def test_singular_c4(self):
        kt = make_ktype(P4H, 1, Q(1, 2), Q(1, 2), 0, 1)
        with pytest.raises(SingularCoefficientError) as err:
            block2x2(P4H, kt)
        assert err.value.which == "C4"

    def test_singular_c3(self):
        params = Params(4, Q(-3, 2))
        kt = make_ktype(params, 1, Q(5, 2), Q(3, 2), 0, 1)
        with pytest.raises(SingularCoefficientError) as err:
            block2x2(params, kt)
        assert err.value.which == "C3"

    def test_singular_c1(self):
        params = Params(4, Q(7, 3), "int")
        kt = make_ktype(params, 1, Q(-3), Q(3, 2), 0, 1)
        with pytest.raises(SingularCoefficientError) as err:
            block2x2(params, kt)
        assert err.value.which == "C1"

    @pytest.mark.parametrize("fn, q", [(mult1_quotient_matrix, 0),
                                       (mult2_det_quotient_matrix, 1), (block2x2, 1)])
    def test_a_center_of_the_other_multiplicity_rejected(self, fn, q):
        kt = make_ktype(P4H, 1, Q(1, 2), Q(3, 2), q, 1)
        with pytest.raises(ValueError, match=f"needs a multiplicity-{1 + q} center"):
            fn(P4H, kt)

    def test_block_object(self):
        params = Params(4, Q(1))
        kt = make_ktype(params, 1, Q(1, 2), Q(3, 2), 0, -1)
        block = block2x2(params, kt)
        assert block.ktype == kt
        assert block.factor == z_value(params, Q(3, 2), Q(5, 2), -1)
        assert block.coefficients == block_coefficients(params, kt)

    def test_det_ratio_reproduces_det_quotient_entry(self):
        params = Params(4, Q(1))
        center = make_ktype(params, 1, Q(1, 2), Q(1, 2), 0, 1)
        target = make_ktype(params, 1, Q(3, 2), Q(3, 2), 0, 1)
        bc = block2x2(params, center)
        bt = block2x2(params, target)
        rho = ratio_tagged(bt.factor, bc.factor)
        assert rho.kind == "finite"
        def det(block):
            b11, b12, b21, b22 = block.coefficients
            return b11 * b22 - b12 * b21

        got = det(bt) * rho.value ** 2 / det(bc)
        entry = mult2_det_quotient_matrix(params, center).get((1, 1))
        assert got == entry.value == Q(15, 7)


def block_reference(n, r, f, Ja, xi, strict_paper, offsets=None):
    """b11..b22 as a direct Fraction transcription of C1..C6, or the name of
    the vanished denominator factor; ``offsets`` adds to named factors."""
    c = {"C1": 2*f*n - 2*f - 2*n + 1 + n*n + 2*r*n - 2*r - 2*xi*Ja,
         "C2": 2*f*r + xi*Ja,
         "C3": Q(n - 1) + 2*r,
         "C4": (2*f + 2*r - xi + 2*Ja) * (2*f + 2*r + xi - 2*Ja),
         "C5": Q(n - 1 + 2*Ja) * (n - 1 - 2*Ja),
         "C6": 2*f*n - 2*f - 2*n + 1 + n*n - 2*r*n + 2*r + 2*xi*Ja}
    offsets = offsets or {}
    c1, c2, c3, c4, c5, c6 = (c[k] + offsets.get(k, 0) for k in sorted(c))
    for name, value in (("C3", c3), ("C4", c4), ("C1", c1)):
        if value == 0:
            return name
    b11 = 4*c1*c2 / ((n - 1) * c3 * c4) - 1
    b12 = -2 * (n - 2) * xi * c5 * c2 / ((n - 1) ** 2 * c3 * c4)
    b21 = 8 * n * xi * c2 / (c3 * c4)
    scale = 1 if strict_paper else n * (n - 2)
    b22 = -4 * scale * c5 * c2 / ((n - 1) * c1 * c3 * c4) + c6 / c1
    return b11, b12, b21, b22


def block_outcomes(params, kt, offsets=None):
    """(kernel, reference) at one label: four coefficients or a singular name."""
    try:
        got = block_coefficients(params, kt)
    except SingularCoefficientError as exc:
        got = exc.which
    Ja = label_dirac(params.n, int(2 * kt.j), kt.eps)
    return got, block_reference(params.n, params.r, kt.f, Ja, kt.xi,
                                params.strict_paper, offsets)


class TestBlockKernel:
    """The integer-scaled block coefficients against the Fraction transcription."""

    def test_grid_matches_the_reference(self):
        singular = set()
        for n, r, lattice, strict in itertools.product(
                (4, 6, 8, 10), (Q(1, 2), Q(7, 3), Q(-3, 2), Q(-1, 3)), ("half", "int"),
                (False, True)):
            params = Params(n, r, lattice, strict)
            for kt in enumerate_ktypes(params, Q(-5, 2), Q(5, 2), Q(7, 2), (0,)):
                got, want = block_outcomes(params, kt)
                assert got == want, (params, kt)
                if isinstance(got, str):
                    singular.add(got)
                else:
                    assert all(type(c) is Q for c in got)
        assert singular == {"C1", "C3", "C4"}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.sampled_from([4, 6, 8, 10, 12]),
           r=st.fractions(min_value=-6, max_value=6, max_denominator=9),
           lattice=st.sampled_from(["half", "int"]), k=st.integers(-12, 12),
           steps=st.integers(0, 6), xi=st.sampled_from([1, -1]),
           eps=st.sampled_from([1, -1]), strict=st.booleans())
    @example(n=4, r=Q(-3, 2), lattice="half", k=2, steps=1, xi=1, eps=1, strict=False)
    @example(n=4, r=Q(1, 2), lattice="half", k=0, steps=0, xi=1, eps=1, strict=False)
    @example(n=4, r=Q(7, 3), lattice="int", k=-3, steps=1, xi=1, eps=1, strict=True)
    def test_property_matches_the_reference(self, n, r, lattice, k, steps, xi, eps, strict):
        params = Params(n, r, lattice, strict)
        f = Q(k) + (Q(1, 2) if lattice == "half" else 0)
        got, want = block_outcomes(params, KType(xi, f, Q(1, 2) + steps, 0, eps))
        assert got == want


def lcm_route_block_coefficients(params, center):
    """block_coefficients as it read the kernel before it read block_ints: at
    the scaling by the lcm d of the denominators of f, Ja and r; or the name
    of the vanished coefficient."""
    Ja = label_dirac(params.n, int(2 * center.j), center.eps)
    f, r = center.f, params.r
    d = math.lcm(f.denominator, Ja.denominator, r.denominator)
    coeffs = spectra._block_coeffs(params.n, f.numerator * (d // f.denominator),
                                   Ja.numerator * (d // Ja.denominator),
                                   r.numerator * (d // r.denominator), d, center.xi,
                                   params.strict_paper)
    if isinstance(coeffs, str):
        return coeffs
    *nums, den = coeffs
    return tuple(Q(num, den) for num in nums)


class TestBlockCoefficientsRoute:
    def test_block_ints_on_a_record_is_the_lcm_route(self):
        singular = set()
        for dirac, n, r, lattice, strict in itertools.product(
                (None, Q(1, 3)), (4, 6, 8), (Q(1, 2), Q(7, 3), Q(-3, 2), Q(0)),
                ("half", "int"), (False, True)):
            params = Params(n, r, lattice, strict)
            armed = faults.inject("DIRAC", dirac) if dirac else contextlib.nullcontext()
            with armed:
                for kt in enumerate_ktypes(params, Q(-5, 2), Q(5, 2), Q(7, 2), (0,)):
                    try:
                        got = block_coefficients(params, kt)
                    except SingularCoefficientError as exc:
                        got = exc.which
                    assert got == lcm_route_block_coefficients(params, kt), (params, kt)
                    if isinstance(got, str):
                        singular.add(got)
        assert singular == {"C1", "C3", "C4"}

    def test_spectrum_rows_read_block_ints_on_the_run_table(self):
        # spectrum_rows calls the kernel past its table with its own X and Ys;
        # every q = 0 row's b11..b22 cells are block_ints on a run's table
        cells = [SPECTRUM_COLUMNS.index(c) for c in ("b11", "b12", "b21", "b22")]
        note = SPECTRUM_COLUMNS.index("note")
        singular = set()
        for fault, n, r, lattice, strict in itertools.product(
                (None, "C2"), (4, 6, 8), (Q(1, 2), Q(7, 3), Q(-3, 2), Q(0), Q(13, 11)),
                ("half", "int"), (False, True)):
            params = Params(n, r, lattice, strict)
            armed = faults.inject(fault, Q(1, 3)) if fault else contextlib.nullcontext()
            with armed:
                keys = window_keys(params, Q(-5, 2), Q(5, 2), Q(7, 2), (0,))
                labels = Labels(params)
                for key, row in zip(keys, spectrum_rows(params, keys), strict=True):
                    coeffs = spectra.block_ints(labels, labels.at(key))
                    if isinstance(coeffs, str):
                        assert [row[i] for i in cells] == [""] * 4
                        assert row[note] == f"SINGULAR({coeffs})"
                        singular.add(coeffs)
                    else:
                        *nums, den = coeffs
                        assert [row[i] for i in cells] == [
                            format_ratio(num, den) for num in nums], (params, key)
                        assert row[note] == ""
        assert singular == {"C1", "C3", "C4"}


class TestScaledFault:
    def test_bump_adds_the_offset_times_the_scale(self):
        assert faults.bump("C2", 5, 36) == 5
        with faults.inject("C2", Q(1, 3)):
            assert faults.bump("C2", 5, 36) == 17
            assert faults.bump("C2", Q(5)) == Q(16, 3)
            assert faults.bump("C1", 5, 6) == 5

    def test_an_unknown_site_is_refused(self):
        with pytest.raises(KeyError, match="unknown perturbation site 'C7'"):
            with faults.inject("C7"):
                pass
        assert faults.bump("C7", 5) == 5

    def test_an_armed_site_moves_its_factor_by_the_offset(self):
        # f, Ja half-integers and r = 7/3: the kernel's common scale d is 6
        params = Params(6, Q(7, 3))
        centers = list(enumerate_ktypes(params, Q(-5, 2), Q(5, 2), Q(5, 2), (0,)))
        for kt in centers:
            Ja = label_dirac(params.n, int(2 * kt.j), kt.eps)
            assert math.lcm(kt.f.denominator, Ja.denominator, params.r.denominator) == 6
        for site in ("C1", "C2", "C3", "C4", "C5", "C6"):
            for delta in (Q(1), Q(1, 3)):
                with faults.inject(site, delta):
                    pairs = [block_outcomes(params, kt, {site: delta}) for kt in centers]
                for kt, (got, want) in zip(centers, pairs):
                    assert got == want, (site, delta, kt)


class TestExchangedRS:
    # the eigenvalue is i (f - s J); the function returns it divided by i
    def test_frozen_value(self):
        assert exchanged_rs_eigenvalue(Q(5, 2), Q(3, 2), 1) == 1

    def test_kernel(self):
        assert exchanged_rs_eigenvalue(Q(7, 2), Q(7, 2), 1) == 0

    def test_equals_minus_four_i_z(self):
        for f, J, s in ((Q(5, 2), Q(3, 2), 1), (Q(-1, 2), Q(7, 2), -1)):
            z = reduce_exact(z_value(P4H, f, J, s))
            z_val = z.value if z.kind == "finite" else Q(0)
            assert exchanged_rs_eigenvalue(f, J, s) == -4 * z_val


def reference_pin_constant(params, xi, fs, potential):
    """The calibration probe as a Fraction transcription: b11 and b21 from
    ``block_coefficients`` on the corrected forms, A2 and d22 from
    ``d_block`` and the mixed bracket (f^2 - f'^2)/2 - (n-2)/2 written out;
    ``potential`` maps (j, eps) to d33 less the constant.  (shift, probe)."""
    params = Params(params.n, params.r, params.f_lattice)
    for f in fs:
        for (j, eps), pot in sorted(potential.items()):
            alpha, beta = KType(xi, f, j, 0, eps), KType(xi, f + 1, j, 1, eps)
            try:
                b11, _, b21, _ = block_coefficients(params, alpha)
            except SingularCoefficientError:
                continue
            d_a = d_block(params, alpha)
            xd = xi * (alpha.f - beta.f)
            a2 = -xd * d_a.d21
            if b21 == 0 or a2 == 0:
                continue
            # the relation A2 b11 - E- b21 = -A2 fixes E-, and so the constant in
            # E- = mid - r + xd (d22 - (pot + t))
            e_minus = a2 * (b11 + 1) / b21
            mid = (alpha.f ** 2 - beta.f ** 2) / 2 - Q(params.n - 2, 2)
            t = (mid - params.r + xd * d_a.d22 - xd * pot - e_minus) / xd
            return t, {"alpha": alpha.to_json(), "beta": beta.to_json(), "shift": str(t)}
    return Q(0), None


PROBE_GRID = [Params(n, r, lattice)
              for n in (4, 6, 8)
              for r in (Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3), Q(-1, 2), Q(-3, 2))
              for lattice in ("half", "int")]


class TestCalibrationProbe:
    """The probe on the integer kernels against its Fraction transcription."""

    @staticmethod
    def check(params, xi):
        """Compare one solve with the reference: True when it solved."""
        try:
            result = calibrate_L(Labels(params), xi, Q(-3, 2), Q(3, 2), Q(7, 2))
        except InconsistentSystemError:
            return False
        # the solve anchors the potential at 0 on its first class, (3/2, +1)
        anchor = result.table[(Q(3, 2), 1)] / 2
        potential = {node: L / 2 - anchor for node, L in result.table.items()}
        shift, probe = reference_pin_constant(params, xi,
                                              [Q(k, 2) for k in f2_range(params, Q(-3, 2), Q(3, 2))],
                                              potential)
        assert result.probe == probe, (params, xi)
        assert result.table == {node: 2 * (pot + shift) for node, pot in potential.items()}
        return True

    @pytest.mark.parametrize("site", [None, "C1", "C2", "C3", "C4", "C5", "C6",
                                      "D11", "D12", "D21", "D22", "DIRAC"])
    def test_matches_the_fraction_transcription(self, site):
        arm = faults.inject(site) if site else contextlib.nullcontext()
        with arm:
            solved = [self.check(params, xi) for params in PROBE_GRID for xi in (1, -1)]
        # a shifted Dirac convention breaks the difference constraints themselves
        assert solved == [site != "DIRAC"] * len(PROBE_GRID) * 2


class TestCalibration:
    @pytest.mark.parametrize("delta", [Q(1, 3), Q(1, 2)])
    def test_an_unbalanced_z_ratio_names_its_edge(self, delta):
        # a fractional Dirac offset moves J by 2 delta across an eps flip
        with faults.inject("DIRAC", delta):
            with pytest.raises(InconsistentSystemError, match="do not balance on the edge") as err:
                calibrate_L(Labels(P4H), 1, Q(-3, 2), Q(3, 2), Q(5, 2))
        edge = err.value.witness["edge"]
        assert edge["center"]["eps"] == -edge["neighbor"]["eps"]
        assert edge["center"]["j"] == edge["neighbor"]["j"]

    def test_solution_and_consistency(self):
        result = calibrate_L(Labels(P4H), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        assert result.consistent
        assert result.difference_edges > 0
        for (j, eps), L in result.table.items():
            assert L == eps * (j + 1)   # eps*(j + (n-2)/2) at n = 4

    def test_middle_edges_force_the_eps_difference(self):
        result = calibrate_L(Labels(Params(6, Q(1))), -1, Q(-3, 2), Q(3, 2), Q(9, 2))
        table = result.table
        j = Q(3, 2)
        while j <= Q(9, 2):
            J = j + 2
            assert table[(j, 1)] - table[(j, -1)] == 2 * J
            j += 1

    def test_four_cycle_closes(self):
        result = calibrate_L(Labels(P4H), 1, Q(-3, 2), Q(3, 2), Q(5, 2))
        t = result.table
        cycle = [((Q(3, 2), 1), (Q(3, 2), -1)), ((Q(3, 2), -1), (Q(5, 2), -1)),
                 ((Q(5, 2), -1), (Q(5, 2), 1)), ((Q(5, 2), 1), (Q(3, 2), 1))]
        total = sum(t[a] - t[b] for a, b in cycle)
        assert total == 0

    def test_probe_pins_the_constant(self):
        result = calibrate_L(Labels(Params(8, Q(3, 2))), 1, Q(-5, 2), Q(5, 2), Q(9, 2))
        assert result.probe is not None
        assert result.consistent

    def test_alternate_convention_is_rejected(self):
        # every Dirac eigenvalue shifted by +1: J = eps (j + (n-2)/2) + 1
        with faults.inject("DIRAC", 1):
            with pytest.raises(InconsistentSystemError):
                calibrate_L(Labels(P4H), 1, Q(-5, 2), Q(5, 2), Q(7, 2))

    def test_unpinned_constant_is_an_issue(self):
        # d21 = -n + 4 vanishes at n = 4, so every probe's a2 does too
        with faults.inject("D21", Q(4)):
            result = calibrate_L(Labels(Params(4, Q(1))), 1, Q(-3, 2), Q(3, 2), Q(5, 2))
        assert result.probe is None
        assert {"kind": "unpinned-constant"} in result.issues
        assert not result.consistent

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_the_solved_table_is_the_signed_dirac_eigenvalue(self, n):
        # L(j, eps) = label_dirac(n, 2j, eps) whatever r, xi and the lattice;
        # off the grid r runs on the half lattice only, but for the unpinned
        # n = 4, r = -3/2, where the table is off by one constant
        grid = [Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3)]
        for r in grid + [Q(0), Q(1, 3), Q(3, 4), Q(-1, 2), Q(-3, 2)]:
            lattices = ("half", "int") if r in grid or r == Q(-3, 2) else ("half",)
            for lattice, xi in itertools.product(lattices, (1, -1)):
                params = Params(n, r, lattice)
                result = calibrate_L(Labels(params), xi, Q(-3, 2), Q(3, 2), Q(7, 2))
                offsets = {L - label_dirac(n, int(2 * j), eps)
                           for (j, eps), L in result.table.items()}
                unpinned = (n, r) == (4, Q(-3, 2))
                assert result.consistent != unpinned, (r, lattice, xi)
                assert offsets == {Q(-5, 2) if unpinned else 0}, (r, lattice, xi)
                if not unpinned:
                    assert result.table == dirac_l_table(params, Q(7, 2)), (r, lattice, xi)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_the_variant_does_not_reach_the_solve(self, n):
        # calibration always solves with the corrected closed forms, also on
        # the label table of a strict run
        strict = Params(n, Q(3, 2), strict_paper=True)
        for xi in (1, -1):
            results = [calibrate_L(Labels(params), xi, Q(-3, 2), Q(3, 2), Q(7, 2))
                       for params in (Params(n, Q(3, 2)), strict)]
            got = [(r.table, r.difference_edges, r.unconstraining_edges,
                    r.probe) for r in results]
            assert results[0].consistent and got[0] == got[1]

    def test_unconstraining_edge_needs_a_vanishing_bracket(self, monkeypatch):
        # a z-ratio of -1 leaves P- = -P+, which holds iff the bracket is 0
        # (the bracket is an int (num, den) over two records)
        params = Params(4, Q(1))
        true_bracket = spectra.case3_bracket

        def z_ratio(center, nb):
            return ratio_tagged(z_for(params, nb), z_for(params, center))

        def shifted_bracket(center, nb):
            zr = z_ratio(center.ktype, nb.ktype)
            bump = 1 if zr.kind == "finite" and zr.value == -1 else 0
            num, den = true_bracket(center, nb)
            return num + bump * den, den

        monkeypatch.setattr(spectra, "case3_bracket", shifted_bracket)
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(Labels(params), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        edge = err.value.witness["edge"]
        center = KType.from_json(edge["center"])
        nb = KType.from_json(edge["neighbor"])
        assert z_ratio(center, nb).value == -1
        assert err.value.witness["residual"] == "2"

    def test_conflicting_constraints_name_both_edges(self, monkeypatch):
        # a bracket bumped by the center's f makes a class pair's difference
        # depend on the edge; unconstraining edges keep their bracket, so
        # only a conflict can raise
        params = Params(4, Q(1))
        true_bracket = spectra.case3_bracket

        def f_dependent_bracket(center, nb):
            zr = ratio_tagged(z_for(params, nb.ktype), z_for(params, center.ktype))
            unconstraining = zr.kind == "finite" and zr.value == -1
            mid = Q(*true_bracket(center, nb)) + (0 if unconstraining else center.ktype.f)
            return mid.numerator, mid.denominator

        monkeypatch.setattr(spectra, "case3_bracket", f_dependent_bracket)
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(Labels(params), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        witness = err.value.witness
        assert set(witness) == {"edge", "previous", "residual"}
        edge, prev = witness["edge"], witness["previous"]
        assert set(edge) == set(prev) == {"center", "neighbor", "delta"}
        centers = [KType.from_json(e["center"]) for e in (edge, prev)]
        nbs = [KType.from_json(e["neighbor"]) for e in (edge, prev)]
        # two different edges constraining the same class pair
        assert {(c.j, c.eps) for c in centers} == {(centers[0].j, centers[0].eps)}
        assert {(b.j, b.eps) for b in nbs} == {(nbs[0].j, nbs[0].eps)}
        assert (centers[0], nbs[0]) != (centers[1], nbs[1])
        residual = Q(edge["delta"]) - Q(prev["delta"])
        assert residual != 0 and witness["residual"] == str(residual)

    def test_a_cycle_that_does_not_close_names_its_class(self, monkeypatch):
        # every ratio a pole with bracket xi (f - f') - r makes each edge's
        # delta (mid + r)/xd = 1, so x_b - x_a is -1 one way round a class
        # pair and +1 back, and the spanning solve meets a gap of 2
        monkeypatch.setattr(spectra, "z_product", lambda r, scale, terms: Tagged(-1))

        def bracket(center, nb):
            mid = center.ktype.xi * (center.ktype.f - nb.ktype.f) - Q(1)     # r = 1
            return mid.numerator, mid.denominator

        monkeypatch.setattr(spectra, "case3_bracket", bracket)
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(Labels(Params(4, Q(1))), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        assert str(err.value) == "difference cycle through (j=3/2, eps=-1) does not close"
        assert err.value.witness == {"node": ["3/2", -1], "residual": "2"}

    def test_only_unconstraining_edges_leave_classes_free(self, monkeypatch):
        # every ratio a finite -1 with a zero bracket constrains nothing, so
        # only the first of the six classes gets a value
        monkeypatch.setattr(spectra, "z_product", lambda r, scale, terms: Tagged(0, -1, 1))
        monkeypatch.setattr(spectra, "case3_bracket", lambda center, nb: (0, 1))
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(Labels(Params(4, Q(1))), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        assert str(err.value) == "calibration window leaves 5 classes unconstrained"
        assert err.value.witness == {}
