import contextlib
import itertools
from fractions import Fraction as Q

import pytest
from conftest import dirac_l_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistor_spectra import faults, spectra
from twistor_spectra.exact import (GammaQuotient, NonCommensurableError,
                                   ReducedValue, ratio_tagged, reduce_exact)
from twistor_spectra.ktypes import (Direction, KType, Params, case1_partners,
                                    enumerate_ktypes, label_dirac, make_ktype,
                                    neighbors)
from twistor_spectra.spectra import (InconsistentSystemError,
                                     SingularCoefficientError, block2x2,
                                     block_coefficients, calibrate_L, exchanged_rs_eigenvalue,
                                     mult1_quotient_matrix,
                                     mult2_det_quotient_matrix,
                                     mult2_gamma_product, first_order_block,
                                     w_terms, z_for, z_product, z_terms,
                                     z_value)

P4H = Params(4, Q(1, 2))


def closed_form_half(f, J, s):
    return -Q(1, 4) * (f - s * J)


class TestZValue:
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


def gamma_reference(params, terms):
    """ratio_tagged on the gamma quotients of prod z(r; f, J, s)**e."""
    num = den = GammaQuotient()
    for f, J, s, e in terms:
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


def shape_calls(params, shape, center):
    """The (terms) the suites hand to z_product around one center, for one call shape."""
    if shape == "z/z":
        at_center = z_terms(params, center, -1)
        return [z_terms(params, nb, 1) + at_center for _, nb in neighbors(center)]
    if shape == "w/w":
        at_center = w_terms(params, center, -1)
        return [w_terms(params, nb, 1) + at_center for _, nb in neighbors(center)]
    if shape == "block/block":
        at_center = z_terms(params, center, -1, block=True)
        return [z_terms(params, nb, 1, block=True) + at_center for _, nb in neighbors(center)]
    assert shape == "z/block"
    at_center = z_terms(params, center, -1, block=True)
    return [z_terms(params, beta, 1) + at_center for _, beta in case1_partners(center)]


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
                calls = [(terms, z_product(r, terms))
                         for terms in shape_calls(params, shape, center)]
            for terms, got in calls:
                assert got == gamma_reference(params, terms), terms

    @staticmethod
    def calibration_calls(params, center):
        """Every z_product call calibrate_L makes on a window around the center."""
        calls = []

        def spy(r, terms):
            calls.append((terms, z_product(r, terms)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "z_product", spy)
            try:
                calibrate_L(params, center.xi, center.f - 1, center.f + 1, center.j + 1)
            except InconsistentSystemError:
                pass      # a fault may leave the system unsolvable; the edges were still seen
        assert calls
        return calls

    def test_unbalanced_pattern_raises_like_ratio_tagged(self):
        params = Params(4, Q(1))
        terms = ((Q(1, 2), Q(5, 2), 1, 1),)
        with pytest.raises(NonCommensurableError):
            gamma_reference(params, terms)
        with pytest.raises(NonCommensurableError):
            z_product(params.r, terms)

    def test_templates_are_keyed_on_the_pattern_not_on_r(self):
        def walk(r):
            params = Params(6, r)
            for c in enumerate_ktypes(params, Q(-3, 2), Q(3, 2), Q(7, 2), (0,)):
                for terms in shape_calls(params, "w/w", c):
                    z_product(r, terms)

        walk(Q(1))
        size = spectra._ratio_template.cache_info().currsize
        for r in (Q(7, 3), Q(3, 4), Q(-5, 2), Q(11, 13)):
            walk(r)
        assert spectra._ratio_template.cache_info().currsize == size


class TestMult1QuotientMatrix:
    def test_pole_entry_flagged_not_thrown(self):
        kt = make_ktype(P4H, 1, Q(5, 2), Q(3, 2), 1, 1)   # J = 5/2
        entry = mult1_quotient_matrix(P4H, kt).get((1, 0))
        assert entry.kind == "pole" and entry.num == 6 and entry.den == 0
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
        from twistor_spectra.ktypes import neighbors
        for r in (Q(0), Q(1), Q(7, 3)):
            params = Params(4, r)
            kt = make_ktype(params, -1, Q(3, 2), Q(5, 2), 1, 1)
            matrix = mult1_quotient_matrix(params, kt)
            assert len(matrix) == 6
            for direction, nb in neighbors(kt):
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


class TestCalibration:
    def test_solution_and_consistency(self):
        result = calibrate_L(P4H, 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        assert result.consistent
        assert result.difference_edges > 0
        for (j, eps), L in result.table.items():
            assert L == eps * (j + 1)   # eps*(j + (n-2)/2) at n = 4

    def test_middle_edges_force_the_eps_difference(self):
        result = calibrate_L(Params(6, Q(1)), -1, Q(-3, 2), Q(3, 2), Q(9, 2))
        table = result.table
        j = Q(3, 2)
        while j <= Q(9, 2):
            J = j + 2
            assert table[(j, 1)] - table[(j, -1)] == 2 * J
            j += 1

    def test_four_cycle_closes(self):
        result = calibrate_L(P4H, 1, Q(-3, 2), Q(3, 2), Q(5, 2))
        t = result.table
        cycle = [((Q(3, 2), 1), (Q(3, 2), -1)), ((Q(3, 2), -1), (Q(5, 2), -1)),
                 ((Q(5, 2), -1), (Q(5, 2), 1)), ((Q(5, 2), 1), (Q(3, 2), 1))]
        total = sum(t[a] - t[b] for a, b in cycle)
        assert total == 0

    def test_probe_pins_the_constant(self):
        result = calibrate_L(Params(8, Q(3, 2)), 1, Q(-5, 2), Q(5, 2), Q(9, 2))
        assert result.probe is not None
        assert result.consistent

    def test_alternate_convention_is_rejected(self):
        # every Dirac eigenvalue shifted by +1: J = eps (j + (n-2)/2) + 1
        with faults.inject("DIRAC", 1):
            with pytest.raises(InconsistentSystemError):
                calibrate_L(P4H, 1, Q(-5, 2), Q(5, 2), Q(7, 2))

    def test_unpinned_constant_is_an_issue(self):
        # d21 = -n + 4 vanishes at n = 4, so every probe's a2 does too
        with faults.inject("D21", Q(4)):
            result = calibrate_L(Params(4, Q(1)), 1, Q(-3, 2), Q(3, 2), Q(5, 2))
        assert result.probe is None
        assert {"kind": "unpinned-constant"} in result.issues
        assert not result.consistent

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_the_solved_table_is_the_signed_dirac_eigenvalue(self, n):
        # L(j, eps) = label_dirac(n, j, eps) whatever r, xi and the lattice;
        # off the grid r runs on the half lattice only, but for the unpinned
        # n = 4, r = -3/2, where the table is off by one constant
        grid = [Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3)]
        for r in grid + [Q(0), Q(1, 3), Q(3, 4), Q(-1, 2), Q(-3, 2)]:
            lattices = ("half", "int") if r in grid or r == Q(-3, 2) else ("half",)
            for lattice, xi in itertools.product(lattices, (1, -1)):
                params = Params(n, r, lattice)
                result = calibrate_L(params, xi, Q(-3, 2), Q(3, 2), Q(7, 2))
                offsets = {L - label_dirac(n, j, eps)
                           for (j, eps), L in result.table.items()}
                unpinned = (n, r) == (4, Q(-3, 2))
                assert result.consistent != unpinned, (r, lattice, xi)
                assert offsets == {Q(-5, 2) if unpinned else 0}, (r, lattice, xi)
                if not unpinned:
                    assert result.table == dirac_l_table(params, Q(7, 2)), (r, lattice, xi)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_the_variant_does_not_reach_the_solve(self, n):
        # calibration always solves with the corrected closed forms
        for xi in (1, -1):
            results = [calibrate_L(Params(n, Q(3, 2), strict_paper=strict), xi,
                                   Q(-3, 2), Q(3, 2), Q(7, 2))
                       for strict in (False, True)]
            got = [(r.table, r.difference_edges, r.unconstraining_edges,
                    r.probe) for r in results]
            assert results[0].consistent and got[0] == got[1]

    def test_unconstraining_edge_needs_a_vanishing_bracket(self, monkeypatch):
        # a z-ratio of -1 leaves P- = -P+, which holds iff the bracket is 0
        params = Params(4, Q(1))
        true_mid = spectra.case3_mid

        def z_ratio(center, nb):
            return ratio_tagged(z_for(params, nb), z_for(params, center))

        def shifted_mid(p, center, nb):
            zr = z_ratio(center, nb)
            bump = 1 if zr.kind == "finite" and zr.value == -1 else 0
            return true_mid(p, center, nb) + bump

        monkeypatch.setattr(spectra, "case3_mid", shifted_mid)
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(params, 1, Q(-5, 2), Q(5, 2), Q(7, 2))
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
        true_mid = spectra.case3_mid

        def f_dependent_mid(p, center, nb):
            zr = ratio_tagged(z_for(p, nb), z_for(p, center))
            unconstraining = zr.kind == "finite" and zr.value == -1
            return true_mid(p, center, nb) + (0 if unconstraining else center.f)

        monkeypatch.setattr(spectra, "case3_mid", f_dependent_mid)
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(params, 1, Q(-5, 2), Q(5, 2), Q(7, 2))
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
        monkeypatch.setattr(spectra, "z_product", lambda r, terms: ReducedValue("pole"))
        monkeypatch.setattr(spectra, "case3_mid",
                            lambda p, center, nb: center.xi * (center.f - nb.f) - p.r)
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(Params(4, Q(1)), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        assert str(err.value) == "difference cycle through (j=3/2, eps=-1) does not close"
        assert err.value.witness == {"node": ["3/2", -1], "residual": "2"}

    def test_only_unconstraining_edges_leave_classes_free(self, monkeypatch):
        # every ratio a finite -1 with a zero bracket constrains nothing, so
        # only the first of the six classes gets a value
        monkeypatch.setattr(spectra, "z_product",
                            lambda r, terms: ReducedValue("finite", Q(-1)))
        monkeypatch.setattr(spectra, "case3_mid", lambda p, center, nb: Q(0))
        with pytest.raises(InconsistentSystemError) as err:
            calibrate_L(Params(4, Q(1)), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        assert str(err.value) == "calibration window leaves 5 classes unconstrained"
        assert err.value.witness == {}
