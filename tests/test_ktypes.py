from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistor_spectra import faults
from twistor_spectra.ktypes import (BadDimensionError, Direction,
                                    InvalidWeightError, KType, Labels, Params,
                                    case1_partners, enumerate_ktypes, f2_range,
                                    f_points, interface_square, label_dirac,
                                    label_twistor_tt, make_ktype, neighbors)

P4 = Params(4, Q(1, 2))
P6 = Params(6, Q(1, 2))


class TestParams:
    def test_odd_dimension_rejected(self):
        with pytest.raises(BadDimensionError):
            Params(5, Q(1))

    def test_small_dimension_rejected(self):
        with pytest.raises(BadDimensionError):
            Params(2, Q(1))

    def test_r_parsed_exactly(self):
        assert Params(4, "7/3").r == Q(7, 3)

    def test_lattices(self):
        assert P4.on_f_lattice(Q(3, 2)) and not P4.on_f_lattice(Q(1))
        p_int = Params(4, Q(1), "int")
        assert p_int.on_f_lattice(Q(-2)) and not p_int.on_f_lattice(Q(1, 2))


class TestMakeKType:
    def test_multiplicity_two_label(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1)
        assert kt.multiplicity == 2

    def test_multiplicity_one_label(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 1, -1)
        assert kt.multiplicity == 1

    def test_j_below_lattice_bottom(self):
        with pytest.raises(InvalidWeightError):
            make_ktype(P4, 1, Q(1, 2), Q(1, 2), 1, 1)

    def test_j_off_lattice(self):
        with pytest.raises(InvalidWeightError):
            make_ktype(P4, 1, Q(1, 2), Q(1), 0, 1)

    def test_f_off_lattice(self):
        with pytest.raises(InvalidWeightError):
            make_ktype(P4, 1, Q(1), Q(1, 2), 0, 1)

    @pytest.mark.parametrize("xi, q, eps, message", [
        (0, 0, 1, "xi and eps"), (1, 0, -2, "xi and eps"), (1, 2, 1, "q must")])
    def test_signs_and_q_checked(self, xi, q, eps, message):
        with pytest.raises(InvalidWeightError, match=message):
            make_ktype(P4, xi, Q(1, 2), Q(3, 2), q, eps)

    def test_a_record_needs_half_integers(self):
        # an unvalidated KType: the table's key is (xi, 2f, 2j, q, eps)
        for f, j in ((Q(1, 3), Q(3, 2)), (Q(1, 2), Q(4, 3))):
            with pytest.raises(InvalidWeightError, match="off the half-integers"):
                Labels(P4).of(KType(1, f, j, 0, 1))

    def test_json_round_trip(self):
        kt = make_ktype(P4, -1, Q(-3, 2), Q(5, 2), 1, -1)
        assert KType.from_json(kt.to_json()) == kt


class TestEigenvalues:
    def test_dirac_closed_form(self):
        assert label_dirac(4, Q(1, 2), 1) == Q(3, 2)
        assert label_dirac(4, Q(1, 2), -1) == Q(-3, 2)
        assert label_dirac(6, Q(3, 2), 1) == Q(7, 2)

    def test_dirac_unit_steps(self):
        js = [Q(1, 2) + k for k in range(6)]
        mags = [label_dirac(4, j, 1) for j in js]
        assert all(b - a == 1 for a, b in zip(mags, mags[1:]))

    def test_tt_vanishes_exactly_at_bottom(self):
        assert label_twistor_tt(4, Q(1, 2)) == 0
        assert label_twistor_tt(6, Q(1, 2)) == 0
        for j in (Q(3, 2), Q(5, 2), Q(7, 2)):
            assert label_twistor_tt(4, j) > 0

    def test_tt_matches_dirac_square_chain(self):
        # independent route: lambda = ((m-1)/m)(D^2 - m^2/4) with m = n-1
        # and D the sphere Dirac eigenvalue
        for params in (P4, P6):
            m = params.n - 1
            for j in (Q(1, 2), Q(3, 2), Q(5, 2), Q(9, 2)):
                D = label_dirac(params.n, j, 1)
                want = Q(m - 1, m) * (D * D - Q(m * m, 4))
                assert label_twistor_tt(params.n, j) == want

    def test_tt_frozen_value(self):
        assert label_twistor_tt(4, Q(3, 2)) == Q(8, 3)


class TestLabelsSpectralJ:
    def test_J_is_the_spectral_dirac_eigenvalue_on_the_scale(self):
        labels = Labels(P6)
        for j2 in (1, 3, 9):
            for eps in (1, -1):
                J = Q(labels.spectral_J(j2, eps), labels.scale)
                assert J == eps * label_dirac(6, Q(j2, 2), eps) == Q(j2, 2) + 2

    def test_a_table_made_before_a_fractional_dirac_offset_refuses_J(self):
        labels = Labels(P4)
        with faults.inject("DIRAC", Q(1, 3)):
            with pytest.raises(ValueError, match=r"J = 17/6 of 2j = 3, eps = 1 is off "
                                                 r"the scale 1/2"):
                labels.spectral_J(3, 1)
            armed = Labels(P4)          # a table made while armed has the scale 1/6
            assert (armed.scale, armed.spectral_J(3, 1)) == (6, 17)


class TestNeighbors:
    def test_interior_center_has_six(self):
        kt = make_ktype(P4, 1, Q(3, 2), Q(5, 2), 0, 1)
        got = neighbors(kt)
        assert len(got) == 6
        labels = {(nb.f, nb.j, nb.eps) for _, nb in got}
        assert (Q(5, 2), Q(3, 2), 1) in labels
        assert (Q(1, 2), Q(5, 2), -1) in labels
        assert all(nb.multiplicity == kt.multiplicity for _, nb in got)

    def test_bottom_row_absent_at_boundary(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1)
        got = neighbors(kt)
        assert len(got) == 4
        assert all(d.dj != -1 for d, _ in got)

    def test_middle_row_flips_eps_only(self):
        kt = make_ktype(P4, -1, Q(1, 2), Q(3, 2), 1, 1)
        for d, nb in neighbors(kt):
            if d.dj == 0:
                assert nb.eps == -kt.eps and nb.j == kt.j
            else:
                assert nb.eps == kt.eps and nb.j == kt.j + d.dj
            assert nb.q == kt.q and nb.xi == kt.xi

    @given(f2=st.integers(-4, 4), jstep=st.integers(0, 4), q=st.integers(0, 1),
           eps=st.sampled_from((-1, 1)), xi=st.sampled_from((-1, 1)))
    def test_symmetry_with_opposite_directions(self, f2, jstep, q, eps, xi):
        kt = KType(xi, Q(2 * f2 + 1, 2), Q(1, 2) + q + jstep, q, eps)
        for d, nb in neighbors(kt):
            back = Direction(-d.df, -d.dj)
            assert dict(neighbors(nb))[back] == kt


class TestInterfaceSquare:
    def test_boundary_center_rejected(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1)
        with pytest.raises(InvalidWeightError):
            interface_square(kt)
        with pytest.raises(InvalidWeightError, match="multiplicity-2"):
            interface_square(make_ktype(P4, 1, Q(1, 2), Q(3, 2), 1, 1))

    def test_corners(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        sq = interface_square(kt)
        assert (sq.alpha2.f, sq.alpha2.j, sq.alpha2.q) == (Q(3, 2), Q(5, 2), 0)
        assert (sq.beta1.f, sq.beta1.j, sq.beta1.q) == (Q(3, 2), Q(3, 2), 1)
        assert (sq.beta2.f, sq.beta2.j, sq.beta2.q) == (Q(1, 2), Q(5, 2), 1)
        assert sq.alpha1.multiplicity == sq.alpha2.multiplicity == 2
        assert sq.beta1.multiplicity == sq.beta2.multiplicity == 1

    def test_case1_partners(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        partners = case1_partners(kt)
        assert {(df, b.f, b.q) for df, b in partners} == \
            {(1, Q(3, 2), 1), (-1, Q(-1, 2), 1)}
        assert case1_partners(make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1)) == []


class TestEnumeration:
    def test_deterministic_sorted_order(self):
        kinds = list(enumerate_ktypes(P4, Q(-3, 2), Q(3, 2), Q(5, 2)))
        assert kinds == sorted(kinds, key=KType.sort_key)
        assert kinds == list(enumerate_ktypes(P4, Q(-3, 2), Q(3, 2), Q(5, 2)))

    @given(st.integers(-30, 30), st.integers(-2, 24), st.integers(-4, 30),
           st.sampled_from(["half", "int"]),
           *(st.lists(st.sampled_from(v), min_size=1, max_size=3)
             for v in ((0, 1), (1, -1), (1, -1))))
    def test_walk_is_the_sort_key_order(self, f_lo, width, j_hi, lattice, qs, xis, epss):
        # the integer key walk against the K-types built one by one and
        # sorted on their Fraction keys; unsorted and repeated choices included
        params = Params(6, Q(3, 2), lattice)
        f_min, f_max, j_max = Q(f_lo, 3), Q(f_lo, 3) + Q(width, 4), Q(j_hi, 5)
        want = [KType(xi, f, Q(2 * k + 1, 2) + q, q, eps)
                for xi in xis for f in f_points(params, f_min, f_max) for q in qs
                for k in range(50) if Q(2 * k + 1, 2) + q <= j_max for eps in epss]
        got = list(enumerate_ktypes(params, f_min, f_max, j_max, qs, xis, epss))
        assert got == sorted(want, key=KType.sort_key)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.fractions(-40, 40, max_denominator=12), st.fractions(-40, 40, max_denominator=12),
           st.sampled_from(["half", "int"]))
    def test_f2_range_is_the_fraction_walk(self, f_min, f_max, lattice):
        # the Fraction loop f_points ran before windows were integer ranges
        params = Params(4, Q(1), lattice)
        offset = Q(1, 2) if lattice == "half" else Q(0)
        k = f_min - offset
        f = offset + k.numerator // k.denominator
        if f < f_min:
            f += 1
        want = []
        while f <= f_max:
            want.append(f)
            f += 1
        assert f_points(params, f_min, f_max) == want
        assert list(f2_range(params, f_min, f_max)) == [int(2 * f) for f in want]
        assert list(f2_range(params, str(f_min), str(f_max))) == [int(2 * f) for f in want]

    def test_a_huge_window_is_a_range_at_once(self):
        f2s = f2_range(P4, -10 ** 300, 10 ** 300)
        assert (f2s[0], f2s[-1], f2s.step) == (1 - 2 * 10 ** 300, 2 * 10 ** 300 - 1, 2)
        with pytest.raises(OverflowError):
            len(f2s)        # past sys.maxsize, so the CLI's size guard counts on the ends

    def test_counts(self):
        # f in {-1/2, 1/2}: q=0 has j in {1/2,3/2}, q=1 has j = 3/2; xi,eps = 4
        kinds = list(enumerate_ktypes(P4, Q(-1, 2), Q(1, 2), Q(3, 2)))
        assert len(kinds) == 2 * (2 + 1) * 4

    def test_integer_lattice(self):
        p_int = Params(4, Q(1), "int")
        kinds = list(enumerate_ktypes(p_int, Q(-1), Q(1), Q(3, 2), (0,), (1,), (1,)))
        assert {kt.f for kt in kinds} == {Q(-1), Q(0), Q(1)}
