import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistor_spectra import faults
from twistor_spectra.ktypes import (DEFAULT_EIGENVALUES, BadDimensionError, Direction,
                                    InvalidWeightError, KType, Labels, Params,
                                    _neighbor_keys, enumerate_ktypes, f2_range,
                                    interface_square, j2_range, label_dirac, label_key,
                                    label_twistor_tt, make_ktype, partner_keys, window_keys)

P4 = Params(4, Q(1, 2))
P6 = Params(6, Q(1, 2))


def neighbors(kt):
    """(direction, KType) of the diagram's arrows from ``kt``, through a table's records."""
    labels = Labels(P4)
    arrows = iter(labels.neighbors(labels.of(kt)))
    return [(direction, nb.ktype) for direction, nb in zip(arrows, arrows)]


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

    def test_a_record_is_found_by_its_key(self):
        # equal KTypes that are distinct objects share one record, which
        # keeps the KType that made it
        labels = Labels(P4)
        first, second = KType(1, Q(1, 2), Q(3, 2), 0, 1), KType(1, Q(2, 4), Q(3, 2), 0, 1)
        assert first == second and first is not second
        rec = labels.of(first)
        assert labels.of(second) is rec is labels.at((1, 1, 3, 0, 1))
        assert rec.ktype is first
        made = labels.at((-1, 3, 5, 1, -1))
        assert labels.of(KType(-1, Q(3, 2), Q(5, 2), 1, -1)) is made


class TestEigenvalues:
    def test_dirac_closed_form(self):
        assert label_dirac(4, 1, 1) == Q(3, 2)
        assert label_dirac(4, 1, -1) == Q(-3, 2)
        assert label_dirac(6, 3, 1) == Q(7, 2)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from([4, 6, 8, 10]), st.integers(0, 20), st.sampled_from([1, -1]),
           st.fractions(-5, 5, max_denominator=7))
    def test_the_int_keyed_table_under_an_armed_dirac_fault(self, n, k, eps, delta):
        exact = eps * (Q(2 * k + 1, 2) + Q(n - 2, 2))
        with faults.inject("DIRAC", delta):
            got = label_dirac(n, 2 * k + 1, eps)
            assert got == exact + delta
            # the one table: the Fraction-j entry point reads the same entry
            assert DEFAULT_EIGENVALUES.dirac(Params(n, Q(1)), Q(2 * k + 1, 2), eps) is got
        assert label_dirac(n, 2 * k + 1, eps) == exact       # disarming emptied the table

    def test_dirac_unit_steps(self):
        mags = [label_dirac(4, 1 + 2 * k, 1) for k in range(6)]
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
                D = label_dirac(params.n, int(2 * j), 1)
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
                assert J == eps * label_dirac(6, j2, eps) == Q(j2, 2) + 2

    def test_a_table_made_before_a_fractional_dirac_offset_refuses_J(self):
        # J is read from label_dirac's memo on every call, so a J read before
        # arming is not kept; the record made before arming keeps its J
        labels = Labels(P4)
        rec = labels.at((1, 1, 3, 0, 1))
        assert labels.spectral_J(3, 1) == rec.J == 5
        with faults.inject("DIRAC", Q(1, 3)):
            with pytest.raises(ValueError, match=r"J = 17/6 of 2j = 3, eps = 1 is off "
                                                 r"the scale 1/2"):
                labels.spectral_J(3, 1)
            assert labels.at((1, 1, 3, 0, 1)) is rec and rec.J == 5
            armed = Labels(P4)          # a table made while armed has the scale 1/6
            assert (armed.scale, armed.spectral_J(3, 1)) == (6, 17)
        assert labels.spectral_J(3, 1) == 5

    def test_a_table_made_under_a_dirac_fault_reads_the_armed_convention(self):
        with faults.inject("DIRAC", Q(1, 3)):
            for params in (P4, P6, Params(8, Q(7, 3), "int")):
                labels = Labels(params)
                for j2 in (1, 3, 5, 11):
                    for eps in (1, -1):
                        want = eps * label_dirac(params.n, j2, eps) * labels.scale
                        for _ in range(2):
                            assert labels.spectral_J(j2, eps) == want


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


class TestNeighborList:
    @pytest.mark.parametrize("lattice", ["half", "int"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_the_flat_positions_callers_read(self, n, lattice):
        # the even entries are the arrows' directions and the odd ones their
        # records; verify_interface reads [3] as the (1, 1) arrow's record and
        # calibrate_L reads [1::2] as the records
        params = Params(n, Q(5, 2), lattice)
        labels = Labels(params)
        squares = 0
        for key in window_keys(params, Q(-7, 2), Q(7, 2), Q(9, 2)):
            arrows = labels.neighbors(labels.at(key))
            want = _neighbor_keys(key)
            assert arrows[0::2] == [direction for direction, _ in want]
            assert len(arrows[1::2]) == len(want)
            for rec, (_, nb_key) in zip(arrows[1::2], want):
                assert rec is labels.at(nb_key)
            assert arrows[2] == Direction(1, 1)
            square = interface_square(key)
            if square:
                assert arrows[3].key == square[1]
                squares += 1
        assert squares


class TestInterfaceSquare:
    def test_boundary_center_rejected(self):
        # no square at j = 1/2, where alpha1 has no partner, nor at q = 1
        assert interface_square(label_key(make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1))) == ()
        assert interface_square(label_key(make_ktype(P4, 1, Q(1, 2), Q(3, 2), 1, 1))) == ()

    def test_corners(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        assert interface_square(label_key(kt)) == (
            (1, 1, 3, 0, 1), (1, 3, 5, 0, 1), (1, 3, 3, 1, 1), (1, 1, 5, 1, 1))

    def test_case1_partners(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        assert partner_keys(label_key(kt)) == [(1, 3, 3, 1, 1), (1, -1, 3, 1, 1)]
        assert partner_keys(label_key(make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1))) == []

    @pytest.mark.parametrize("lattice", ["half", "int"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_square_is_the_fraction_formula_on_every_key(self, n, lattice):
        # alpha2 = (f+1, j+1, q=0), beta1 = (f+1, j, q=1), beta2 = (f, j+1,
        # q=1) in Fraction arithmetic; empty at q = 1 and at j = 1/2
        params = Params(n, Q(7, 3), lattice)
        empty = 0
        for key in window_keys(params, Q(-9, 2), Q(9, 2), Q(11, 2)):
            xi, f2, j2, q, eps = key
            f, j = Q(f2, 2), Q(j2, 2)
            if q == 1 or j == Q(1, 2):
                assert interface_square(key) == ()
                empty += 1
                continue
            want = [KType(xi, f, j, 0, eps), KType(xi, f + 1, j + 1, 0, eps),
                    KType(xi, f + 1, j, 1, eps), KType(xi, f, j + 1, 1, eps)]
            assert interface_square(key) == tuple(map(label_key, want))
        assert empty == len(f2_range(params, Q(-9, 2), Q(9, 2))) * 4 * (5 + 1)


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
                for xi in xis for f in [Q(k, 2) for k in f2_range(params, f_min, f_max)]
                for q in qs
                for k in range(50) if Q(2 * k + 1, 2) + q <= j_max for eps in epss]
        got = list(enumerate_ktypes(params, f_min, f_max, j_max, qs, xis, epss))
        assert got == sorted(want, key=KType.sort_key)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.fractions(-40, 40, max_denominator=12), st.fractions(-40, 40, max_denominator=12),
           st.sampled_from(["half", "int"]))
    def test_f2_range_is_the_fraction_walk(self, f_min, f_max, lattice):
        # the Fraction loop the circle weights came from before windows were
        # integer ranges
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
        assert list(f2_range(params, f_min, f_max)) == [int(2 * f) for f in want]
        assert list(f2_range(params, str(f_min), str(f_max))) == [int(2 * f) for f in want]

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.fractions(), st.fractions(-10, 10, max_denominator=12),
                              st.builds(Q, st.integers(-10 ** 60, 10 ** 60),
                                        st.integers(1, 10 ** 30))),
                    min_size=3, max_size=3),
           st.sampled_from(["half", "int"]))
    def test_the_int_ranges_are_the_fraction_ceil_and_floor(self, bounds, lattice):
        # negative, huge and non-half bounds, on both lattices
        f_min, f_max, j_max = bounds
        params = Params(4, Q(1), lattice)
        lo = math.ceil(2 * f_min)
        lo += (lo - (lattice == "half")) % 2
        f2s = f2_range(params, f_min, f_max)
        assert (f2s.start, f2s.stop, f2s.step) == (lo, math.floor(2 * f_max) + 1, 2)
        for q in (0, 1):
            j2s = j2_range(j_max, q)
            assert (j2s.start, j2s.stop, j2s.step) == (1 + 2 * q, math.floor(2 * j_max) + 1, 2)

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
