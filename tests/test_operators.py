from fractions import Fraction as Q

import pytest
from conftest import dirac_l_table

from twistor_spectra import faults, operators
from twistor_spectra.ktypes import (DEFAULT_EIGENVALUES, KType, Params,
                                    label_twistor_tt, make_ktype, neighbors)
from twistor_spectra.operators import (Case2Data, DegenerateTargetError,
                                       MissingLError, NotNeighborsError,
                                       case1_data, case1_mid, case2_data,
                                       case3_data, case3_mid, classify_pair,
                                       d_block)

P4 = Params(4, Q(1, 2))
P6 = Params(6, Q(1, 2))


class TestDBlock:
    def test_frozen_example(self):
        kt = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1)
        d = d_block(P4, kt)
        assert (d.d11, d.d12, d.d21, d.d22) == (Q(5, 4), 0, -4, Q(1, 4))

    def test_d21_is_minus_n(self):
        kt = make_ktype(P6, 1, Q(1, 2), Q(1, 2), 0, -1)
        assert d_block(P6, kt).d21 == -6

    def test_d12_vanishes_at_bottom_label(self):
        for params in (P4, P6, Params(8, Q(1))):
            kt = make_ktype(params, 1, Q(1, 2), Q(1, 2), 0, 1)
            assert d_block(params, kt).d12 == 0

    def test_entries_depend_only_on_the_label(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(5, 2), 0, 1)
        b = make_ktype(P4, -1, Q(-7, 2), Q(5, 2), 0, 1)
        da, db = d_block(P4, a), d_block(P4, b)
        assert (da.d11, da.d12, da.d21, da.d22) == (db.d11, db.d12, db.d21, db.d22)

    def test_a_label_has_one_block(self):
        # the memoized row itself, not a copy per call
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        assert d_block(P4, kt) is d_block(P4, kt)

    def test_d33_from_table(self):
        table = dirac_l_table(P4)
        kt = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 1, -1)
        assert operators._d33(table, kt) == Q(-5, 4)


class TestCBa:
    def test_frozen_value(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, -1)   # J_a = -3/2
        b = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 0, 1)    # J_b = 5/2
        assert case2_data(P4, a, b).c_ba == Q(15, 16)

    def test_vanishing_numerator(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, 1)    # J_a = 3/2
        b = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 0, 1)    # J_b = 5/2
        assert case2_data(P4, a, b).c_ba == 0

    def test_degenerate_target(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        b = make_ktype(P4, 1, Q(3, 2), Q(1, 2), 0, 1)    # j' = 1/2: lambda = 0
        with pytest.raises(DegenerateTargetError):
            case2_data(P4, a, b).c_ba

    def test_numerator_is_symmetric(self):
        # c_ba times lambda_b(T*T) is a bracket symmetric in the two labels
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, -1)
        b = make_ktype(P4, 1, Q(3, 2), Q(5, 2), 0, 1)
        assert case2_data(P4, a, b).c_ba * label_twistor_tt(4, b.j) == \
            case2_data(P4, b, a).c_ba * label_twistor_tt(4, a.j)

    def test_rejects_non_pair(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        b = make_ktype(P4, 1, Q(5, 2), Q(3, 2), 0, 1)    # two f-steps away
        with pytest.raises(NotNeighborsError):
            case2_data(P4, a, b).c_ba


class TestBochner:
    """The compressed Bochner commutator: -2 case3_mid, or -+2 case1_mid on a mixed pair."""

    def test_mixed_pair_frozen_value(self):
        alpha = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        beta = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 1, 1)
        # landing on the multiplicity-2 side: f^2 - f'^2 - (n-2)
        assert 2 * case1_mid(P4, alpha, beta) == Q(1, 4) - Q(9, 4) - 2

    def test_same_multiplicity_formula(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)    # J = 5/2
        b = make_ktype(P4, 1, Q(3, 2), Q(5, 2), 0, 1)    # J = 7/2
        got = -2 * case3_mid(P4, a, b)
        assert got == Q(9, 4) - Q(1, 4) + Q(49, 4) - Q(25, 4)
        assert -2 * case3_mid(P4, b, a) == -got

    def test_eps_flip_middle_move_cancels_dirac_part(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 1, 1)
        b = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 1, -1)
        # same j: the squared Dirac eigenvalues cancel
        assert -2 * case3_mid(P4, a, b) == b.f ** 2 - a.f ** 2

    def test_classify_pair(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        assert classify_pair(a, KType(1, Q(3, 2), Q(3, 2), 1, 1)) == "mixed"
        assert classify_pair(a, KType(1, Q(3, 2), Q(5, 2), 0, -1)) == "same-mult"
        assert classify_pair(a, KType(-1, Q(3, 2), Q(5, 2), 0, 1)) is None

    def test_classify_pair_keeps_the_fraction_rule(self):
        def fraction_rule(frm, to):
            if frm.xi != to.xi or abs(frm.f - to.f) != 1:
                return None
            if frm.q == to.q:
                return "same-mult" if to.j - frm.j in (1, 0, -1) else None
            if frm.j == to.j and frm.eps == to.eps and frm.j >= Q(3, 2):
                return "mixed"
            return None

        # raw labels, off the lattice too: both f lattices, j = 1 and
        # q = 1 at j = 1/2, so a mixed pair below j = 3/2 occurs
        labels = [KType(xi, f, j, q, eps) for xi in (1, -1)
                  for f in (Q(-3, 2), Q(-1, 2), Q(0), Q(1, 2), Q(3, 2))
                  for j in (Q(1, 2), Q(1), Q(3, 2), Q(5, 2))
                  for q in (0, 1) for eps in (1, -1)]
        for a in labels:
            for b in labels:
                assert classify_pair(a, b) == fraction_rule(a, b), (a, b)
        a = KType(1, Q(-1, 2), Q(1, 2), 0, 1)
        for b, want in ((KType(-1, Q(1, 2), Q(1, 2), 0, 1), None),       # xi mismatch
                        (KType(1, Q(3, 2), Q(1, 2), 0, 1), None),        # |df| = 2
                        (KType(1, Q(1, 2), Q(1, 2), 1, 1), None),        # mixed, j < 3/2
                        (KType(1, Q(1, 2), Q(1, 2), 0, -1), "same-mult")):   # eps flip
            assert b in labels and classify_pair(a, b) == want


class TestCase1:
    def test_a2_sign(self):
        table = dirac_l_table(P4)
        alpha = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        beta = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 1, 1)
        data = case1_data(P4, alpha, beta, table)
        # -xi (f - f') d21 = -(1)(-1)(-4)
        assert data.a2 == -4

    def test_e_sum_is_r_free(self):
        table = dirac_l_table(P4)
        for r in (Q(1, 2), Q(1), Q(7, 3)):
            params = Params(4, r)
            alpha = make_ktype(params, 1, Q(1, 2), Q(5, 2), 0, -1)
            beta = make_ktype(params, 1, Q(-1, 2), Q(5, 2), 1, -1)
            data = case1_data(params, alpha, beta, table)
            assert data.e_plus + data.e_minus == \
                alpha.f ** 2 - beta.f ** 2 - (params.n - 2)

    def test_e_parts_move_linearly_in_r(self):
        table = dirac_l_table(P4)

        def parts(r):
            params = Params(4, r)
            alpha = make_ktype(params, 1, Q(1, 2), Q(3, 2), 0, 1)
            beta = make_ktype(params, 1, Q(3, 2), Q(3, 2), 1, 1)
            data = case1_data(params, alpha, beta, table)
            return data.e_minus, data.e_plus

        em1, ep1 = parts(Q(1))
        em2, ep2 = parts(Q(3))
        assert em1 - em2 == 2 and ep2 - ep1 == 2

    def test_missing_l(self):
        alpha = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        beta = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 1, 1)
        with pytest.raises(MissingLError):
            case1_data(P4, alpha, beta, {})


class TestCase2:
    def test_g1_frozen_value(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(1, 2), 0, -1)   # J_a = -3/2
        b = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 0, 1)    # J_b = 5/2
        data = case2_data(P4, a, b)
        assert data.c_ba == Q(15, 16)
        assert data.g1 == Q(-1, 4)

    def test_g1_is_scaled_one_minus_cba(self):
        for (ja, ea), (jb, eb), df in (
                ((Q(3, 2), 1), (Q(5, 2), 1), 1),
                ((Q(5, 2), -1), (Q(5, 2), 1), -1),
                ((Q(7, 2), 1), (Q(5, 2), -1), 1)):
            a = make_ktype(P6, 1, Q(1, 2), ja, 0, ea)
            b = make_ktype(P6, 1, Q(1, 2) + df, jb, 0, eb)
            data = case2_data(P6, a, b)
            assert data.g1 == a.xi * df * (-P6.n) * (1 - data.c_ba)

    def test_f_sums_are_r_free(self):
        for r in (Q(1, 2), Q(5, 2), Q(7, 3)):
            params = Params(4, r)
            a = make_ktype(params, -1, Q(1, 2), Q(3, 2), 0, 1)
            b = make_ktype(params, -1, Q(-1, 2), Q(5, 2), 0, 1)
            data = case2_data(params, a, b)
            Ja = a.j + 1  # unsigned
            Jb = b.j + 1
            want = b.f ** 2 - a.f ** 2 + Jb * Jb - Ja * Ja
            assert data.f1_plus + data.f1_minus == want
            assert data.f2_plus + data.f2_minus == want

    def test_degenerate_target_propagates(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 0, 1)
        b = make_ktype(P4, 1, Q(3, 2), Q(1, 2), 0, 1)
        with pytest.raises(DegenerateTargetError):
            case2_data(P4, a, b)

    def test_relation_matrices(self):
        data = Case2Data(Q(1), Q(2), Q(3), Q(4), Q(5), Q(6), Q(7))
        assert data.m1() == ((Q(1), Q(6)), (Q(5), Q(21)))
        assert data.m2() == ((Q(2), Q(-6)), (Q(-5), Q(28)))
        assert data.det_m1() == 7 * 1 * 3 - 30
        assert data.det_m2() == 7 * 2 * 4 - 30


def reference_case2(params, alpha, beta):
    """Per-edge Fraction formula of case2_data, from d_block and dirac, with
    c_ba's bracket and lambda(T*T) written out; raises DegenerateTargetError
    like case2_data."""
    n = params.n
    J_unsigned = beta.j + Q(n - 2, 2)
    lam_b = Q(n - 2, n - 1) * (J_unsigned ** 2 - Q(n - 1, 2) ** 2)
    if lam_b == 0:
        raise DegenerateTargetError(beta.label())
    d_a, d_b = d_block(params, alpha), d_block(params, beta)
    Ja = DEFAULT_EIGENVALUES.dirac(params, alpha.j, alpha.eps)
    Jb = DEFAULT_EIGENVALUES.dirac(params, beta.j, beta.eps)
    cba = (Jb * Jb / 2 + Ja * Ja / 2 - Ja * Jb / (n - 1) - Q(n * (n - 1), 4)) / lam_b
    df = beta.f - alpha.f
    r = params.r
    mid = (beta.f ** 2 - alpha.f ** 2) / 2 + (Jb * Jb - Ja * Ja) / 2
    dd1 = alpha.xi * df * (d_b.d11 - d_a.d11)
    dd2 = alpha.xi * df * (d_b.d22 - d_a.d22)
    g1 = alpha.xi * df * (d_b.d21 - cba * d_a.d21)
    g2 = alpha.xi * df * (cba * d_b.d12 - d_a.d12)
    return Case2Data(mid - r + dd1, mid + r - dd1,
                     mid - r + dd2, mid + r - dd2, g1, g2, cba)


class TestCase2Tables:
    """case2_data reads label-pair rows; the per-edge formula is the reference."""

    def test_matches_per_edge_formula(self):
        checked = degenerate = 0
        for n in (4, 6, 8):
            for r in (Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3)):
                params = Params(n, r)
                for f in (Q(-19, 2), Q(0), Q(1, 2), Q(17, 2)):
                    for xi in (1, -1):
                        for eps in (1, -1):
                            j = Q(1, 2)
                            while j <= Q(11, 2):
                                alpha = KType(xi, f, j, 0, eps)
                                for _, beta in neighbors(alpha):
                                    try:
                                        want = reference_case2(params, alpha, beta)
                                    except DegenerateTargetError:
                                        with pytest.raises(DegenerateTargetError):
                                            case2_data(params, alpha, beta)
                                        degenerate += 1
                                        continue
                                    assert case2_data(params, alpha, beta) == want
                                    checked += 1
                                j += 1
        assert checked == 3 * 5 * 4 * 2 * 2 * (6 * 6 - 2) - degenerate
        assert degenerate == 3 * 5 * 4 * 2 * 2 * 4

    def test_no_perturbed_value_outlives_a_fault(self):
        params = Params(4, Q(1))
        alpha = make_ktype(params, 1, Q(1, 2), Q(3, 2), 0, 1)
        beta = make_ktype(params, 1, Q(3, 2), Q(5, 2), 0, 1)
        clean = case2_data(params, alpha, beta)
        for site in ("DIRAC", "D11", "D12", "D21", "D22"):
            with faults.inject(site):
                got = case2_data(params, alpha, beta)
                assert got == reference_case2(params, alpha, beta), site
                # armed runs use the tables: the repeat is served from them
                info = operators._label_pair.cache_info()
                assert case2_data(params, alpha, beta) == got, site
                after = operators._label_pair.cache_info()
                assert (after.hits, after.misses) == (info.hits + 1, info.misses), site
            # disarming empties every table
            assert [t.cache_info().currsize for t in faults._TABLES] == \
                [0] * len(faults._TABLES), site
            assert got != clean, site
            # c_ba reads only the Dirac eigenvalues
            assert (got.c_ba != clean.c_ba) == (site == "DIRAC")
            assert case2_data(params, alpha, beta) == clean


class TestCase3:
    def test_p_sum_is_r_free(self):
        table = dirac_l_table(P4)
        a = make_ktype(P4, 1, Q(1, 2), Q(5, 2), 1, 1)
        b = make_ktype(P4, 1, Q(-1, 2), Q(7, 2), 1, 1)
        data = case3_data(P4, a, b, table)
        Ja, Jb = a.j + 1, b.j + 1
        assert data.p_plus + data.p_minus == \
            a.f ** 2 - b.f ** 2 + Ja * Ja - Jb * Jb

    def test_middle_row_sum(self):
        table = dirac_l_table(P4)
        for f in (Q(1, 2), Q(-3, 2), Q(5, 2)):
            a = make_ktype(P4, 1, f, Q(3, 2), 1, 1)
            b = make_ktype(P4, 1, f + 1, Q(3, 2), 1, -1)
            data = case3_data(P4, a, b, table)
            assert data.p_plus + data.p_minus == -2 * f - 1

    def test_missing_l(self):
        a = make_ktype(P4, 1, Q(1, 2), Q(3, 2), 1, 1)
        b = make_ktype(P4, 1, Q(3, 2), Q(3, 2), 1, -1)
        with pytest.raises(MissingLError):
            case3_data(P4, a, b, {})

    def test_quotient_matches_matrix_entry_with_calibrated_table(self):
        from twistor_spectra.spectra import mult1_quotient_matrix
        params = Params(4, Q(1))
        table = dirac_l_table(params)
        a = make_ktype(params, 1, Q(1, 2), Q(5, 2), 1, 1)
        matrix = mult1_quotient_matrix(params, a)
        for df, dj, eps_b, j_b in ((1, 1, 1, Q(7, 2)), (-1, 0, -1, Q(5, 2)),
                                   (1, -1, 1, Q(3, 2))):
            b = make_ktype(params, 1, a.f + df, j_b, 1, eps_b)
            data = case3_data(params, a, b, table)
            entry = matrix.get((df, dj))
            assert data.p_minus * entry.den == data.p_plus * entry.num
