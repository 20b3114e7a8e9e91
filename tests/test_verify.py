import re
from fractions import Fraction as Q
from pathlib import Path

from conftest import dirac_l_table
from hypothesis import example, given
from hypothesis import strategies as st

from twistor_spectra import faults, spectra
from twistor_spectra.exact import format_rational
from twistor_spectra.ktypes import Params, enumerate_ktypes, make_ktype
from twistor_spectra.spectra import (SingularCoefficientError,
                                     block_coefficients, calibrate_L)
from twistor_spectra.verify import (FAIL, INDETERMINATE, PASS, POLE,
                                    SKIP_DEGENERATE, SKIP_SINGULAR, ZERO,
                                    _case2_residuals,
                                    resolve_block_factor_reading,
                                    run_all_suites, verify_case2_relation,
                                    verify_interface, verify_mult1_quotients,
                                    verify_mult2_quotients)


def region(params, q, f_lo=Q(-5, 2), f_hi=Q(5, 2), j_max=Q(7, 2)):
    return list(enumerate_ktypes(params, f_lo, f_hi, j_max, (q,)))


class TestMult1Suite:
    def test_all_pass_on_a_region(self):
        for r in (Q(1, 2), Q(1), Q(7, 3)):
            params = Params(4, r)
            report = verify_mult1_quotients(params, region(params, 1))
            assert report.ok and report.counts[PASS] > 100

    def test_pole_edges_flag_symmetrically(self):
        params = Params(4, Q(3, 2))
        report = verify_mult1_quotients(params, region(params, 1))
        assert report.ok
        counts = report.counts
        assert counts.get(POLE, 0) > 0 and counts.get(ZERO, 0) > 0
        assert counts.get(FAIL, 0) == 0

    def test_indeterminate_entries_reported(self):
        # at r = sJ with f = 1/2 the printed middle-left form is 0/0
        params = Params(4, Q(5, 2))
        kt = make_ktype(params, 1, Q(1, 2), Q(3, 2), 1, 1)
        report = verify_mult1_quotients(params, [kt])
        verdicts = {(c.direction.df, c.direction.dj): c.verdict for c in report.checks}
        assert verdicts[(-1, 0)] == INDETERMINATE

    def test_quotient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        with faults.inject("Q1"):
            report = verify_mult1_quotients(params, region(params, 1))
        assert not report.ok
        fail = report.first_failure
        assert fail is not None and fail.residuals


class TestMult2Suite:
    def test_all_pass_on_a_region(self):
        for n, r in ((4, Q(1, 2)), (6, Q(1)), (8, Q(7, 3))):
            params = Params(n, r)
            report = verify_mult2_quotients(params, region(params, 0))
            assert report.ok and report.counts[PASS] > 100

    def test_strict_fails_exactly_middle_right(self):
        params = Params(4, Q(1), strict_paper=True)
        report = verify_mult2_quotients(params, region(params, 0))
        fails = [c for c in report.checks if c.verdict == FAIL]
        assert fails
        assert {(c.direction.df, c.direction.dj) for c in fails} == {(1, 0)}
        assert all(c.center.eps == -1 for c in fails)

    def test_quotient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        with faults.inject("Q2"):
            report = verify_mult2_quotients(params, region(params, 0))
        assert not report.ok


class TestCase2Suite:
    def test_all_pass_on_regions(self):
        for n, r in ((4, Q(1)), (6, Q(3, 2)), (4, Q(7, 3))):
            params = Params(n, r)
            report = verify_case2_relation(params, region(params, 0))
            assert report.ok and report.counts[PASS] > 50

    def test_degenerate_targets_skipped_never_failed(self):
        params = Params(4, Q(1))
        report = verify_case2_relation(params, region(params, 0))
        skipped = [c for c in report.checks if c.verdict == SKIP_DEGENERATE]
        assert skipped
        assert all(c.neighbor.j == Q(1, 2) for c in skipped)

    def test_operator_entry_fault_flips_a_verdict(self):
        # every upper-left entry feeds the multiplicity-2 relation; D11 and
        # D22 enter it through label differences of their J coefficients
        params = Params(4, Q(1))
        for site in ("D11", "D12", "D21", "D22"):
            with faults.inject(site):
                report = verify_case2_relation(params, region(params, 0))
            assert not report.ok, site

    def test_block_coefficient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        for site in ("C1", "C2", "C5", "C6"):
            with faults.inject(site):
                report = verify_case2_relation(params, region(params, 0))
            assert not report.ok, site


def _matmul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def reference_case2_residuals(coeffs_b, m1, m2, coeffs_a, rho):
    """The Fraction matrix-product residual of B(nb) M1 rho = M2 B(center)."""
    b11, b12, b21, b22 = coeffs_b
    a11, a12, a21, a22 = coeffs_a
    lhs = _matmul(((b11, b12), (b21, b22)), m1)
    rhs = _matmul(m2, ((a11, a12), (a21, a22)))
    out = {}
    for i in (0, 1):
        for k in (0, 1):
            diff = lhs[i][k] * rho - rhs[i][k]
            if diff != 0:
                out[f"({i + 1},{k + 1})"] = format_rational(diff)
    return out


rationals = st.builds(Q, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 60))
quad = st.tuples(rationals, rationals, rationals, rationals)


class TestCase2Residuals:
    @given(quad, quad, quad, quad, rationals)
    @example((Q(1), Q(0), Q(0), Q(1)), (Q(1, 2), Q(3), Q(-2, 7), Q(5)),
             (Q(1, 2), Q(3), Q(-2, 7), Q(5)), (Q(1), Q(0), Q(0), Q(1)), Q(1))
    def test_cleared_denominators_match_fraction_products(self, b, m1, m2, a, rho):
        m1 = ((m1[0], m1[1]), (m1[2], m1[3]))
        m2 = ((m2[0], m2[1]), (m2[2], m2[3]))
        assert _case2_residuals(b, m1, m2, a, rho) == \
            reference_case2_residuals(b, m1, m2, a, rho)

    def test_nonzero_residual_is_in_lowest_terms(self):
        one = (Q(1), Q(0), Q(0), Q(1))
        m1 = ((Q(1, 6), Q(0)), (Q(0), Q(1)))
        m2 = ((Q(1, 3), Q(0)), (Q(0), Q(1)))
        got = _case2_residuals(one, m1, m2, one, Q(3, 2))
        assert got == {"(1,1)": "-1/12", "(2,2)": "1/2"}


class TestSingularBlocks:
    def test_singular_outcomes_are_cached(self):
        # at r = 3/2 the window holds centers whose C1 or C4 vanishes
        params = Params(4, Q(3, 2))
        centers = region(params, 0)
        runs = [verify_case2_relation(params, centers) for _ in range(2)]
        info = spectra._block_coeffs.cache_info()
        assert info.misses == info.currsize
        details = [[(c.center, c.neighbor, c.detail) for c in rep.checks
                    if c.verdict == SKIP_SINGULAR] for rep in runs]
        assert details[0] and details[0] == details[1]
        whiches = set()
        for center in centers:
            for _ in range(2):
                try:
                    block_coefficients(params, center)
                except SingularCoefficientError as exc:
                    whiches.add((center, exc.which))
        assert {w for _, w in whiches} == {"C1", "C4"}
        assert len(whiches) == len({c for c, _ in whiches})


class TestInterfaceSuite:
    def test_all_pass_with_calibrated_table(self):
        params = Params(4, Q(1))
        result = calibrate_L(params, 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        centers = [c for c in region(params, 0) if c.xi == 1]
        report = verify_interface(params, centers, result.table)
        assert report.ok and report.counts[PASS] > 50

    def test_wrong_constant_breaks_only_the_mixed_relations(self):
        # shift every divergence eigenvalue by 2: quotient differences
        # still close, but the mixed-multiplicity equations pin the constant
        params = Params(4, Q(1))
        table = dirac_l_table(params)
        shifted = {k: v + 2 for k, v in table.items()}
        centers = [c for c in region(params, 0) if c.xi == 1]
        report = verify_interface(params, centers, shifted)
        fails = [c for c in report.checks if c.verdict == FAIL]
        assert fails and all(c.case == 1 for c in fails)

    def test_d33_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        table = dirac_l_table(params)
        centers = [c for c in region(params, 0) if c.xi == 1]
        with faults.inject("D33"):
            report = verify_interface(params, centers, table)
        assert not report.ok


class TestDrivers:
    def test_run_all_suites_green(self):
        params = Params(4, Q(1))
        m1 = region(params, 1, Q(-3, 2), Q(3, 2), Q(5, 2))
        m2 = region(params, 0, Q(-3, 2), Q(3, 2), Q(5, 2))
        reports, calibrations = run_all_suites(
            params, m1 + m2, Q(-3, 2), Q(3, 2), Q(5, 2))
        assert set(reports) == {"mult1-quotients", "mult2-quotients",
                                "case2-relation", "interface"}
        assert all(rep.ok for rep in reports.values())
        assert all(cal.consistent for cal in calibrations.values())

    def test_one_mixed_list_splits_as_the_suites_do(self):
        # each suite keeps its own multiplicity; the xi set follows the list
        params = Params(4, Q(1))
        window = (Q(-3, 2), Q(3, 2), Q(5, 2))
        centers = list(enumerate_ktypes(params, *window))
        m1, m2 = region(params, 1, *window), region(params, 0, *window)
        reports, calibrations = run_all_suites(params, centers, *window)
        assert reports["mult1-quotients"].checks == verify_mult1_quotients(params, m1).checks
        assert reports["mult2-quotients"].checks == verify_mult2_quotients(params, m2).checks
        assert reports["case2-relation"].checks == verify_case2_relation(params, m2).checks
        assert sorted(calibrations) == [-1, 1]
        interface = [check for xi in (-1, 1) for check in verify_interface(
            params, [c for c in m2 if c.xi == xi], calibrations[xi].table).checks]
        assert interface and reports["interface"].checks == interface
        _, one_xi = run_all_suites(params, [c for c in centers if c.xi == -1], *window)
        assert list(one_xi) == [-1]

    def test_factor_reading_resolution(self):
        params = Params(4, Q(1))
        outcome = resolve_block_factor_reading(params, region(params, 0))
        assert outcome["resolved"] == "f+1"
        assert outcome["checked"] > 0 and outcome["f"] == 0
        assert outcome["f+1"] == outcome["checked"]

    def test_factor_reading_ignores_the_variant(self):
        # the reading is adjudicated against the corrected order-one block
        for n in (4, 6):
            params = Params(n, Q(3, 2))
            strict = Params(n, Q(3, 2), strict_paper=True)
            outcome = resolve_block_factor_reading(params, region(params, 0))
            assert outcome["checked"] > 0
            assert resolve_block_factor_reading(strict, region(strict, 0)) == outcome

    def test_report_json_shape(self):
        params = Params(4, Q(1, 2))
        report = verify_mult1_quotients(params, region(params, 1, Q(1, 2), Q(1, 2)))
        payload = report.to_json()
        assert payload["suite"] == "mult1-quotients"
        assert payload["ok"] is True
        edge = payload["edges"][0]
        assert set(edge) >= {"case", "from", "to", "direction", "verdict"}
        assert report.summary_line().startswith("mult1-quotients")


class TestFaultCatalogue:
    def test_every_bump_site_is_registered(self):
        # a site missing from SITES would never be swept by mutation sanity
        src = Path(faults.__file__).parent
        used = set()
        for path in src.glob("*.py"):
            used |= set(re.findall(r'faults\.bump\(\s*"(\w+)"', path.read_text()))
        assert used == set(faults.SITES)
