import re
from fractions import Fraction as Q
from pathlib import Path

from conftest import dirac_l_table

from twistor_spectra import faults
from twistor_spectra.ktypes import Params, enumerate_ktypes, make_ktype
from twistor_spectra.spectra import calibrate_L
from twistor_spectra.verify import (FAIL, INDETERMINATE, PASS, POLE,
                                    SKIP_DEGENERATE, ZERO,
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
        params = Params(4, Q(1))
        report = verify_mult2_quotients(params, region(params, 0),
                                        strict_paper=True)
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
        # D11 and D21/D12 feed the multiplicity-2 relation; D22 only enters
        # it through label differences and is caught by the interface suite
        params = Params(4, Q(1))
        for site in ("D11", "D12", "D21"):
            with faults.inject(site):
                report = verify_case2_relation(params, region(params, 0))
            assert not report.ok, site
        table = dirac_l_table(params)
        centers = [c for c in region(params, 0) if c.xi == 1]
        with faults.inject("D22"):
            report = verify_interface(params, centers, table)
        assert not report.ok

    def test_block_coefficient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        for site in ("C1", "C2", "C5", "C6"):
            with faults.inject(site):
                report = verify_case2_relation(params, region(params, 0))
            assert not report.ok, site


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
        from twistor_spectra.ktypes import LTable
        table = dirac_l_table(params)
        shifted = LTable({k: v + 2 for k, v in table.items()})
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
            params, m1, m2, (1, -1), Q(-3, 2), Q(3, 2), Q(5, 2))
        assert set(reports) == {"mult1-quotients", "mult2-quotients",
                                "case2-relation", "interface"}
        assert all(rep.ok for rep in reports.values())
        assert all(cal.consistent for cal in calibrations.values())

    def test_factor_reading_resolution(self):
        params = Params(4, Q(1))
        outcome = resolve_block_factor_reading(params, region(params, 0))
        assert outcome["resolved"] == "f+1"
        assert outcome["checked"] > 0 and outcome["f"] == 0
        assert outcome["f+1"] == outcome["checked"]

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
