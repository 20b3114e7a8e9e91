import contextlib
import gc
import json
import math
import re
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from conftest import dirac_l_table
from hypothesis import example, given
from hypothesis import strategies as st

from twistor_spectra import cli, faults, spectra, verify
from twistor_spectra.exact import format_rational
from twistor_spectra.ktypes import (Direction, KType, Label, Labels, Params,
                                    enumerate_ktypes, label_key, make_ktype, window_keys)
from twistor_spectra.spectra import (SingularCoefficientError,
                                     block_coefficients, calibrate_L)
from twistor_spectra.verify import (FAIL, INDETERMINATE, PASS, POLE,
                                    SKIP_DEGENERATE, SKIP_POLE, SKIP_SINGULAR, ZERO,
                                    EdgeCheck, SuiteReport, _case2_residuals,
                                    report_pieces, resolve_block_factor_reading,
                                    run_all_suites, verify_case2_relation,
                                    verify_interface, verify_mult1_quotients,
                                    verify_mult2_quotients)


def region(params, q, f_lo=Q(-5, 2), f_hi=Q(5, 2), j_max=Q(7, 2)):
    return window_keys(params, f_lo, f_hi, j_max, (q,))


class TestMult1Suite:
    def test_all_pass_on_a_region(self):
        for r in (Q(1, 2), Q(1), Q(7, 3)):
            params = Params(4, r)
            report = verify_mult1_quotients(Labels(params), region(params, 1))
            assert report.ok and report.counts[PASS] > 100

    def test_pole_edges_flag_symmetrically(self):
        params = Params(4, Q(3, 2))
        report = verify_mult1_quotients(Labels(params), region(params, 1))
        assert report.ok
        counts = report.counts
        assert counts.get(POLE, 0) > 0 and counts.get(ZERO, 0) > 0
        assert counts.get(FAIL, 0) == 0

    def test_indeterminate_entries_reported(self):
        # at r = sJ with f = 1/2 the printed middle-left form is 0/0
        params = Params(4, Q(5, 2))
        kt = make_ktype(params, 1, Q(1, 2), Q(3, 2), 1, 1)
        report = verify_mult1_quotients(Labels(params), [label_key(kt)])
        verdicts = {(c.direction.df, c.direction.dj): c.verdict for c in report.checks}
        assert verdicts[(-1, 0)] == INDETERMINATE

    def test_quotient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        with faults.inject("Q1"):
            report = verify_mult1_quotients(Labels(params), region(params, 1))
        assert not report.ok
        fail = report.first_failure
        assert fail is not None and fail.residuals


class TestMult2Suite:
    def test_all_pass_on_a_region(self):
        for n, r in ((4, Q(1, 2)), (6, Q(1)), (8, Q(7, 3))):
            params = Params(n, r)
            report = verify_mult2_quotients(Labels(params), region(params, 0))
            assert report.ok and report.counts[PASS] > 100

    def test_strict_fails_exactly_middle_right(self):
        params = Params(4, Q(1), strict_paper=True)
        report = verify_mult2_quotients(Labels(params), region(params, 0))
        fails = [c for c in report.checks if c.verdict == FAIL]
        assert fails
        assert {(c.direction.df, c.direction.dj) for c in fails} == {(1, 0)}
        assert all(c.center.eps == -1 for c in fails)

    def test_quotient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        with faults.inject("Q2"):
            report = verify_mult2_quotients(Labels(params), region(params, 0))
        assert not report.ok


class TestCase2Suite:
    def test_all_pass_on_regions(self):
        for n, r in ((4, Q(1)), (6, Q(3, 2)), (4, Q(7, 3))):
            params = Params(n, r)
            report = verify_case2_relation(Labels(params), region(params, 0))
            assert report.ok and report.counts[PASS] > 50

    def test_degenerate_targets_skipped_never_failed(self):
        params = Params(4, Q(1))
        report = verify_case2_relation(Labels(params), region(params, 0))
        skipped = [c for c in report.checks if c.verdict == SKIP_DEGENERATE]
        assert skipped
        assert all(c.neighbor.j == Q(1, 2) for c in skipped)

    def test_operator_entry_fault_flips_a_verdict(self):
        # every upper-left entry feeds the multiplicity-2 relation; D11 and
        # D22 enter it through label differences of their J coefficients
        params = Params(4, Q(1))
        for site in ("D11", "D12", "D21", "D22"):
            with faults.inject(site):
                report = verify_case2_relation(Labels(params), region(params, 0))
            assert not report.ok, site

    def test_block_coefficient_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        for site in ("C1", "C2", "C5", "C6"):
            with faults.inject(site):
                report = verify_case2_relation(Labels(params), region(params, 0))
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


def over_one_denominator(values):
    """(numerators, den) of Fractions over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_case2_residuals(b, m1, m2, a, rho):
    """_case2_residuals on the integer forms of Fraction blocks, matrices and rho."""
    (b_nums, b_den), (a_nums, a_den) = over_one_denominator(b), over_one_denominator(a)
    m_nums, m_den = over_one_denominator([*m1[0], *m1[1], *m2[0], *m2[1]])
    rows = [m_nums[0:2], m_nums[2:4], m_nums[4:6], m_nums[6:8]]
    return _case2_residuals((*b_nums, b_den), rows[:2], rows[2:], (*a_nums, a_den),
                            rho.numerator, rho.denominator, m_den)


class TestCase2Residuals:
    @given(quad, quad, quad, quad, rationals)
    @example((Q(1), Q(0), Q(0), Q(1)), (Q(1, 2), Q(3), Q(-2, 7), Q(5)),
             (Q(1, 2), Q(3), Q(-2, 7), Q(5)), (Q(1), Q(0), Q(0), Q(1)), Q(1))
    def test_cleared_denominators_match_fraction_products(self, b, m1, m2, a, rho):
        m1 = ((m1[0], m1[1]), (m1[2], m1[3]))
        m2 = ((m2[0], m2[1]), (m2[2], m2[3]))
        assert integer_case2_residuals(b, m1, m2, a, rho) == \
            reference_case2_residuals(b, m1, m2, a, rho)

    def test_nonzero_residual_is_in_lowest_terms(self):
        one = (Q(1), Q(0), Q(0), Q(1))
        m1 = ((Q(1, 6), Q(0)), (Q(0), Q(1)))
        m2 = ((Q(1, 3), Q(0)), (Q(0), Q(1)))
        got = integer_case2_residuals(one, m1, m2, one, Q(3, 2))
        assert got == {"(1,1)": "-1/12", "(2,2)": "1/2"}


class TestSingularBlocks:
    def test_singular_outcomes_are_cached(self):
        # at r = 3/2 the window holds centers whose C1 or C4 vanishes
        params = Params(4, Q(3, 2))
        centers = region(params, 0)
        runs = [verify_case2_relation(Labels(params), centers) for _ in range(2)]
        info = spectra._block_coeffs.cache_info()
        assert info.misses == info.currsize
        details = [[(c.center, c.neighbor, c.detail) for c in rep.checks
                    if c.verdict == SKIP_SINGULAR] for rep in runs]
        assert details[0] and details[0] == details[1]
        whiches = set()
        for center in enumerate_ktypes(params, Q(-5, 2), Q(5, 2), Q(7, 2), (0,)):
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
        result = calibrate_L(Labels(params), 1, Q(-5, 2), Q(5, 2), Q(7, 2))
        centers = [c for c in region(params, 0) if c[0] == 1]
        report = verify_interface(Labels(params), centers, result.table)
        assert report.ok and report.counts[PASS] > 50

    def test_wrong_constant_breaks_only_the_mixed_relations(self):
        # shift every divergence eigenvalue by 2: quotient differences
        # still close, but the mixed-multiplicity equations pin the constant
        params = Params(4, Q(1))
        table = dirac_l_table(params)
        shifted = {k: v + 2 for k, v in table.items()}
        centers = [c for c in region(params, 0) if c[0] == 1]
        report = verify_interface(Labels(params), centers, shifted)
        fails = [c for c in report.checks if c.verdict == FAIL]
        assert fails and all(c.case == 1 for c in fails)

    def test_d33_fault_flips_a_verdict(self):
        params = Params(4, Q(1))
        table = dirac_l_table(params)
        centers = [c for c in region(params, 0) if c[0] == 1]
        with faults.inject("D33"):
            report = verify_interface(Labels(params), centers, table)
        assert not report.ok

    @pytest.mark.parametrize("site", ["D11", "D12", "D21", "D22"])
    def test_an_entry_fault_reaches_the_shared_factor_skip(self, site):
        # a3 = 0 at this center, so the square's shared-factor ratio is a
        # pole: the true entries make det M1 vanish first, a perturbed one
        # leaves it nonzero and the square is skipped on the ratio
        params = Params(4, Q(3, 2))
        center = KType(1, Q(-5, 2), Q(3, 2), 0, -1)
        [square] = verify_interface(Labels(params), [label_key(center)], {}).checks
        assert (square.verdict, square.detail) == (
            SKIP_DEGENERATE, "det M1 = 0: propagation is vacuous")
        with faults.inject(site):
            [square] = verify_interface(Labels(params), [label_key(center)], {}).checks
        assert (square.verdict, square.detail) == (SKIP_POLE, "shared-factor ratio is pole")


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
        centers = window_keys(params, *window)
        m1, m2 = region(params, 1, *window), region(params, 0, *window)
        reports, calibrations = run_all_suites(params, centers, *window)
        for name, suite, own in (("mult1-quotients", verify_mult1_quotients, m1),
                                 ("mult2-quotients", verify_mult2_quotients, m2),
                                 ("case2-relation", verify_case2_relation, m2)):
            assert reports[name].checks == suite(Labels(params), own).checks, name
        assert sorted(calibrations) == [-1, 1]
        interface = [check for xi in (-1, 1) for check in verify_interface(
            Labels(params), [c for c in m2 if c[0] == xi], calibrations[xi].table).checks]
        assert interface and reports["interface"].checks == interface
        _, one_xi = run_all_suites(params, [c for c in centers if c[0] == -1], *window)
        assert list(one_xi) == [-1]

    def test_a_table_the_other_runs_filled_gives_the_fresh_checks(self):
        # run_all_suites shares one table between the suites and calibrate_L,
        # so what they leave in it (records, neighbors, pair rows, z ratios)
        # must not change a later suite's checks; r = 3/2 has poles and zeros
        params = Params(4, Q(3, 2))
        window = (Q(-3, 2), Q(3, 2), Q(5, 2))
        m1, m2 = region(params, 1, *window), region(params, 0, *window)
        table = dirac_l_table(params)
        suites = [lambda labels: verify_mult1_quotients(labels, m1),
                  lambda labels: verify_mult2_quotients(labels, m2),
                  lambda labels: verify_case2_relation(labels, m2),
                  lambda labels: verify_interface(labels, m2, table)]
        for k, suite in enumerate(suites):
            shared = Labels(params)
            for xi in (1, -1):
                calibrate_L(shared, xi, *window)
            for other in suites[:k] + suites[k + 1:]:
                other(shared)
            assert shared.pairs
            checks = suite(shared).checks
            assert checks and checks == suite(Labels(params)).checks

    def test_factor_reading_resolution(self):
        params = Params(4, Q(1))
        outcome = resolve_block_factor_reading(params, region(params, 0))
        assert outcome["resolved"] == "f+1"
        assert outcome["checked"] > 0 and outcome["f"] == 0
        assert outcome["f+1"] == outcome["checked"]
        # multiplicity-one centers have no block to check
        assert resolve_block_factor_reading(params, region(params, 1) + region(params, 0)) \
            == outcome

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
        report = verify_mult1_quotients(Labels(params), region(params, 1, Q(1, 2), Q(1, 2)))
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


def slice_reports(n, r, strict=False, window=(Q(-19, 2), Q(19, 2), Q(11, 2))):
    params = Params(n, r, strict_paper=strict)
    reports, _ = run_all_suites(params, window_keys(params, *window), *window)
    return reports


def report_texts(*suites):
    """The text of a report of ``suites`` with a minimal head, as
    :func:`report_pieces` writes it and as the stdlib writes it from each
    suite's ``to_json``."""
    head, reports = {"ok": True}, {report.suite: report for report in suites}
    return ("".join(report_pieces(head, reports)),
            json.dumps(dict(head, suites=reports), indent=2, sort_keys=True,
                       default=SuiteReport.to_json) + "\n")


class TestReportWriter:
    """The fixed-shape edge text against the stdlib's rendering of ``to_json``."""

    SHAPES = [
        EdgeCheck(1, KType(1, Q(-1, 2), Q(3, 2), 0, -1), None, None, SKIP_SINGULAR,
                  "block: C4 = 0"),
        EdgeCheck(2, KType(-1, Q(3), Q(1, 2), 0, 1), None, Direction(1, 1), FAIL,
                  quantities={"entry": "0", "z_ratio": "POLE"},
                  residuals={"expected": "0", "got": "POLE"}),
        EdgeCheck(3, KType(1, Q(0), Q(5, 2), 1, 1), KType(1, Q(1), Q(3, 2), 1, 1),
                  Direction(1, -1), PASS, residuals={}),
    ]

    def test_edge_text_is_the_stdlib_text(self, tmp_path):
        # detail, quantities, residuals, a null direction and a null target,
        # and the verdicts and skips of real windows
        edges = list(self.SHAPES)
        for n, r, strict in ((4, Q(5, 2), False), (6, Q(3, 2), True), (8, Q(-3, 2), False)):
            for rep in slice_reports(n, r, strict, (Q(-3, 2), Q(3, 2), Q(5, 2))).values():
                edges += rep.checks
        assert {bool(e.detail) for e in edges} == {True, False}
        assert {bool(e.residuals) for e in edges} == {True, False}
        assert {e.verdict for e in edges} >= {PASS, FAIL, POLE, ZERO, INDETERMINATE,
                                              SKIP_DEGENERATE, SKIP_SINGULAR}
        got, want = report_texts(SuiteReport("case2-relation", edges))
        assert got == want
        got, want = report_texts(SuiteReport("interface"))
        assert got == want and '"edges": [],' in got
        # the whole verify report against the stdlib's text of its head and
        # of each suite's to_json: with solved calibrations, with both skipped
        # (and an empty interface suite), and with both unsolved under an
        # armed DIRAC, each with its witness
        params = Params(4, Q(1))
        path = tmp_path / "report.json"
        for window, site, kind in (((Q(-3, 2), Q(3, 2), Q(5, 2)), None, "consistent"),
                                   ((Q(-9, 2), Q(9, 2), Q(1, 2)), None, "skipped"),
                                   ((Q(-3, 2), Q(3, 2), Q(5, 2)), "DIRAC", "witness")):
            argv = ["verify", "--n", "4", "--r", "1", "--out", str(path),
                    *(f"--{flag}={format_rational(v)}"
                      for flag, v in zip(("f-min", "f-max", "j-max"), window))]
            with faults.inject(site) if site else contextlib.nullcontext():
                cli.main(argv)
                reports, _ = run_all_suites(params, window_keys(params, *window), *window)
            text = path.read_text(encoding="utf-8")
            payload = dict(json.loads(text), suites=reports)
            assert text == json.dumps(payload, indent=2, sort_keys=True,
                                      default=lambda o: o.to_json()) + "\n"
            assert len(payload["calibration"]) == 2
            assert all(cal.get(kind) for cal in payload["calibration"].values())

    def test_each_label_is_rendered_once_per_report(self, monkeypatch):
        # a label's text holds its f and j: two format_rational calls per
        # distinct label object in the rows, however many suites show it
        reports = slice_reports(4, Q(1))
        per_suite = [{id(kt) for c in rep.checks for kt in (c.center, c.neighbor)
                      if kt is not None} for rep in reports.values()]
        labels = set().union(*per_suite)
        assert len(reports) == 4 and sum(map(len, per_suite)) > len(labels)
        calls = []

        def counted(value):
            calls.append(value)
            return format_rational(value)
        monkeypatch.setattr(verify, "format_rational", counted)
        "".join(report_pieces({"ok": True}, reports))
        assert len(calls) == 2 * len(labels)

    def test_an_n8_slice_streams_in_bounded_chunks(self, monkeypatch):
        # every write of the largest grid slice's report stays near
        # cli.CHUNK, so the report is never held as one string
        writes = []
        monkeypatch.setattr(sys, "stdout", RecordingFile(writes))
        cli._emit(report_pieces({"ok": True}, slice_reports(8, Q(5, 2))), None)
        sizes = [len(text) for text in writes]
        assert cli.CHUNK == 1 << 16 and sum(sizes) > 40 * cli.CHUNK
        # batched: every write but the last holds at least CHUNK characters
        assert min(sizes[:-1]) >= cli.CHUNK and max(sizes) <= cli.CHUNK + 4096
        assert json.loads("".join(writes))["ok"] is True


class TestEdgesText:
    """The writer against the stdlib on a synthetic set built to miss its
    shortcuts: dict keys out of sorted order, one key order with str and
    with int values, a key needing a ``%`` escape, a detail with quotes and
    non-ASCII, and null targets and directions."""

    KT, KT2 = KType(1, Q(-1, 2), Q(3, 2), 0, -1), KType(-1, Q(7), Q(5, 2), 1, 1)
    CHECKS = [
        EdgeCheck(2, KT, KT2, Direction(-1, 0), FAIL, 'the "\u03c1" ratio \u2260 1',
                  {"g2": "1/3", "c_ba": "-2", "f1": "1,2"}, {"(2,1)": "5", "(1,2)": "-1/7"}),
        EdgeCheck(2, KT, KT2, Direction(-1, 0), PASS,
                  quantities={"g2": 4, "c_ba": -3, "f1": 0}, residuals={}),
        EdgeCheck(1, KT2, None, None, SKIP_SINGULAR, "block: C4 = 0"),
        EdgeCheck(3, KT2, KT, Direction(1, 1), FAIL, "",
                  {"z": "%s", "50%": 7}, {"got": "POLE", "expected": "0"}),
        EdgeCheck(1, KT, KT2, None, PASS, quantities={"a1": "1/2"}),
    ]

    def test_the_text_is_the_stdlib_text_at_each_depth(self):
        # the report has one nesting: the edge list at depth 3, each edge at
        # depth 4; the list's own pieces are the stdlib's text of it there
        for checks in (self.CHECKS, self.CHECKS[::-1], self.CHECKS[2:3], []):
            pieces = list(report_pieces({"ok": True},
                                        {"s": SuiteReport("case2-relation", checks)}))
            want = json.dumps([c.to_json() for c in checks], indent=2, sort_keys=True)
            assert "".join(pieces[1:-2]) == want.replace("\n", "\n" + "  " * 3)
            assert pieces[0].endswith('"edges": ') and pieces[-2].startswith(",")

    def test_a_suite_is_the_stdlib_text_of_its_to_json(self):
        # each edge set as a one-suite report, and an empty suite beside a full one
        for checks in (self.CHECKS, self.CHECKS[::-1], self.CHECKS[2:3], []):
            got, want = report_texts(SuiteReport("case2-relation", checks))
            assert got == want
        got, want = report_texts(SuiteReport("case2-relation", self.CHECKS),
                                 SuiteReport("interface"))
        assert got == want

    def test_a_report_gives_back_the_checks_it_was_made_from(self):
        # its rows keep every field, a None and a {} residuals among them
        report = SuiteReport("case2-relation", self.CHECKS)
        assert report.checks == self.CHECKS and report.checks is not report.checks
        assert [c.residuals for c in report.checks] == [c.residuals for c in self.CHECKS]
        assert report.first_failure == self.CHECKS[0] and not report.ok
        assert report.counts == {FAIL: 2, PASS: 2, SKIP_SINGULAR: 1}

    @given(st.lists(st.dictionaries(st.text(max_size=4), st.one_of(st.text(max_size=6),
                                                                     st.integers()),
                                    max_size=5), max_size=6))
    def test_any_dicts_of_str_or_int(self, dicts):
        checks = [EdgeCheck(2, self.KT, self.KT2, Direction(1, 0), FAIL, quantities=d,
                            residuals=dicts[k - 1]) for k, d in enumerate(dicts)]
        got, want = report_texts(SuiteReport("case2-relation", checks))
        assert got == want


class TestRunsLeaveNoCycles:
    """No label record refers to another, so a run's records are freed as
    soon as its results are dropped, with the cycle collector off."""

    @staticmethod
    def records_alive():
        return sum(isinstance(o, Label) for o in gc.get_objects())

    def test_suites_and_calibrate_free_their_records(self, capsys):
        params = Params(4, Q(5, 2))
        window = (Q(-3, 2), Q(3, 2), Q(7, 2))
        centers = window_keys(params, *window)
        gc.collect()
        before = self.records_alive()
        gc.disable()
        try:
            labels = Labels(params)
            verify_case2_relation(labels, centers)
            assert self.records_alive() > before     # the count sees a live table
            del labels
            reports, calibrations = run_all_suites(params, centers, *window)
            assert reports["interface"].checks and len(calibrations) == 2
            del reports, calibrations
            assert cli.main(["calibrate", "--n", "6", "--r", "3/2"]) == 0
            assert self.records_alive() == before
        finally:
            gc.enable()

    @pytest.mark.parametrize("delta", [Q(1), Q(1, 3)], ids=["conflict", "unbalanced"])
    def test_an_unsolved_calibration_frees_its_records(self, delta):
        # the run keeps its calibration's error, whose traceback would hold the
        # run's table in a frame; an unbalanced z-ratio's error is raised
        # while handling a NonCommensurableError, whose traceback would too
        params = Params(4, Q(1))
        window = (Q(-3, 2), Q(3, 2), Q(5, 2))
        gc.collect()
        before = self.records_alive()
        gc.disable()
        try:
            with faults.inject("DIRAC", delta):
                reports, calibrations = run_all_suites(
                    params, window_keys(params, *window), *window)
            assert all(isinstance(cal, spectra.InconsistentSystemError)
                       for cal in calibrations.values())
            del reports, calibrations
            assert self.records_alive() == before
        finally:
            gc.enable()


class TestRunsKeepFlatRows:
    """A run's edges are flat rows in their reports and its neighbor lists are
    flat, so what a run leaves for the cycle collector to track grows by well
    under one object per edge, not by an edge record and an arrow tuple."""

    PARAMS = Params(8, Q(5, 2))
    WINDOW = (Q(-19, 2), Q(19, 2), Q(11, 2))

    def run(self, centers):
        labels = Labels(self.PARAMS)
        reports = [verify_mult1_quotients(labels, centers),
                   verify_mult2_quotients(labels, centers),
                   verify_case2_relation(labels, centers)]
        for xi in (1, -1):
            table = calibrate_L(labels, xi, *self.WINDOW).table
            reports.append(verify_interface(labels, [c for c in centers if c[0] == xi], table))
        return labels, reports

    def test_tracked_objects_per_edge(self):
        centers = window_keys(self.PARAMS, *self.WINDOW)
        self.run(centers)       # fills the process-wide tables first
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            labels, reports = self.run(centers)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        edges = sum(len(report.checks) for report in reports)
        assert edges == 8880 and labels.pairs
        # 1.68 per edge here; 3.29 with an edge record and a tuple per arrow
        assert grown / edges < 2.1, grown / edges


class RecordingFile:
    """A text stream that keeps what each write was given."""

    def __init__(self, writes):
        self.write, self.flush = writes.append, lambda: None
