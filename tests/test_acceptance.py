"""Acceptance suite: every shipped identity, at full grid scale.

Grid: n in {4, 6, 8}, twenty circle weights f in {-19/2, ..., 19/2},
sphere labels j <= 11/2, both signs of eps and xi, and operator half-orders
r in {1/2, 1, 3/2, 5/2, 7/3}.  All equality checks are exact rational
comparisons with zero tolerance; only the numeric-agreement criterion has a
floating tolerance (1e-10 relative).
"""
import functools
import math
import random
import time
from fractions import Fraction as Q

from conftest import record_acceptance

from twistor_spectra import faults
from twistor_spectra.exact import evaluate_numeric, ratio_tagged, reduce_exact
from twistor_spectra.ktypes import KType, Labels, Params, enumerate_ktypes, window_keys
from twistor_spectra.spectra import (SingularCoefficientError,
                                     block_coefficients, calibrate_L,
                                     first_order_block, z_for, z_value)
from twistor_spectra.verify import (FAIL, INDETERMINATE, PASS, POLE,
                                    SKIP_DEGENERATE, ZERO,
                                    resolve_block_factor_reading,
                                    verify_case2_relation, verify_interface,
                                    verify_mult1_quotients,
                                    verify_mult2_quotients)

NS = (4, 6, 8)
RS = (Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(7, 3))
F_LO, F_HI = Q(-19, 2), Q(19, 2)   # twenty half-integer circle weights
J_MAX = Q(11, 2)
SIGNS = (1, -1)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record_acceptance(f"{number}. {title}: FAIL")
                raise
            record_acceptance(f"{number}. {title}: PASS")
            return out
        return run
    return wrap


def f_points():
    return [Q(2 * k - 19, 2) for k in range(20)]


def centers(params, q):
    return window_keys(params, F_LO, F_HI, J_MAX, (q,))


@criterion(1, "order-one closed form of the spectral function")
def test_half_order_closed_form():
    checked = 0
    t0 = time.monotonic()
    for n in NS:
        params = Params(n, Q(1, 2))
        for j_steps in range(6):
            J = Q(1, 2) + j_steps + Q(n - 2, 2)
            for f in f_points():
                for eps in SIGNS:
                    for xi in SIGNS:
                        s = xi * eps
                        out = reduce_exact(z_value(params, f, J, s))
                        want = -Q(1, 4) * (f - s * J)
                        if out.kind == "zero":
                            assert want == 0
                        else:
                            assert out.kind == "finite" and out.value == want
                        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 3 * 6 * 20 * 4
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "multiplicity-one quotient coherence")
def test_mult1_quotient_coherence():
    total = 0
    t0 = time.monotonic()
    for n in NS:
        for r in RS:
            params = Params(n, r)
            report = verify_mult1_quotients(Labels(params), centers(params, 1))
            counts = report.counts
            assert counts.get(FAIL, 0) == 0, report.first_failure
            assert set(counts) <= {PASS, POLE, ZERO, INDETERMINATE}
            total += len(report.checks)
    elapsed = time.monotonic() - t0
    assert total >= 2000, total
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(3, "determinant-quotient coherence and misprint localization")
def test_mult2_determinant_coherence():
    total = 0
    t0 = time.monotonic()
    for n in NS:
        for r in RS:
            params = Params(n, r)
            report = verify_mult2_quotients(Labels(params), centers(params, 0))
            assert report.counts.get(FAIL, 0) == 0, report.first_failure
            total += len(report.checks)
    elapsed = time.monotonic() - t0
    assert total >= 2000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    # the as-printed middle-right factor must fail, and only that column
    strict_fail_dirs = set()
    strict_fails = 0
    for n in NS:
        for r in RS:
            params = Params(n, r, strict_paper=True)
            report = verify_mult2_quotients(Labels(params), centers(params, 0))
            for check in report.checks:
                if check.verdict == FAIL:
                    strict_fails += 1
                    strict_fail_dirs.add((check.direction.df, check.direction.dj))
    assert strict_fails > 0
    assert strict_fail_dirs == {(1, 0)}


@criterion(4, "order-one degeneration of the reconstructed block")
def test_block_degenerates_to_first_order_block():
    passed = skipped = 0
    for n in NS:
        params = Params(n, Q(1, 2))
        for center in enumerate_ktypes(params, F_LO, F_HI, J_MAX, (0,)):
            try:
                coeffs = block_coefficients(params, center)
            except SingularCoefficientError:
                skipped += 1
                continue
            s = center.xi * center.eps
            J = center.j + Q(n - 2, 2)
            z_half = -Q(1, 4) * (center.f + 1 - s * J)
            got = tuple(c * Q(-4) * z_half for c in coeffs)
            want = first_order_block(params, center)
            assert got == (want[0][0], want[0][1], want[1][0], want[1][1]), center
            passed += 1
    assert passed > 1000 and skipped < passed


@criterion(5, "multiplicity-two matrix relation on every edge")
def test_case2_matrix_relation():
    for n in NS:
        for r in RS:
            params = Params(n, r)
            report = verify_case2_relation(Labels(params), centers(params, 0))
            counts = report.counts
            assert counts.get(FAIL, 0) == 0, report.first_failure
            assert counts.get(PASS, 0) > 0
            for check in report.checks:
                if check.verdict == SKIP_DEGENERATE:
                    assert check.neighbor.j == Q(1, 2)


@criterion(6, "interface propagation with calibrated divergence eigenvalues")
def test_interface_and_calibration():
    for n in NS:
        for r in RS:
            params = Params(n, r)
            mult2 = centers(params, 0)
            for xi in SIGNS:
                result = calibrate_L(Labels(params), xi, F_LO, F_HI, J_MAX)
                assert result.consistent, (n, r, xi, result.issues[:1])
                _assert_cycles_close(result.table, n)
                report = verify_interface(
                    Labels(params), [c for c in mult2 if c[0] == xi], result.table)
                assert report.counts.get(FAIL, 0) == 0, report.first_failure
                case1 = [c for c in report.checks if c.case == 1]
                assert any(c.verdict == PASS for c in case1)
                squares = [c for c in report.checks if c.case == 2]
                assert any(c.verdict == PASS for c in squares)


def _assert_cycles_close(table, n):
    items = dict(table.items())
    js = sorted({j for j, _ in items})
    for j in js[:-1]:
        cycle = [((j, 1), (j, -1)), ((j, -1), (j + 1, -1)),
                 ((j + 1, -1), (j + 1, 1)), ((j + 1, 1), (j, 1))]
        total = sum(items[a] - items[b] for a, b in cycle)
        assert total == 0


@criterion(7, "numeric evaluation agrees with exact ratios")
def test_numeric_agreement():
    rng = random.Random(20260808)
    params_pool = [Params(n, r) for n in NS for r in RS]
    checked = 0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 20000
        params = rng.choice(params_pool)
        j = Q(3, 2) + rng.randrange(5)
        f = Q(2 * rng.randrange(-9, 11) - 1, 2)
        center = KType(rng.choice(SIGNS), f, j, 1, rng.choice(SIGNS))
        labels = Labels(params)
        nbs = labels.neighbors(labels.of(center))[1::2]
        nb = nbs[rng.randrange(len(nbs))].ktype
        zc, zt = z_for(params, center), z_for(params, nb)
        exact = ratio_tagged(zt, zc)
        if exact.kind != "finite" or zc.is_pole or zt.is_pole \
                or zc.is_zero or zt.is_zero:
            continue
        numeric = evaluate_numeric(zt) / evaluate_numeric(zc)
        assert math.isfinite(numeric)
        assert abs(numeric - float(exact.value)) <= 1e-10 * abs(float(exact.value))
        checked += 1
    assert checked == 500


@criterion(8, "every formula site is load-bearing under mutation")
def test_mutation_sanity():
    params = Params(4, Q(1))
    f_lo, f_hi, j_max = Q(-3, 2), Q(3, 2), Q(7, 2)
    mult1 = window_keys(params, f_lo, f_hi, j_max, (1,))
    mult2 = window_keys(params, f_lo, f_hi, j_max, (0,))
    baseline_table = calibrate_L(Labels(params), 1, f_lo, f_hi, j_max).table
    mult2_pos = [c for c in mult2 if c[0] == 1]

    def any_suite_fails():
        if not verify_mult1_quotients(Labels(params), mult1).ok:
            return True
        if not verify_mult2_quotients(Labels(params), mult2).ok:
            return True
        if not verify_case2_relation(Labels(params), mult2).ok:
            return True
        if not verify_interface(Labels(params), mult2_pos, baseline_table).ok:
            return True
        # the first-order block is read only by the block factor's reading
        return resolve_block_factor_reading(params, mult2)["resolved"] != "f+1"

    assert not any_suite_fails()
    for site in faults.SITES:
        with faults.inject(site):
            assert any_suite_fails(), f"perturbing {site} went undetected"
    assert not any_suite_fails()
