"""Exact-identity verification suites over finite lattice regions.

Every suite takes K-types of any multiplicity, walks the centers its
identities apply to, checks them edge by edge in exact arithmetic, and
returns verdicts rather than raising: ``pass`` and ``fail`` for decidable
comparisons, ``pole`` / ``zero`` when both routes flag the same
degeneration symmetrically, ``indeterminate`` when a closed form
degenerates to 0/0, and ``skipped-*`` when an edge cannot be decided
(degenerate compression target, vanishing block denominator coefficient, or
a non-finite shared-factor ratio).  A failing verdict carries the exact
residual as a rational string.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from .exact import ReducedValue, format_rational
from .ktypes import (Direction, KType, Params, case1_partners,
                     interface_square, neighbors, spectral_args)
from .operators import DegenerateTargetError, case1_data, case2_data
from .spectra import (CalibrationResult, EmptyWindowError, QuotientEntry,
                      SingularCoefficientError, block_coefficients,
                      calibrate_L, exchanged_rs_eigenvalue,
                      first_order_block, mult1_quotient_matrix,
                      mult2_det_quotient_matrix, w_terms, z_product, z_terms)

__all__ = [
    "PASS", "FAIL", "POLE", "ZERO", "INDETERMINATE",
    "SKIP_DEGENERATE", "SKIP_SINGULAR", "SKIP_POLE",
    "EdgeCheck", "SuiteReport",
    "verify_mult1_quotients", "verify_mult2_quotients",
    "verify_case2_relation", "verify_interface",
    "resolve_block_factor_reading", "run_all_suites",
    "CONVENTION",
]

PASS = "pass"
FAIL = "fail"
POLE = "pole"
ZERO = "zero"
INDETERMINATE = "indeterminate"
SKIP_DEGENERATE = "skipped-degenerate"
SKIP_SINGULAR = "skipped-singular"
SKIP_POLE = "skipped-pole"
_SAME_KIND = {"finite": PASS, "pole": POLE, "zero": ZERO}
_SKIPPED = (SingularCoefficientError, DegenerateTargetError)   # _skip maps each to a verdict

# conventions the verdicts certify; recorded in every report header
CONVENTION = {
    "quotient_direction": "neighbor-over-center",
    "middle_row_flips_eps": True,
    "block_factor_at": "f+1",
    "mult1_normalization": "-4*i*z",
}


@dataclass(frozen=True)
class EdgeCheck:
    """One verified edge (or square) with its verdict.

    Quantities are recorded for the transition-matrix suites on every edge
    and for the quotient suites on non-passing edges (a passing quotient
    edge carries no information beyond its matrix entry).
    """

    case: int
    center: KType
    neighbor: Optional[KType]
    direction: Optional[Direction]
    verdict: str
    detail: str = ""
    quantities: Optional[Dict[str, str]] = None
    residuals: Optional[Dict[str, str]] = None

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "from": self.center.to_json(),
            "to": self.neighbor.to_json() if self.neighbor else None,
            "direction": list(self.direction) if self.direction else None,
            "verdict": self.verdict,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.quantities:
            out["quantities"] = self.quantities
        if self.residuals:
            out["residuals"] = self.residuals
        return out


@dataclass
class SuiteReport:
    suite: str
    checks: List[EdgeCheck] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for c in self.checks:
            out[c.verdict] = out.get(c.verdict, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return all(c.verdict != FAIL for c in self.checks)

    @property
    def first_failure(self) -> Optional[EdgeCheck]:
        for c in self.checks:
            if c.verdict == FAIL:
                return c
        return None

    def to_json(self) -> dict:
        return {"suite": self.suite, "counts": self.counts, "ok": self.ok,
                "edges": [c.to_json() for c in self.checks]}

    def summary_line(self) -> str:
        counts = self.counts
        body = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
        status = "OK" if self.ok else "FAIL"
        return f"{self.suite:<18} {status:<4} {body or 'no edges'}"


def _compare_entry(entry, tagged: ReducedValue) -> Tuple[str, Dict[str, str]]:
    """Verdict for closed-form entry vs gamma-quotient ratio: equal kinds and values agree."""
    kind = entry.kind
    if kind == "indeterminate":
        return INDETERMINATE, {}
    if kind == tagged.kind and (kind != "finite" or entry.num == tagged.value * entry.den):
        return _SAME_KIND[kind], {}
    residuals = ({"residual": format_rational(tagged.value - entry.value)}
                 if kind == tagged.kind else {})     # both finite
    return FAIL, dict(residuals, expected=entry.render(), got=tagged.render())


def _skip(exc: ArithmeticError, role: str) -> Tuple[str, str]:
    """(verdict, detail) for an edge whose data raised; ``role`` names the singular block."""
    if isinstance(exc, DegenerateTargetError):
        return SKIP_DEGENERATE, "lambda(T*T) = 0 at target"
    return SKIP_SINGULAR, f"{role}: {exc.which} = 0"


def _walk_quotients(suite: str, case: int, params: Params, centers: Iterable[KType],
                    matrix_of: Callable[[Params, KType], Dict[Direction, QuotientEntry]],
                    terms_of: Callable[[Params, KType, int], tuple], key: str) -> SuiteReport:
    """Each matrix entry vs the oracle's exact neighbor/center ratio, kept under ``key``."""
    report = SuiteReport(suite)
    for center in centers:
        at_center = terms_of(params, center, -1)
        for entry in matrix_of(params, center).values():
            tagged = z_product(params.r, terms_of(params, entry.neighbor, 1) + at_center)
            verdict, residuals = _compare_entry(entry, tagged)
            quantities = None
            if verdict not in (PASS, POLE, ZERO):
                quantities = {"entry": entry.render(), key: tagged.render()}
            report.checks.append(EdgeCheck(case, center, entry.neighbor, entry.direction, verdict,
                                           quantities=quantities, residuals=residuals or None))
    return report


def verify_mult1_quotients(params: Params, centers: Iterable[KType]) -> SuiteReport:
    """Eigenvalue-quotient matrix vs exact spectral-function ratios."""
    return _walk_quotients(
        "mult1-quotients", 3, params, (c for c in centers if c.multiplicity == 1),
        mult1_quotient_matrix, z_terms, "z_ratio")


def verify_mult2_quotients(params: Params, centers: Iterable[KType]) -> SuiteReport:
    """Determinant-quotient matrix vs exact eight-gamma product ratios."""
    return _walk_quotients(
        "mult2-quotients", 2, params, (c for c in centers if c.multiplicity == 2),
        mult2_det_quotient_matrix, w_terms, "product_ratio")


def _case2_residuals(coeffs_b, m1, m2, coeffs_a, rho: Fraction) -> Dict[str, str]:
    """Nonzero entries of  B(nb) M1 rho - M2 B(center), formatted.

    Entry (i, k) is a sum of four products of Fractions.  It is summed as an
    unnormalized (num, den) of ints and vanishes iff num == 0; only a
    nonzero entry is reduced to lowest terms, as ``Fraction(num, den)``.
    """
    residuals = {}
    for i in (0, 1):
        for k in (0, 1):
            num, den = 0, 1
            for sign, factors in ((1, (coeffs_b[2 * i], m1[0][k], rho)),
                                  (1, (coeffs_b[2 * i + 1], m1[1][k], rho)),
                                  (-1, (m2[i][0], coeffs_a[k])),
                                  (-1, (m2[i][1], coeffs_a[2 + k]))):
                p, q = sign, 1
                for x in factors:
                    p *= x.numerator
                    q *= x.denominator
                num, den = num * q + p * den, den * q
            if num:
                residuals[f"({i + 1},{k + 1})"] = format_rational(Fraction(num, den))
    return residuals


def verify_case2_relation(params: Params, centers: Iterable[KType]) -> SuiteReport:
    """Full 2x2 relation  B(neighbor) M1 = M2 B(center)  on every edge.

    Both blocks share their own gamma-quotient factor; dividing by the
    center's factor turns the relation into four exact rational identities
    scaled by the (tagged) factor ratio, each tested on cleared
    denominators by :func:`_case2_residuals`.
    """
    report = SuiteReport("case2-relation")
    for center in centers:
        if center.multiplicity != 2:
            continue
        try:
            coeffs_a = block_coefficients(params, center)
        except _SKIPPED as exc:
            skip = _skip(exc, "center block")
            for direction, nb in neighbors(center):
                report.checks.append(EdgeCheck(2, center, nb, direction, *skip))
            continue
        z_a = z_terms(params, center, -1, block=True)
        for direction, nb in neighbors(center):
            try:    # a degenerate target wins over a singular neighbor
                data = case2_data(params, center, nb)
                coeffs_b = block_coefficients(params, nb)
            except _SKIPPED as exc:
                skip = _skip(exc, "neighbor block")
                report.checks.append(EdgeCheck(2, center, nb, direction, *skip))
                continue
            rho = z_product(params.r, z_terms(params, nb, 1, block=True) + z_a)
            if rho.kind != "finite":
                report.checks.append(EdgeCheck(2, center, nb, direction, SKIP_POLE,
                                               detail=f"shared-factor ratio is {rho.kind}"))
                continue
            residuals = _case2_residuals(coeffs_b, data.m1(), data.m2(),
                                         coeffs_a, rho.value)
            quantities = {
                "c_ba": format_rational(data.c_ba),
                "f1": f"{format_rational(data.f1_minus)},{format_rational(data.f1_plus)}",
                "f2": f"{format_rational(data.f2_minus)},{format_rational(data.f2_plus)}",
                "g1": format_rational(data.g1),
                "g2": format_rational(data.g2),
            }
            report.checks.append(EdgeCheck(2, center, nb, direction,
                                           FAIL if residuals else PASS,
                                           quantities=quantities, residuals=residuals))
    return report


def _check_case1_edge(params: Params, alpha: KType, beta: KType,
                      table: Dict[Tuple[Fraction, int], Fraction]) -> EdgeCheck:
    """Verdict of the four mixed-multiplicity equations on one edge.

    Each equation is scaled by rho, the ratio of beta's z to alpha's block
    factor; the edge is skipped when rho is not finite.  The column and row
    forms are tracked separately so a candidate table satisfying only one of
    the two relation forms is reported as such.
    """
    edge = partial(EdgeCheck, 1, alpha, beta, None)
    try:
        b11, b12, b21, b22 = block_coefficients(params, alpha)
    except _SKIPPED as exc:
        return edge(*_skip(exc, "block"))
    data = case1_data(params, alpha, beta, table)
    rho = z_product(params.r, z_terms(params, beta, 1) + z_terms(params, alpha, -1, block=True))
    if rho.kind != "finite":
        return edge(SKIP_POLE, f"scalar-to-block factor ratio is {rho.kind}")
    p = rho.value
    eqs = {
        "column.1": b11 * data.a1 + b12 * data.e_minus + data.a1 * p,
        "column.2": b21 * data.a1 + b22 * data.e_minus - data.e_plus * p,
        "row.1": data.a2 * b11 - data.e_minus * b21 + data.a2 * p,
        "row.2": data.a2 * b12 - data.e_minus * b22 + data.e_plus * p,
    }
    residuals = {k: format_rational(v) for k, v in eqs.items() if v != 0}
    detail = ""
    if residuals:
        col_ok = "column.1" not in residuals and "column.2" not in residuals
        row_ok = "row.1" not in residuals and "row.2" not in residuals
        if col_ok != row_ok:
            detail = "only the %s relation holds" % ("column" if col_ok else "row")
    quantities = {"a1": format_rational(data.a1), "a2": format_rational(data.a2),
                  "e_minus": format_rational(data.e_minus),
                  "e_plus": format_rational(data.e_plus)}
    return edge(FAIL if residuals else PASS, detail, quantities, residuals)


def verify_interface(params: Params, centers: Iterable[KType],
                     table: Dict[Tuple[Fraction, int], Fraction]) -> SuiteReport:
    """Interface coherence between the multiplicity 1 and 2 parts.

    Per center: both mixed-multiplicity edges (f +- 1, under the -4i z
    normalization of the scalar part), and the four-corner square relation
    det B(alpha2) = (det M2 / det M1) det B(alpha1).
    """
    report = SuiteReport("interface")
    for center in centers:
        if center.multiplicity != 2 or center.j < Fraction(3, 2):
            continue
        for _, beta in case1_partners(center):
            if (beta.j, beta.eps) in table:
                report.checks.append(_check_case1_edge(params, center, beta, table))
        report.checks.append(_check_square(params, interface_square(center)))
    return report


def _check_square(params: Params, square) -> EdgeCheck:
    a1, a2 = square.alpha1, square.alpha2
    edge = partial(EdgeCheck, 2, a1, a2, Direction(1, 1))
    try:
        ca = block_coefficients(params, a1)
        cb = block_coefficients(params, a2)
        data = case2_data(params, a1, a2)
    except _SKIPPED as exc:
        return edge(*_skip(exc, "block"))
    det_m1, det_m2 = data.det_m1(), data.det_m2()
    if det_m1 == 0:
        return edge(SKIP_DEGENERATE, "det M1 = 0: propagation is vacuous")
    rho = z_product(params.r, z_terms(params, a2, 1, block=True)
                    + z_terms(params, a1, -1, block=True))
    if rho.kind != "finite":
        return edge(SKIP_POLE, f"shared-factor ratio is {rho.kind}")
    det_a = ca[0] * ca[3] - ca[1] * ca[2]
    det_b = cb[0] * cb[3] - cb[1] * cb[2]
    lhs = det_b * rho.value ** 2
    rhs = det_m2 / det_m1 * det_a
    quantities = {"det_m_ratio": format_rational(det_m2 / det_m1)}
    if lhs == rhs:
        return edge(PASS, quantities=quantities)
    return edge(FAIL, quantities=quantities, residuals={"det": format_rational(lhs - rhs)})


def resolve_block_factor_reading(params: Params, centers: Sequence[KType]) -> dict:
    """Adjudicate where the block's shared factor sits: weight f+1 or f.

    Tries both readings of the degeneration at r = 1/2, where -4 z is the
    first-order eigenvalue f - sJ, against the first-order block.  One is
    ``resolved`` only if it matched every checked center ('f+1' if both did),
    else 'neither', a verification failure; None when no center was checked
    (none has multiplicity two, or each one's r = 1/2 block is singular).
    """
    half_params = Params(params.n, Fraction(1, 2), params.f_lattice)
    outcome = {"f+1": 0, "f": 0, "checked": 0}
    for center in centers:
        if center.multiplicity != 2:
            continue
        try:
            coeffs = block_coefficients(half_params, center)
        except SingularCoefficientError:
            continue
        want = first_order_block(half_params, center)
        J, s = spectral_args(half_params, center)
        outcome["checked"] += 1
        for reading, f_fac in (("f+1", center.f + 1), ("f", center.f)):
            eigenvalue = exchanged_rs_eigenvalue(f_fac, J, s)
            got = tuple(c * eigenvalue for c in coeffs)
            if got == (want[0][0], want[0][1], want[1][0], want[1][1]):
                outcome[reading] += 1
    matched = [reading for reading in ("f+1", "f") if outcome[reading] == outcome["checked"]]
    outcome["resolved"] = (matched[0] if matched else "neither") if outcome["checked"] else None
    return outcome


def run_all_suites(params: Params, centers: Sequence[KType], f_min, f_max, j_max):
    """Drive all four suites on one K-type list plus calibration; returns
    (reports, calibrations).  The xi set follows ``centers``: each xi in it
    is calibrated and its interface suite gets that xi's centers.  A
    calibration with nothing to solve maps its xi to the
    :class:`EmptyWindowError` naming why, and that xi gets no interface
    checks (an interface center would need j >= 3/2 and an f point in the
    same window, so none exists).
    """
    reports: Dict[str, SuiteReport] = {}
    reports["mult1-quotients"] = verify_mult1_quotients(params, centers)
    reports["mult2-quotients"] = verify_mult2_quotients(params, centers)
    reports["case2-relation"] = verify_case2_relation(params, centers)
    calibrations: Dict[int, Union[CalibrationResult, EmptyWindowError]] = {}
    interface = SuiteReport("interface")
    for xi in sorted({c.xi for c in centers}):
        try:
            result = calibrate_L(params, xi, f_min, f_max, j_max)
        except EmptyWindowError as exc:
            calibrations[xi] = exc
            continue
        calibrations[xi] = result
        sub = verify_interface(params, [c for c in centers if c.xi == xi], result.table)
        interface.checks.extend(sub.checks)
    reports["interface"] = interface
    return reports, calibrations
