"""Compressed operator data between neighboring K-types.

The first-order sphere operator has, on each (j, eps) label, a 3x3 block
matrix relative to the Clifford-range / twistor-range / divergence
decomposition:

    [ (n+1)/(2(n-1)) J      (n-2)/4 - (n-2) J^2/(n-1)^2   0   ]
    [ -n                    (n-3)/(2(n-1)) J              0   ]
    [ 0                     0                             L/2 ]

with J the signed Dirac eigenvalue and L the divergence-part eigenvalue,
read from a calibration table {(j, eps): L}.

Compressing the conformal factor between neighboring labels multiplies the
twistor-range part by the rational coefficient c_ba, read as
``case2_data(...).c_ba`` from the label-pair table; compressing the Bochner
Laplacian commutator gives a quadratic coefficient, which is -2 times the
bracket ``case3_mid`` on a same-multiplicity pair and -+2 times ``case1_mid``
on a mixed pair.  Together they produce the three families of transition
quantities that drive every spectral recursion: mixed multiplicity (A1, A2,
E-, E+), multiplicity two to two (F1-+, F2-+, G1, G2), and multiplicity one
to one (P-, P+).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from . import faults
from .ktypes import (DEFAULT_EIGENVALUES, KType, Params, label_dirac,
                     label_twistor_tt)

__all__ = [
    "DBlock",
    "Case1Data",
    "Case2Data",
    "Case3Data",
    "d_block",
    "case1_data",
    "case1_mid",
    "case2_data",
    "case3_data",
    "case3_mid",
    "classify_pair",
    "DegenerateTargetError",
    "NotNeighborsError",
    "MissingLError",
]


class DegenerateTargetError(ArithmeticError):
    """Target label has lambda(T*T) = 0; the twistor-range compression is undefined."""


class NotNeighborsError(ValueError):
    """The two labels are not a transition pair."""


class MissingLError(LookupError):
    """No calibrated divergence-part eigenvalue available for the label."""


class DBlock(NamedTuple):
    """Upper-left 2x2 of the operator block at one (j, eps) label, as memoized
    by ``_d_entries``; d33 = L/2 needs the calibrated L (:func:`_d33`)."""

    d11: Fraction
    d12: Fraction
    d21: Fraction
    d22: Fraction


@faults.memo
def _d_entries(n: int, J_signed: Fraction) -> DBlock:
    # D11 and D22 are perturbed in their Dirac-eigenvalue coefficients: the
    # identities consume only label differences of both (and d22 - d33, whose
    # constant part the calibrated L absorbs), so a constant shift of either
    # is a gauge freedom no suite could (or should) detect
    d11 = faults.bump("D11", Fraction(n + 1, 2 * (n - 1))) * J_signed
    d12 = faults.bump("D12", Fraction(n - 2, 4) - Fraction(n - 2, (n - 1) ** 2) * J_signed ** 2)
    d21 = faults.bump("D21", Fraction(-n))
    d22 = faults.bump("D22", Fraction(n - 3, 2 * (n - 1))) * J_signed
    return DBlock(d11, d12, d21, d22)


def d_block(params: Params, ktype: KType) -> DBlock:
    """The memoized ``_d_entries`` row at the label of ``ktype``; it depends
    on the label only through the signed Dirac eigenvalue."""
    J = DEFAULT_EIGENVALUES.dirac(params, ktype.j, ktype.eps)
    return _d_entries(params.n, J)


def _d33(table: Dict[Tuple[Fraction, int], Fraction], ktype: KType) -> Fraction:
    """d33 = L/2 at the label of ``ktype``; MissingL when the table has no L there."""
    L = table.get((ktype.j, ktype.eps))
    if L is None:
        raise MissingLError(f"no divergence eigenvalue for {ktype.label()}")
    return faults.bump("D33", L / 2)


class _PairRow(NamedTuple):
    """Label-only data of a multiplicity-2 transition a -> b."""

    c_ba: Fraction
    mid0: Fraction       # (J_b^2 - J_a^2 + 1)/2, the f-free part of mid
    dd11: Fraction       # d11(b) - d11(a)
    dd22: Fraction       # d22(b) - d22(a)
    g1: Fraction         # d21(b) - c_ba d21(a)
    g2: Fraction         # c_ba d12(b) - d12(a)


@faults.memo
def _label_pair(n: int, ja: Fraction, ea: int, jb: Fraction, eb: int
                ) -> Optional[_PairRow]:
    # keyed on n and the two labels only, so a long-lived process holds one
    # row per label pair whatever r it is asked about; None for a
    # degenerate target
    lam_b = label_twistor_tt(n, jb)
    if lam_b == 0:
        return None
    Ja, Jb = label_dirac(n, ja, ea), label_dirac(n, jb, eb)
    cba = (Jb * Jb / 2 + Ja * Ja / 2 - Ja * Jb / Fraction(n - 1)
           - Fraction(n * (n - 1), 4)) / lam_b
    a11, a12, a21, a22 = _d_entries(n, Ja)
    b11, b12, b21, b22 = _d_entries(n, Jb)
    return _PairRow(cba, (Jb * Jb - Ja * Ja + 1) / 2, b11 - a11, b22 - a22,
                    b21 - cba * a21, cba * b12 - a12)


def classify_pair(frm: KType, to: KType) -> Optional[str]:
    """'same-mult' for one-step pairs with equal q, 'mixed' for q-flipped partners.

    Same-q transitions allow any eps combination with |df| = 1 and |dj| <= 1
    (the transition quantities are defined for general neighbor labels; the
    six-arrow diagram is the subset the verification suites walk).  Mixed
    pairs keep j and eps and flip q.
    """
    # f' - f and j' - j as unreduced (num, den) int pairs, den > 0
    f, f2, j, j2 = frm.f, to.f, frm.j, to.j
    fd = f.denominator * f2.denominator
    fn = f2.numerator * f.denominator - f.numerator * f2.denominator
    if frm.xi != to.xi or (fn != fd and fn != -fd):
        return None
    jd = j.denominator * j2.denominator
    jn = j2.numerator * j.denominator - j.numerator * j2.denominator
    if frm.q == to.q:
        return "same-mult" if jn % jd == 0 and -jd <= jn <= jd else None
    if jn == 0 and frm.eps == to.eps and 2 * j.numerator >= 3 * j.denominator:
        return "mixed"
    return None


@dataclass(frozen=True)
class Case1Data:
    """Mixed-multiplicity transition quantities; E+ + E- is r-free."""

    a1: Fraction
    a2: Fraction
    e_minus: Fraction
    e_plus: Fraction


def case1_mid(params: Params, alpha: KType, beta: KType) -> Fraction:
    """The r-free, L-free bracket shared by E- and E+ on the mixed pair alpha -> beta."""
    return (alpha.f ** 2 - beta.f ** 2) / 2 - Fraction(params.n - 2, 2)


def case1_data(params: Params, alpha: KType, beta: KType,
               table: Dict[Tuple[Fraction, int], Fraction]) -> Case1Data:
    """Quantities for a multiplicity-2 label alpha paired with a q=1 label beta.

    Needs the calibrated divergence eigenvalue at beta; raises MissingL
    without one.
    """
    if alpha.multiplicity != 2 or beta.multiplicity != 1:
        raise NotNeighborsError("case1_data wants (multiplicity-2, multiplicity-1)")
    if classify_pair(alpha, beta) != "mixed":
        raise NotNeighborsError(f"{alpha.label()} and {beta.label()} are not a mixed pair")
    d_a = d_block(params, alpha)
    d33 = _d33(table, beta)
    df = alpha.f - beta.f
    r = params.r
    a1 = alpha.xi * df * d_a.d12
    a2 = -alpha.xi * df * d_a.d21
    mid = case1_mid(params, alpha, beta)
    dd = alpha.xi * df * (d_a.d22 - d33)
    return Case1Data(a1, a2, mid - r + dd, mid + r - dd)


@dataclass(frozen=True)
class Case2Data:
    """Multiplicity 2 -> 2 transition quantities and their relation matrices."""

    f1_minus: Fraction
    f1_plus: Fraction
    f2_minus: Fraction
    f2_plus: Fraction
    g1: Fraction
    g2: Fraction
    c_ba: Fraction

    def m1(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        return ((self.f1_minus, self.g2), (self.g1, self.c_ba * self.f2_minus))

    def m2(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        return ((self.f1_plus, -self.g2), (-self.g1, self.c_ba * self.f2_plus))

    def det_m1(self) -> Fraction:
        return self.c_ba * self.f1_minus * self.f2_minus - self.g1 * self.g2

    def det_m2(self) -> Fraction:
        return self.c_ba * self.f1_plus * self.f2_plus - self.g1 * self.g2


def case2_data(params: Params, alpha: KType, beta: KType) -> Case2Data:
    """Quantities for a multiplicity-2 edge alpha -> beta.

    With s = xi (f' - f) and mid = (f'^2 - f^2)/2 + (J'^2 - J^2)/2:
    F1-+ = mid -+ r +- s (d11' - d11), F2-+ likewise with d22,
    g1 = s (d21' - c_ba d21) and g2 = s (c_ba d12' - d12).  All but the
    f and r terms depend only on the two labels and come from the row keyed
    on (n, j, eps, j', eps'), c_ba among them; since f' - f = +-1,
    each edge computes only mid = (f' - f) f + 1/2 + (J'^2 - J^2)/2, the
    sign s and the r terms.  Raises DegenerateTarget when beta sits at the
    lattice bottom.  Note g1 = s (-n) (1 - c_ba) since the (2,1) operator
    entry is label-independent.
    """
    if classify_pair(alpha, beta) != "same-mult" or alpha.multiplicity != 2:
        raise NotNeighborsError(f"{alpha.label()} -> {beta.label()} is not a multiplicity-2 edge")
    row = _label_pair(params.n, alpha.j, alpha.eps, beta.j, beta.eps)
    if row is None:
        raise DegenerateTargetError(
            f"lambda(T*T) = 0 at target {beta.label()}; compression undefined")
    up = beta.f > alpha.f
    mid = (alpha.f if up else -alpha.f) + row.mid0
    lo, hi = mid - params.r, mid + params.r
    dd1, dd2, g1, g2 = row.dd11, row.dd22, row.g1, row.g2
    if (alpha.xi > 0) != up:
        dd1, dd2, g1, g2 = -dd1, -dd2, -g1, -g2
    return Case2Data(lo + dd1, hi - dd1, lo + dd2, hi - dd2, g1, g2, row.c_ba)


@dataclass(frozen=True)
class Case3Data:
    """Multiplicity 1 -> 1 transition quantities; P+ + P- is r-free."""

    p_minus: Fraction
    p_plus: Fraction


def case3_mid(params: Params, alpha: KType, beta: KType) -> Fraction:
    """The r-free, L-free bracket shared by P- and P+ on the edge alpha -> beta."""
    Ja = DEFAULT_EIGENVALUES.dirac(params, alpha.j, alpha.eps)
    Jb = DEFAULT_EIGENVALUES.dirac(params, beta.j, beta.eps)
    return (alpha.f ** 2 - beta.f ** 2) / 2 + (Ja * Ja - Jb * Jb) / 2


def case3_data(params: Params, alpha: KType, beta: KType,
               table: Dict[Tuple[Fraction, int], Fraction]) -> Case3Data:
    """Quantities for a multiplicity-1 edge with alpha as center, beta as neighbor."""
    if classify_pair(alpha, beta) != "same-mult" or alpha.multiplicity != 1:
        raise NotNeighborsError(f"{alpha.label()} -> {beta.label()} is not a multiplicity-1 edge")
    r = params.r
    mid = case3_mid(params, alpha, beta)
    dd = alpha.xi * (alpha.f - beta.f) * (_d33(table, alpha) - _d33(table, beta))
    return Case3Data(mid - r + dd, mid + r - dd)
