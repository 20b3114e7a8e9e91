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
``case2_data(...).c_ba`` from the label-pair row; compressing the Bochner
Laplacian commutator gives a quadratic coefficient, which is -2 times the
bracket ``case3_bracket`` on a same-multiplicity pair and -+2 times
``case1_bracket`` on a mixed pair.  Together they produce the three families
of transition quantities that drive every spectral recursion: mixed
multiplicity (A1, A2, E-, E+), multiplicity two to two (F1-+, F2-+, G1, G2),
and multiplicity one to one (P-, P+).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, NamedTuple, Optional, Tuple, Union

from . import faults
from .ktypes import (DEFAULT_EIGENVALUES, KType, Label, Labels, Params,
                     label_dirac, label_twistor_tt)

__all__ = [
    "DBlock",
    "Case1Data",
    "Case2Data",
    "Case3Data",
    "d_block",
    "case1_data",
    "case1_bracket",
    "case1_ints",
    "case2_data",
    "case2_ints",
    "relation_matrices",
    "det2",
    "case3_data",
    "case3_bracket",
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


def classify_pair(frm: KType, to: KType) -> Optional[str]:
    """'same-mult' for one-step pairs with equal q, 'mixed' for q-flipped partners.

    Same-q transitions allow any eps combination with |df| = 1 and |dj| <= 1
    (the transition quantities are defined for general neighbor labels; the
    six-arrow diagram is the subset the verification suites walk).  Mixed
    pairs keep j (at least 3/2) and eps and flip q.  Only the ``case*_data``
    records ask, so it compares the labels' Fractions.
    """
    if frm.xi != to.xi or abs(to.f - frm.f) != 1:
        return None
    if frm.q == to.q:
        return "same-mult" if to.j - frm.j in (-1, 0, 1) else None
    if frm.j == to.j and frm.eps == to.eps and frm.j >= Fraction(3, 2):
        return "mixed"
    return None


class Case1Data(NamedTuple):
    """Mixed-multiplicity transition quantities; E+ + E- is r-free."""

    a1: Fraction
    a2: Fraction
    e_minus: Fraction
    e_plus: Fraction


def _over(unit: int, *values) -> Tuple[int, ...]:
    """(P, numerators): the values over one denominator P, a multiple of ``unit``."""
    P = lcm(unit, *(v.denominator for v in values))
    return (P, *(v.numerator * (P // v.denominator) for v in values))


def case1_bracket(labels: Labels, alpha: Label, beta: Label) -> Tuple[int, int]:
    """(num, den) of the r-free, L-free bracket (f^2 - f'^2)/2 - (n-2)/2 that E-
    and E+ share on the mixed pair alpha -> beta; den = 2 scale^2."""
    d = labels.scale
    return alpha.F * alpha.F - beta.F * beta.F - (labels.params.n - 2) * d * d, 2 * d * d


def case1_ints(labels: Labels, alpha: Label, beta: Label, d33: Fraction) -> Tuple[int, ...]:
    """(P, A1, A2, E-, E+): the mixed pair's quantities as numerators over P.

    ``d33`` is beta's L/2.  A1, A2 and the d22 - d33 term depend on the
    labels only and are kept in ``labels.pairs``; each edge adds the
    bracket and the r terms.
    """
    kt = alpha.ktype
    xd = kt.xi if alpha.F > beta.F else -kt.xi          # xi (f - f')
    key = ("case1", alpha.key[2], kt.eps, xd, d33.numerator, d33.denominator)
    row = labels.pairs.get(key)
    if row is None:
        params, d = labels.params, labels.scale
        rd = params.r.denominator
        d_a = _d_entries(params.n, label_dirac(params.n, alpha.key[2], kt.eps))
        row = labels.pairs[key] = _over(2 * d * d * rd, xd * d_a.d12, -xd * d_a.d21,
                                        xd * (d_a.d22 - d33), params.r)
    P, a1, a2, dd, r = row
    num, den = case1_bracket(labels, alpha, beta)
    mid = num * (P // den)
    return P, a1, a2, mid - r + dd, mid + r - dd


def case1_data(params: Params, alpha: KType, beta: KType,
               table: Dict[Tuple[Fraction, int], Fraction]) -> Case1Data:
    """Quantities for a multiplicity-2 label alpha paired with a q=1 label beta.

    Needs the calibrated divergence eigenvalue at beta; raises MissingL
    without one.  The values are :func:`case1_ints`.
    """
    if alpha.multiplicity != 2 or beta.multiplicity != 1:
        raise NotNeighborsError("case1_data wants (multiplicity-2, multiplicity-1)")
    if classify_pair(alpha, beta) != "mixed":
        raise NotNeighborsError(f"{alpha.label()} and {beta.label()} are not a mixed pair")
    labels = Labels(params)
    P, *nums = case1_ints(labels, labels.of(alpha), labels.of(beta), _d33(table, beta))
    return Case1Data(*(Fraction(x, P) for x in nums))


class Case2Data(NamedTuple):
    """Multiplicity 2 -> 2 transition quantities; ``relation_matrices(*data)``
    gives their relation matrices (M1, M2)."""

    f1_minus: Fraction
    f1_plus: Fraction
    f2_minus: Fraction
    f2_plus: Fraction
    g1: Fraction
    g2: Fraction
    c_ba: Fraction


def relation_matrices(f1_minus, f1_plus, f2_minus, f2_plus, g1, g2, c_ba):
    """(M1, M2) = (((F1-, g2), (g1, c_ba F2-)), ((F1+, -g2), (-g1, c_ba F2+))).

    On :func:`case2_ints` numerators over P, pass F1 and g times P and F2
    and c_ba as they are: every entry then comes out over P^2.
    """
    return (((f1_minus, g2), (g1, c_ba * f2_minus)),
            ((f1_plus, -g2), (-g1, c_ba * f2_plus)))


def det2(m) -> Union[int, Fraction]:
    """The determinant of a 2x2 matrix ((a, b), (c, d))."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def case2_ints(labels: Labels, alpha: Label, beta: Label) -> Optional[Tuple[int, ...]]:
    """(P, F1-, F1+, F2-, F2+, g1, g2, c_ba) of the multiplicity-2 edge alpha ->
    beta as numerators over P; None when beta sits at the lattice bottom.

    With s = xi (f' - f) and mid = (f'^2 - f^2)/2 + (J'^2 - J^2)/2:
    F1-+ = mid -+ r +- s (d11' - d11), F2-+ likewise with d22,
    g1 = s (d21' - c_ba d21) and g2 = s (c_ba d12' - d12).  All but the
    f and r terms depend only on the two labels (j, eps) and (j', eps'):
    with c_ba they are one row over one denominator, made once per run in
    ``labels.pairs`` from ``_d_entries`` and the Dirac eigenvalues.  Since
    f' - f = +-1, each edge computes only mid = (f' - f) f + 1/2 +
    (J'^2 - J^2)/2, the sign s and the r terms.  Note g1 = s (-n) (1 - c_ba)
    since the (2,1) operator entry is label-independent.
    """
    key = ("case2", alpha.key[2], alpha.key[4], beta.key[2], beta.key[4])
    row = labels.pairs.get(key, False)
    if row is False:
        n, r, d = labels.params.n, labels.params.r, labels.scale
        lam_b = label_twistor_tt(n, beta.ktype.j)
        if lam_b:
            Ja, Jb = label_dirac(n, key[1], key[2]), label_dirac(n, key[3], key[4])
            c_ba = (Jb * Jb / 2 + Ja * Ja / 2 - Ja * Jb / Fraction(n - 1)
                    - Fraction(n * (n - 1), 4)) / lam_b
            a11, a12, a21, a22 = _d_entries(n, Ja)
            b11, b12, b21, b22 = _d_entries(n, Jb)
            P, *nums = _over(d * r.denominator, c_ba, (Jb * Jb - Ja * Ja + 1) / 2,
                             b11 - a11, b22 - a22, b21 - c_ba * a21, c_ba * b12 - a12, r)
            row = (P, P // d, *nums)
        else:
            row = None
        labels.pairs[key] = row
    if row is None:
        return None
    P, unit, c_ba, mid0, dd1, dd2, g1, g2, r = row
    up = beta.F > alpha.F
    mid = (alpha.F if up else -alpha.F) * unit + mid0
    lo, hi = mid - r, mid + r
    if (alpha.ktype.xi > 0) != up:
        dd1, dd2, g1, g2 = -dd1, -dd2, -g1, -g2
    return P, lo + dd1, hi - dd1, lo + dd2, hi - dd2, g1, g2, c_ba


def case2_data(params: Params, alpha: KType, beta: KType) -> Case2Data:
    """Quantities for a multiplicity-2 edge alpha -> beta: :func:`case2_ints`.

    Raises DegenerateTarget when beta sits at the lattice bottom.
    """
    if classify_pair(alpha, beta) != "same-mult" or alpha.multiplicity != 2:
        raise NotNeighborsError(f"{alpha.label()} -> {beta.label()} is not a multiplicity-2 edge")
    labels = Labels(params)
    ints = case2_ints(labels, labels.of(alpha), labels.of(beta))
    if ints is None:
        raise DegenerateTargetError(
            f"lambda(T*T) = 0 at target {beta.label()}; compression undefined")
    P, *nums = ints
    return Case2Data(*(Fraction(x, P) for x in nums))


class Case3Data(NamedTuple):
    """Multiplicity 1 -> 1 transition quantities; P+ + P- is r-free."""

    p_minus: Fraction
    p_plus: Fraction


def case3_bracket(alpha: Label, beta: Label) -> Tuple[int, int]:
    """(num, den) of the r-free, L-free bracket (f^2 - f'^2)/2 + (J^2 - J'^2)/2
    that P- and P+ share on the edge alpha -> beta; den = 2 scale^2."""
    return (alpha.F * alpha.F - beta.F * beta.F + alpha.J * alpha.J - beta.J * beta.J,
            2 * alpha.scale * alpha.scale)


def case3_data(params: Params, alpha: KType, beta: KType,
               table: Dict[Tuple[Fraction, int], Fraction]) -> Case3Data:
    """Quantities for a multiplicity-1 edge with alpha as center, beta as neighbor."""
    if classify_pair(alpha, beta) != "same-mult" or alpha.multiplicity != 1:
        raise NotNeighborsError(f"{alpha.label()} -> {beta.label()} is not a multiplicity-1 edge")
    r = params.r
    labels = Labels(params)
    mid = Fraction(*case3_bracket(labels.of(alpha), labels.of(beta)))
    dd = alpha.xi * (alpha.f - beta.f) * (_d33(table, alpha) - _d33(table, beta))
    return Case3Data(mid - r + dd, mid + r - dd)
