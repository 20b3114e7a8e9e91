"""Closed-form spectral data on the K-type lattice.

On multiplicity-one summands the operator eigenvalue is carried by the
spectral function ``z_value(r; f, J, s)``, a four-gamma quotient with
prefactor s/2 (s = xi*eps).  At r = 1/2 it collapses to the exact rational
-(f - s J)/4, a quarter of the order-one eigenvalue i(f - s J) divided by i.

On multiplicity-two summands the normalization determinant is carried by the
eight-gamma product w(r; f, J, s) = z(r; f, J-1, s) * z(r; f, J+1, s); its
exact ratios across diagram edges reproduce the determinant-quotient matrix
entry by entry.  The suites take such ratios with ``z_product`` (the
multiplicity-two suite on ``w_terms``), from the quotients' gamma arguments
(``_z_gammas``) and never from the closed forms' ``_corner_pairs``: each
pattern is telescoped once over (f, J, r) and evaluated on integers.  The
CLI's ``spectrum`` keeps ``exact.ratio_tagged``: each row's offset from its
base is a new pattern, so templates would be built and kept once per row.

``block2x2`` reconstructs the whole 2x2 block on a multiplicity-two summand
as a rational coefficient matrix sharing the factor z(r; f+1, J, s).
``Params.strict_paper`` selects, for a whole run, the strict variants of it
and two other closed forms, which reproduce misprints: its (2,2)
coefficient drops a factor n(n-2).  The operator normalization pins the
multiplicity-one block to -4i * z, under which the r = 1/2 block matches the
first-order (exchanged Rarita-Schwinger) matrix entry by entry.

The divergence-part sphere eigenvalue L is never assumed: ``calibrate_L``
solves the overdetermined system of multiplicity-one relations for it and
returns the table the other modules consume.  Every such relation on the
window is either one of the solve's equations or checked inside the solve, so
a returned table satisfies all of them; the mixed-multiplicity relations it
feeds are checked by the interface suite in ``verify``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import faults
from .exact import (GammaQuotient, NonCommensurableError, RationalLike,
                    ReducedValue, format_rational, rational)
from .ktypes import (DEFAULT_EIGENVALUES, HALF, Direction, KType, Params,
                     f_points, neighbors, spectral_args)
from .operators import case1_mid, case3_mid, d_block

__all__ = [
    "Block",
    "QuotientEntry",
    "CalibrationResult",
    "z_value",
    "z_for",
    "mult2_gamma_product",
    "z_terms",
    "w_terms",
    "z_product",
    "mult1_quotient_matrix",
    "mult2_det_quotient_matrix",
    "block2x2",
    "block_coefficients",
    "first_order_block",
    "exchanged_rs_eigenvalue",
    "calibrate_L",
    "SingularCoefficientError",
    "InconsistentSystemError",
    "EmptyWindowError",
]


class SingularCoefficientError(ArithmeticError):
    """A block denominator coefficient vanished; carries which one."""

    def __init__(self, which: str, ktype: KType):
        self.which = which
        self.ktype = ktype
        super().__init__(f"coefficient {which} vanishes at {ktype.label()}")


class InconsistentSystemError(ArithmeticError):
    """The calibration system has no solution; carries the violating edge."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        self.witness = witness or {}
        super().__init__(message)


class EmptyWindowError(InconsistentSystemError):
    """The calibration window holds no (j, eps) class or no circle weight."""


def _z_gammas(s: int):
    """(s/2, args): z(r; f, J, s) = s/2 prod Gamma((A f + B J + C r + K)/4)**e over args."""
    return Fraction(s, 2), ((2, 2, 2, 2 - s, 1), (-2, 2, 2, 2 + s, 1),
                            (2, 2, -2, 2 + s, -1), (-2, 2, -2, 2 - s, -1))


@faults.memo
def _z_cached(r: Fraction, f: Fraction, J: Fraction, s: int) -> GammaQuotient:
    d = lcm(f.denominator, J.denominator, r.denominator)
    x, y, z = (v.numerator * (d // v.denominator) for v in (f, J, r))
    prefactor, args = _z_gammas(s)
    return GammaQuotient(prefactor, [(Fraction(A * x + B * y + C * z + K * d, 4 * d), e)
                                     for A, B, C, K, e in args])


def z_value(params: Params, f: RationalLike, J: RationalLike, xi_eps: int) -> GammaQuotient:
    """Spectral function on a multiplicity-one summand, as a gamma quotient.

    J is the unsigned sphere Dirac eigenvalue j + (n-2)/2 of the label and
    xi_eps = xi * eps.  Poles and zeros at non-positive integer arguments are
    flagged on the quotient, never raised.
    """
    if xi_eps not in (1, -1):
        raise ValueError("xi_eps must be +1 or -1")
    return _z_cached(params.r, rational(f), rational(J), xi_eps)


def z_for(params: Params, ktype: KType) -> GammaQuotient:
    """z_value at a K-type's own label data."""
    J, s = spectral_args(params, ktype)
    return _z_cached(params.r, ktype.f, J, s)


@faults.memo
def _w_cached(r: Fraction, f: Fraction, J: Fraction, s: int) -> GammaQuotient:
    return _z_cached(r, f, J - 1, s) * _z_cached(r, f, J + 1, s)


def mult2_gamma_product(params: Params, f: RationalLike, J: RationalLike,
                        xi_eps: int) -> GammaQuotient:
    """Eight-gamma normalization product on a multiplicity-two summand.

    It is z(r; f, J-1, s) * z(r; f, J+1, s), the multiplicity-one spectral
    function at the two Dirac eigenvalues one step either side of J.
    """
    if xi_eps not in (1, -1):
        raise ValueError("xi_eps must be +1 or -1")
    return _w_cached(params.r, rational(f), rational(J), xi_eps)


def z_terms(params: Params, ktype: KType, e: int, block: bool = False) -> tuple:
    """z at a label as (f, J, s, e) terms; ``block``: the block's shared factor z(r; f+1, J, s)."""
    J, s = spectral_args(params, ktype)
    return ((ktype.f + 1 if block else ktype.f, J, s, e),)


def w_terms(params: Params, ktype: KType, e: int) -> tuple:
    """The eight-gamma product z(r; f, J-1, s) z(r; f, J+1, s) as :func:`z_product` terms."""
    J, s = spectral_args(params, ktype)
    return ((ktype.f, J - 1, s, e), (ktype.f, J + 1, s, e))


@faults.memo
def _ratio_template(lcd: int, pattern: tuple) -> tuple:
    """prod z(r; f0 + dF/lcd, J0 + dJ/lcd, s)**e over a pattern's (dF, dJ, s, e), in (f0, J0, r).

    (A, B, C, K) stands for the argument (A f0 + B J0 + C r)/4 + K/(4 lcd).
    Those with equal (A, B, C) and constants an integer apart form a class,
    telescoped to its least constant as ``exact._reduce_classes`` does with
    numbers.  The value is num/den times prod (A x + B y + C z + K w)**e over
    the factors, with (x, y, z, w) = (f0 lcd, J0 lcd, r lcd, 1) * r.denominator.
    """
    prefactor = Fraction(1)
    step = 4 * lcd                  # 1 in units of K
    classes: Dict[tuple, list] = {}
    for dF, dJ, s, e in pattern:
        pre, args = _z_gammas(s)
        prefactor *= pre ** e
        for A, B, C, K, sign in args:
            K = K * lcd + A * dF + B * dJ
            classes.setdefault((A, B, C, K % step), []).append((K, sign * e))
    chain: Dict[tuple, int] = {}
    for (A, B, C, _), items in classes.items():
        if sum(e for _, e in items):
            raise NonCommensurableError("a gamma class of the pattern does not balance")
        k0 = min(K for K, _ in items)
        for K, e in items:
            for k in range(k0, K, step):
                chain[A, B, C, k] = chain.get((A, B, C, k), 0) + e
    # each form is over step * w; a finite value's zero factors have exponents summing to 0
    factors = [(*form, e) for form, e in chain.items() if e]
    factors.append((0, 0, 0, step, -sum(chain.values())))
    return tuple(factors), prefactor.numerator, prefactor.denominator


def z_product(r: Fraction, terms: Sequence[tuple]) -> ReducedValue:
    """prod z(r; f, J, s)**e over ``terms`` of (f, J, s, e), tagged as by ``exact.ratio_tagged``.

    The terms' pattern (offsets from the first, each s and e) is telescoped
    once, and its forms are taken on integers; a factor that is 0 adds its
    exponent to the vanishing order, as in ``_reduce_classes``.
    """
    lcd = lcm(*[x.denominator for f, J, _, _ in terms for x in (f, J)])
    ints = [(f.numerator * (lcd // f.denominator), J.numerator * (lcd // J.denominator), s, e)
            for f, J, s, e in terms]
    F0, J0 = ints[0][0], ints[0][1]
    factors, num, den = _ratio_template(lcd, tuple([(F - F0, J - J0, s, e) for F, J, s, e in ints]))
    w = r.denominator
    x, y, z = F0 * w, J0 * w, r.numerator * lcd
    order = 0
    for A, B, C, K, e in factors:
        v = A * x + B * y + C * z + K * w
        if v == 0:
            order += e
        elif e > 0:
            num *= v ** e
        else:
            den *= v ** -e
    if order:
        return ReducedValue("zero" if order > 0 else "pole", Fraction(0), abs(order))
    return ReducedValue("finite", Fraction(num, den))


@dataclass(frozen=True)
class QuotientEntry:
    """One quotient-matrix entry as a formal fraction of exact products.

    kind: 'finite' (value = num/den), 'pole' (den = 0), 'zero' (num = 0), or
    'indeterminate' (both vanish: the displayed closed form cannot decide the
    edge and only the gamma-quotient route can).  It divides the quantity at
    ``neighbor``, one ``direction`` from the center, by the center's.
    """

    direction: Direction
    neighbor: KType
    num: Fraction
    den: Fraction

    @property
    def kind(self) -> str:
        if self.num == 0 and self.den == 0:
            return "indeterminate"
        if self.den == 0:
            return "pole"
        if self.num == 0:
            return "zero"
        return "finite"

    @property
    def value(self) -> Optional[Fraction]:
        return self.num / self.den if self.kind == "finite" else None

    def render(self) -> str:
        k = self.kind
        if k == "finite":
            return format_rational(self.value)
        return {"pole": "POLE", "zero": "0", "indeterminate": "INDET"}[k]


@faults.memo
def _corner_pairs(r: Fraction, f: Fraction, J: Fraction, s: int):
    """Linear (numerator, denominator) pairs for all six directions.

    These are the multiplicity-one quotient entries; the determinant
    quotients are the same pairs squared minus one.
    """
    sh = Fraction(s, 2)
    sJ = s * J
    return {
        (1, 1): (f + J + 1 + r - sh, f + J + 1 - r + sh),
        (-1, 1): (-f + J + 1 + r + sh, -f + J + 1 - r - sh),
        (1, 0): (f + HALF + r + sJ, f + HALF - r - sJ),
        (-1, 0): (-f + HALF + r - sJ, -f + HALF - r + sJ),
        (1, -1): (f - J + 1 + r + sh, f - J + 1 - r - sh),
        (-1, -1): (-f - J + 1 + r - sh, -f - J + 1 - r + sh),
    }


def mult1_quotient_matrix(params: Params, center: KType) -> Dict[Direction, QuotientEntry]:
    """Eigenvalue quotients around a multiplicity-one center, as {direction: entry}.

    Keys run in ``DIRECTIONS`` order, the diagram's 3x2 layout: rows dj = +1,
    0, -1 by columns df = -1, +1, the middle row flipping eps; the bottom row
    is absent at the lattice boundary.
    """
    if center.multiplicity != 1:
        raise ValueError("mult1_quotient_matrix needs a multiplicity-1 center")
    J, s = spectral_args(params, center)
    raw = _corner_pairs(params.r, center.f, J, s)
    entries = {}
    for direction, nb in neighbors(center):
        num, den = raw[direction]
        entries[direction] = QuotientEntry(direction, nb, faults.bump("Q1", num), den)
    return entries


def mult2_det_quotient_matrix(params: Params, center: KType) -> Dict[Direction, QuotientEntry]:
    """Determinant quotients around a multiplicity-two center, as {direction: entry}.

    Keys as in :func:`mult1_quotient_matrix`.  Each entry is a product of two factors over a product of two factors;
    the lone chirality factors pair off as (Y - xi)(Y + xi) = Y^2 - 1, so
    every entry is (Y_num^2 - 1)/(Y_den^2 - 1) on the linear pairs of
    :func:`_corner_pairs`.  The strict middle-right denominator carries
    xi*J where the gamma-product oracle demands eps*xi*J; the corrected
    factor is the default and ``params.strict_paper`` restores the strict one.
    """
    if center.multiplicity != 2:
        raise ValueError("mult2_det_quotient_matrix needs a multiplicity-2 center")
    f, r, xi = center.f, params.r, center.xi
    J, s = spectral_args(params, center)
    raw = _corner_pairs(r, f, J, s)
    entries = {}
    for direction, nb in neighbors(center):
        y_num, y_den = raw[direction]
        num = y_num * y_num - 1
        if params.strict_paper and direction == (1, 0):
            den = (f + HALF - xi - r - s * J) * (f + HALF + xi - r - xi * J)
        else:
            den = y_den * y_den - 1
        entries[direction] = QuotientEntry(direction, nb, faults.bump("Q2", num), den)
    return entries


@faults.memo
def _block_coeffs(n: int, r: Fraction, f: Fraction, Ja: Fraction, xi: int,
                  strict_paper: bool
                  ) -> Union[str, Tuple[Fraction, Fraction, Fraction, Fraction]]:
    # a singular block is cached too, as the name of the vanished coefficient
    c1 = faults.bump("C1", 2*f*n - 2*f - 2*n + 1 + n*n + 2*r*n - 2*r - 2*xi*Ja)
    c2 = faults.bump("C2", 2*f*r + xi*Ja)
    c3 = faults.bump("C3", Fraction(n - 1) + 2*r)
    c4 = faults.bump("C4", (2*f + 2*r - xi + 2*Ja) * (2*f + 2*r + xi - 2*Ja))
    c5 = faults.bump("C5", Fraction(n - 1 + 2*Ja) * (n - 1 - 2*Ja))
    c6 = faults.bump("C6", 2*f*n - 2*f - 2*n + 1 + n*n - 2*r*n + 2*r + 2*xi*Ja)
    for name, c in (("C3", c3), ("C4", c4), ("C1", c1)):
        if c == 0:
            return name
    b11 = 4*c1*c2 / ((n - 1) * c3 * c4) - 1
    b12 = -2 * (n - 2) * xi * c5 * c2 / ((n - 1) ** 2 * c3 * c4)
    b21 = 8 * n * xi * c2 / (c3 * c4)
    # the strict first term of the (2,2) coefficient drops a factor n(n-2);
    # the corrected value is forced exactly by the mixed-multiplicity relations
    scale = 1 if strict_paper else n * (n - 2)
    b22 = -4 * scale * c5 * c2 / ((n - 1) * c1 * c3 * c4) + c6 / c1
    return b11, b12, b21, b22


def block_coefficients(params: Params, center: KType
                       ) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four rational coefficients (b11, b12, b21, b22) of the 2x2 block."""
    Ja = DEFAULT_EIGENVALUES.dirac(params, center.j, center.eps)
    coeffs = _block_coeffs(params.n, params.r, center.f, Ja, center.xi, params.strict_paper)
    if isinstance(coeffs, str):
        raise SingularCoefficientError(coeffs, center)
    return coeffs


@dataclass(frozen=True)
class Block:
    """The 2x2 block of the operator on a multiplicity-two K-type.

    ``coefficients`` (b11, b12, b21, b22) is the rational matrix that
    multiplies the common gamma-quotient ``factor`` z(r; f+1, J, s); the
    block's determinant is rational times factor^2.
    """

    ktype: KType
    factor: GammaQuotient
    coefficients: Tuple[Fraction, Fraction, Fraction, Fraction]


def block2x2(params: Params, center: KType) -> Block:
    """The 2x2 block on a multiplicity-two K-type.

    The shared factor sits at circle weight f+1; the reading at weight f
    fails the r = 1/2 degeneration (see ``verify.resolve_block_factor_reading``).
    """
    if center.multiplicity != 2:
        raise ValueError("block2x2 needs a multiplicity-2 center")
    coeffs = block_coefficients(params, center)
    f, J, s, _ = z_terms(params, center, 1, block=True)[0]
    return Block(center, _z_cached(params.r, f, J, s), coeffs)


def exchanged_rs_eigenvalue(f: RationalLike, J: RationalLike, xi_eps: int) -> Fraction:
    """First-order eigenvalue i (f - s J) on a multiplicity-one summand, divided by i.

    Free of n and r.  Equals -4 times z_value at r = 1/2; vanishes exactly
    on the kernel line f = s J.
    """
    return rational(f) - xi_eps * rational(J)


def first_order_block(params: Params, center: KType
                      ) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """The first-order 2x2 block, divided by the common factor i.

    This is the independent target for the r = 1/2 degeneration of
    ``block2x2``.  The strict variant carries +s J inside the (1,1) entry where
    the mixed-multiplicity relations force -s J; corrected by default,
    ``params.strict_paper`` restores it.
    """
    n, f, xi = params.n, center.f, center.xi
    J, s = spectral_args(params, center)
    sign = 1 if params.strict_paper else -1
    e11 = -Fraction(n - 2, n) * (f + sign * Fraction(n + 1, n - 1) * s * J)
    e12 = -Fraction(2 * xi, n * (n - 1)) * (Fraction((n - 1) * (n - 2), 4)
                                            - Fraction(n - 2, n - 1) * J * J)
    e21 = Fraction(2 * xi)
    e22 = f - Fraction(n - 3, n - 1) * s * J
    return ((e11, e12), (e21, e22))


# ---------------------------------------------------------------------------
# calibration of the divergence-part eigenvalue
# ---------------------------------------------------------------------------

@dataclass
class CalibrationResult:
    """Solved divergence eigenvalues plus the evidence for their constraints.

    ``table`` maps (j, eps) to L.  ``difference_edges`` counts the quotient
    identities that constrained the solve, ``unconstraining_edges`` the ones
    that degenerate (quotient -1).  The additive constant is pinned by one
    mixed-multiplicity ``probe``; without one the table is determined only up
    to that constant, which ``issues`` reports as ``unpinned-constant``.
    """

    table: Dict[Tuple[Fraction, int], Fraction]
    difference_edges: int
    unconstraining_edges: int
    probe: Optional[dict]

    @property
    def consistent(self) -> bool:
        return self.probe is not None

    @property
    def issues(self) -> List[dict]:
        return [] if self.consistent else [{"kind": "unpinned-constant"}]


def calibrate_L(params: Params, xi: int, f_min: RationalLike, f_max: RationalLike,
                j_max: RationalLike) -> CalibrationResult:
    """Solve the quotient identities for the divergence-part eigenvalues.

    Every multiplicity-one edge in the window forces a difference of d33
    values between its endpoint (j, eps) classes; the differences must agree
    across the whole f-window, close around cycles, and leave exactly one
    additive constant free, which a mixed-multiplicity probe then pins.  An
    edge whose z-ratio is -1 constrains nothing, and its relation holds for
    every table iff its bracket vanishes.  So a returned table satisfies the
    multiplicity-one relation on every edge of the window.  Raises
    :class:`InconsistentSystemError` with the violating edge if the
    overdetermined system has no solution, and :class:`EmptyWindowError` when
    the window holds nothing to solve.  The table is built in sorted (j, eps)
    order.

    The solved L is the signed sphere Dirac eigenvalue ``label_dirac(n, j,
    eps)`` = J_signed.  With d33 = J_signed/2 each direction's P-/P+ is that
    direction's :func:`_corner_pairs` entry: along (1, 1), mid = -(f + J + 1),
    xd = -xi and the d33 difference is -eps/2, so P-/P+ = (f + J + 1 + r -
    s/2)/(f + J + 1 - r + s/2).  The multiplicity-one suite certifies those
    entries against z, so J_signed/2 meets every difference constraint, and
    it meets the probe's row relation too, so the pinned constant adds no
    offset to it.  At n = 4, r = -3/2, C3 = n - 1 + 2r = 0 makes every block
    singular and no probe exists; the table stays anchored at
    L(3/2, +1) = 0, which is label_dirac - 5/2.
    """
    params = replace(params, strict_paper=False)   # always the corrected closed forms
    f_lo, f_hi, j_hi = rational(f_min), rational(f_max), rational(j_max)
    r = params.r

    # nodes are (j, eps) classes: d33 cannot depend on f
    nodes: List[Tuple[Fraction, int]] = []
    j = Fraction(3, 2)
    while j <= j_hi:
        nodes += [(j, 1), (j, -1)]
        j += 1
    fs = f_points(params, f_lo, f_hi)
    if not nodes:
        raise EmptyWindowError("empty calibration window: no (j, eps) class "
                               f"with 3/2 <= j <= {format_rational(j_hi)}")
    if not fs:
        raise EmptyWindowError("empty calibration window: no circle weight in "
                               f"[{format_rational(f_lo)}, {format_rational(f_hi)}]")
    node_set = set(nodes)

    # each constrained class pair keeps its delta and the edge that set it;
    # the edge is only formatted into a witness when a conflict raises
    deltas: Dict[Tuple[Tuple[Fraction, int], Tuple[Fraction, int]],
                 Tuple[Fraction, KType, KType]] = {}
    n_edges = 0
    n_unconstraining = 0

    for (j, eps) in nodes:
        for f in fs:
            center = KType(xi, f, j, 1, eps)
            at_center = z_terms(params, center, -1)
            for _, nb in neighbors(center):
                if (nb.j, nb.eps) not in node_set:
                    continue
                zr = z_product(r, z_terms(params, nb, 1) + at_center)
                mid = case3_mid(params, center, nb)
                xd = xi * (center.f - nb.f)
                if zr.kind == "finite":
                    if zr.value == -1:
                        # P- = -P+ whatever the table: P- + P+ = 2 mid
                        if mid != 0:
                            raise InconsistentSystemError(
                                "unconstraining edge with a nonzero bracket",
                                witness={"edge": {"center": center.to_json(),
                                                  "neighbor": nb.to_json()},
                                         "residual": format_rational(2 * mid)})
                        n_unconstraining += 1
                        continue
                    delta = (zr.value * (mid + r) - (mid - r)) / (xd * (1 + zr.value))
                elif zr.kind == "pole":
                    delta = (mid + r) / xd        # p_plus must vanish
                else:
                    delta = (r - mid) / xd        # p_minus must vanish
                n_edges += 1
                key = ((j, eps), (nb.j, nb.eps))
                prev = deltas.get(key)
                if prev is not None and prev[0] != delta:
                    raise InconsistentSystemError(
                        "conflicting difference constraints for "
                        f"{_class_name(key[0])} - {_class_name(key[1])}: {prev[0]} vs {delta}",
                        witness={"edge": _edge_witness(delta, center, nb),
                                 "previous": _edge_witness(*prev),
                                 "residual": format_rational(delta - prev[0])})
                deltas[key] = (delta, center, nb)

    # spanning solve over the (j, eps) graph; non-tree edges must close
    potential: Dict[Tuple[Fraction, int], Fraction] = {nodes[0]: Fraction(0)}
    frontier = [nodes[0]]
    adj: Dict[Tuple[Fraction, int], List[Tuple[Tuple[Fraction, int], Fraction]]] = {}
    for (a, b), (delta, _, _) in deltas.items():
        adj.setdefault(a, []).append((b, -delta))   # x_b = x_a - delta
        adj.setdefault(b, []).append((a, delta))
    while frontier:
        a = frontier.pop()
        for b, step in adj.get(a, ()):
            want = potential[a] + step
            have = potential.get(b)
            if have is None:
                potential[b] = want
                frontier.append(b)
            elif have != want:
                raise InconsistentSystemError(
                    f"difference cycle through {_class_name(b)} does not close",
                    witness={"node": [format_rational(b[0]), b[1]],
                             "residual": format_rational(want - have)})
    missing = [nd for nd in nodes if nd not in potential]
    if missing:
        raise InconsistentSystemError(
            f"calibration window leaves {len(missing)} classes unconstrained")

    shift, probe = _pin_constant(params, xi, fs, potential)
    table = {nd: 2 * (pot + shift) for nd, pot in sorted(potential.items())}
    return CalibrationResult(table, n_edges, n_unconstraining, probe)


def _class_name(node: Tuple[Fraction, int]) -> str:
    return f"(j={format_rational(node[0])}, eps={node[1]:+d})"


def _edge_witness(delta: Fraction, center: KType, nb: KType) -> dict:
    return {"center": center.to_json(), "neighbor": nb.to_json(),
            "delta": format_rational(delta)}


def _pin_constant(params, xi, fs, potential):
    """Fix the additive constant via one mixed-multiplicity relation.

    Uses the f+1 partner, whose z factor coincides with the block's shared
    factor, so the relation A2 b11 - E- b21 = -A2 reduces to rationals.
    """
    for f in fs:
        for (j, eps), pot in sorted(potential.items()):
            alpha = KType(xi, f, j, 0, eps)
            beta = KType(xi, f + 1, j, 1, eps)
            try:
                b11, _, b21, _ = block_coefficients(params, alpha)
            except SingularCoefficientError:
                continue
            if b21 == 0:
                continue
            d_a = d_block(params, alpha)
            a2 = -xi * (alpha.f - beta.f) * d_a.d21
            if a2 == 0:
                continue
            # E- required by the relation, then solve for the constant in
            # E- = mid - r + xi (f - f') (d22 - (pot + t))
            e_minus = a2 * (b11 + 1) / b21
            mid = case1_mid(params, alpha, beta)
            xd = xi * (alpha.f - beta.f)
            # e_minus = mid - r + xd*d22 - xd*pot - xd*t
            t = (mid - params.r + xd * d_a.d22 - xd * pot - e_minus) / xd
            probe = {"alpha": alpha.to_json(), "beta": beta.to_json(),
                     "shift": format_rational(t)}
            return t, probe
    return Fraction(0), None
