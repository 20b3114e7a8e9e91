"""Closed-form spectral data on the K-type lattice.

On multiplicity-one summands the operator eigenvalue is carried by the
spectral function ``z_value(r; f, J, s)``, a four-gamma quotient with
prefactor s/2 (s = xi*eps).  At r = 1/2 it collapses to the exact rational
-(f - s J)/4, a quarter of the order-one eigenvalue i(f - s J) divided by i.
At half-integer r, z = (s/2) (a)_{r-s/2} (b)_{r+s/2} in Pochhammer symbols,
a = (2f+2J-2r+2+s)/4, b = (-2f+2J-2r+2-s)/4: a polynomial for r = k + 1/2,
the reciprocal of one (a pole where a factor vanishes) for r = 1/2 - k.

On multiplicity-two summands the normalization determinant is carried by the
eight-gamma product w(r; f, J, s) = z(r; f, J-1, s) * z(r; f, J+1, s); its
exact ratios across diagram edges reproduce the determinant-quotient matrix
entry by entry.  The suites take such ratios with ``z_product`` (the
multiplicity-two suite on ``w_terms``), from the quotients' gamma arguments
(``_Z_GAMMAS``) and never from the closed forms' ``_corner_pairs``: each
pattern is telescoped once over (f, J, r), by the rule ``exact.telescope``
states, and evaluated on the integer terms of a run's label records, as an
unreduced int ratio (``exact.Tagged``), once per distinct ratio in a run
(``z_ratio``).
The closed forms are ints too: ``quotient_entries`` gives each entry as an
int (num, den) pair, and the block coefficients are four numerators over
one denominator (``block_ints``, at an integer point whose r terms the
run's ``Labels`` table holds).  The library functions that return ``Fraction``
values (``block_coefficients``, the quotient matrices) read the same
kernels.  The CLI's ``spectrum`` rows (:func:`spectrum_rows`) read each z
from its integer gamma forms (:func:`z_forms`, the triples of the quotient
``z_value`` would build, with no quotient and no ``_z_cached`` entry): its
float from ``exact.pq_numeric``, the one numeric kernel, on one log-gamma
table per run, and its value relative to the first z of its
commensurability class, chained (:class:`ZChains`): one ``z_product`` from
the previous finite z whose gamma arguments match as forms, and
``exact.pq_ratio`` on the triples only where a chain starts.

``block2x2`` reconstructs the whole 2x2 block on a multiplicity-two summand
as a rational coefficient matrix, evaluated on one integer scaling of
(f, J, r), sharing the factor z(r; f+1, J, s).
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

from fractions import Fraction
from math import gcd, lcm
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from . import faults
from .exact import (GammaPoleError, GammaQuotient, NonCommensurableError,
                    RationalLike, Record, Tagged, format_ratio, format_rational,
                    pq_classes, pq_numeric, pq_ratio, rational, telescope)
from .ktypes import (Direction, Key, KType, Label, Labels, Params, f2_range,
                     j2_range, spectral_args)
from .operators import case1_ints, case3_bracket

__all__ = [
    "Block",
    "QuotientEntry",
    "CalibrationResult",
    "z_value",
    "z_for",
    "z_forms",
    "mult2_gamma_product",
    "Tagged",
    "z_terms",
    "w_terms",
    "z_product",
    "z_ratio",
    "ZChains",
    "SPECTRUM_COLUMNS",
    "spectrum_rows",
    "quotient_entries",
    "render_entry",
    "mult1_quotient_matrix",
    "mult2_det_quotient_matrix",
    "block2x2",
    "block_ints",
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


# s -> (s/2, args): z(r; f, J, s) = s/2 prod Gamma((A f + B J + C r + K)/4)**e over args
_Z_GAMMAS = {s: (Fraction(s, 2), ((2, 2, 2, 2 - s, 1), (-2, 2, 2, 2 + s, 1),
                                  (2, 2, -2, 2 + s, -1), (-2, 2, -2, 2 - s, -1)))
             for s in (1, -1)}


@faults.run_memo
def _z_cached(r: Fraction, f: Fraction, J: Fraction, s: int) -> GammaQuotient:
    d = lcm(f.denominator, J.denominator)
    prefactor, pq = z_forms(r, d, f.numerator * (d // f.denominator),
                            J.numerator * (d // J.denominator), s)
    return GammaQuotient(prefactor, [(Fraction(p, q), e) for p, q, e in pq])


def z_forms(r: Fraction, scale: int, F: int, J: int, s: int) -> Tuple[Fraction, tuple]:
    """(s/2, triples): z(r; F/scale, J/scale, s)'s prefactor and its gamma
    arguments as (p, q, exp) triples on integers, the one statement of them
    (``_z_cached`` builds its quotient from them): each argument is (A F rd +
    B J rd + C rn scale + K scale rd) / (4 scale rd), equal arguments merged,
    zero exponents dropped, sorted by value and each reduced by its gcd.
    """
    prefactor, args = _Z_GAMMAS[s]
    rn, rd = r.numerator, r.denominator
    x, y, z, k = F * rd, J * rd, rn * scale, scale * rd
    w = 4 * k                       # one positive denominator: sort on the numerators
    merged: list = []
    for v, e in sorted([(A * x + B * y + C * z + K * k, e) for A, B, C, K, e in args]):
        if merged and merged[-1][0] == v:
            e += merged.pop()[1]
        merged.append((v, e))
    pq = []
    for v, e in merged:
        if e:
            g = gcd(v, w)
            pq.append((v // g, w // g, e))
    return prefactor, tuple(pq)


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


@faults.run_memo
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


def z_terms(label: Label, e: int, block: bool = False) -> tuple:
    """z at a label as (F, J, s, e) terms on its table's scale; ``block``: the
    block's shared factor z(r; f+1, J, s)."""
    return ((label.F + label.scale if block else label.F, label.J, label.s, e),)


def w_terms(label: Label, e: int) -> tuple:
    """The eight-gamma product z(r; f, J-1, s) z(r; f, J+1, s) as :func:`z_product` terms."""
    F, J, s, d = label.F, label.J, label.s, label.scale
    return ((F, J - d, s, e), (F, J + d, s, e))


@faults.memo
def _ratio_template(scale: int, pattern: tuple) -> tuple:
    """prod z(r; f0 + dF/scale, J0 + dJ/scale, s)**e over a pattern's (dF, dJ, s, e), in (f0, J0, r).

    (A, B, C, K) stands for the argument (A f0 + B J0 + C r)/4 + K/(4 scale).
    Those with equal (A, B, C) and constants an integer apart form a class,
    expanded into linear factors by ``exact.telescope`` on the constants.
    The value is num/den times prod (A x + B y + C z + K w)**e over the
    factors, with (x, y, z, w) = (f0 scale, J0 scale, r scale, 1) * r.denominator.
    """
    prefactor = Fraction(1)
    step = 4 * scale                # 1 in units of K
    classes: Dict[tuple, list] = {}
    for dF, dJ, s, e in pattern:
        pre, args = _Z_GAMMAS[s]
        prefactor *= pre ** e
        for A, B, C, K, sign in args:
            K = K * scale + A * dF + B * dJ
            classes.setdefault((A, B, C, K % step), []).append((K, sign * e))
    factors = [(A, B, C, k, e) for (A, B, C, _), items in classes.items()
               for k, e in telescope(items, step)]
    # each form is over step * w; a finite value's zero factors have exponents summing to 0
    factors.append((0, 0, 0, step, -sum(f[4] for f in factors)))
    return tuple(factors), prefactor.numerator, prefactor.denominator


def z_product(r: Fraction, scale: int, terms: Sequence[tuple]) -> Tagged:
    """prod z(r; F/scale, J/scale, s)**e over integer ``terms`` (F, J, s, e), tagged
    as by ``exact.ratio_tagged``.

    The terms' pattern (offsets from the first, each s and e) is telescoped
    once (``_ratio_template``), and its forms are taken on integers; a factor
    that is 0 adds its exponent to the vanishing order, as in ``exact.pq_ratio``.
    """
    F0, J0 = terms[0][0], terms[0][1]
    factors, num, den = _ratio_template(scale, tuple([(F - F0, J - J0, s, e)
                                                      for F, J, s, e in terms]))
    w = r.denominator
    x, y, z = F0 * w, J0 * w, r.numerator * scale
    order = 0
    for A, B, C, K, e in factors:
        v = A * x + B * y + C * z + K * w
        if v == 0:
            order += e
        elif e > 0:
            num *= v ** e
        else:
            den *= v ** -e
    return Tagged(order, num, den)


def z_ratio(labels: Labels, terms: tuple) -> Tagged:
    """:func:`z_product` of ``terms`` on the run's table: computed once per
    distinct terms and kept in ``labels.pairs`` under them, since the suites
    and the calibration meet most ratios more than once (a mult2 block ratio
    is a mult1 edge's ratio one step up in f).  A ratio whose classes do not
    balance raises each time it is asked for."""
    t = labels.pairs.get(terms)
    if t is None:
        t = labels.pairs[terms] = z_product(labels.params.r, labels.scale, terms)
    return t


class ZChains:
    """Each z(r; F/scale, J/scale, s) exactly relative to its base: the first z
    of its commensurability class (:func:`exact.pq_classes` of its
    :func:`z_forms` triples) given to it.

    A z is chained from the last z of its template class that is finite
    relative to the base.  Two z's share a template class when their gamma
    arguments match as forms in (f, J, r), constants congruent mod 4 scale,
    so one :func:`z_product` of the two reads the step off a two-term
    template: orders add and values multiply.  Their arguments then differ
    by integers, exponent by exponent, so a template class lies in one
    commensurability class, and a chained z takes its base from the z it is
    chained from; only a z with nothing to chain from reads its class key.
    A template class's first z takes one ``exact.pq_ratio`` against the base
    on their triples, times the prefactor ratio s * s_base, and so does each
    z while the class has no finite one yet; no ``GammaQuotient`` is built.
    One commensurability class may hold several template classes, where
    gammas cancel numerically but not as forms (r = 1/2).
    """

    def __init__(self, r: Fraction, scale: int):
        self.r, self.scale = r, scale
        self._bases: Dict[frozenset, Tuple[str, int, tuple]] = {}   # (label, s, triples)
        self._last: Dict[tuple, tuple] = {}     # (F, J, s, num, den, base)
        # per s, each argument's (A, B, K scale): its template constant is
        # A F + B J + K scale mod 4 scale
        self._forms = {s: [(A, B, K * scale) for A, B, _, K, _ in args]
                       for s, (_, args) in _Z_GAMMAS.items()}

    def relative(self, F: int, J: int, s: int, pq: tuple,
                 label: Callable[[], str]) -> Tuple[str, str]:
        """(z_rel, z_base) of z(r; F/scale, J/scale, s), whose :func:`z_forms`
        triples are ``pq``, as ``spectrum`` prints them; ``label()`` names z's
        row if that row becomes a base."""
        step = 4 * self.scale
        template = tuple([(A * F + B * J + K) % step for A, B, K in self._forms[s]])
        prev = self._last.get(template)
        if prev is None:
            classes = pq_classes(pq)
            base = self._bases.get(classes)
            if base is None:
                base = self._bases[classes] = (label(), s, pq)
                self._last[template] = (F, J, s, 1, 1, base)
                return "1", base[0]
            t, num, den = pq_ratio(pq, base[2]), s * base[1], 1
        else:
            pF, pJ, ps, num, den, base = prev
            t = z_product(self.r, self.scale, ((F, J, s, 1), (pF, pJ, ps, -1)))
        num, den = t.num * num, t.den * den
        g = gcd(num, den)
        rel = Tagged(t.order, num // g, den // g)
        if not rel.order:
            self._last[template] = (F, J, s, rel.num, rel.den, base)
        return rel.render(), base[0]


def _entry_kind(num, den) -> str:
    if den == 0:
        return "indeterminate" if num == 0 else "pole"
    return "zero" if num == 0 else "finite"


def render_entry(num, den) -> str:
    """A quotient entry num/den as the report writes it: p/q, POLE, 0 or INDET."""
    kind = _entry_kind(num, den)
    if kind == "finite":
        return format_ratio(num, den)
    return {"pole": "POLE", "zero": "0", "indeterminate": "INDET"}[kind]


class QuotientEntry(NamedTuple):
    """One quotient-matrix entry as a formal fraction of exact products.

    ``num`` and ``den`` are ints on the scale of :func:`quotient_entries`.
    kind: 'finite' (value = num/den), 'pole' (den = 0), 'zero' (num = 0), or
    'indeterminate' (both vanish: the displayed closed form cannot decide the
    edge and only the gamma-quotient route can).  It divides the quantity at
    ``neighbor``, one ``direction`` from the center, by the center's.
    """

    direction: Direction
    neighbor: KType
    num: int
    den: int

    @property
    def kind(self) -> str:
        return _entry_kind(self.num, self.den)

    @property
    def value(self) -> Optional[Fraction]:
        return Fraction(self.num, self.den) if self.kind == "finite" else None

    def render(self) -> str:
        return render_entry(self.num, self.den)


@faults.run_memo
def _corner_pairs(rn: int, rd: int, d: int, F: int, J: int, s: int):
    """Linear (numerator, denominator) pairs for all six directions, as ints.

    These are the multiplicity-one quotient entries at f = F/d, J = J/d,
    r = rn/rd, each form times 2 d rd; the determinant quotients are the
    same pairs squared minus one.
    """
    f, J, h, r = 2 * rd * F, 2 * rd * J, d * rd, 2 * d * rn      # h: 1/2
    sh, sJ = s * h, s * J
    return {
        (1, 1): (f + J + 2 * h + r - sh, f + J + 2 * h - r + sh),
        (-1, 1): (-f + J + 2 * h + r + sh, -f + J + 2 * h - r - sh),
        (1, 0): (f + h + r + sJ, f + h - r - sJ),
        (-1, 0): (-f + h + r - sJ, -f + h - r + sJ),
        (1, -1): (f - J + 2 * h + r + sh, f - J + 2 * h - r - sh),
        (-1, -1): (-f - J + 2 * h + r - sh, -f - J + 2 * h - r + sh),
    }


def quotient_entries(labels: Labels, center: Label) -> List[Tuple[Direction, Label, int, int]]:
    """(direction, neighbor, num, den) of the center's quotient matrix, in ``DIRECTIONS`` order.

    A multiplicity-one center gives the eigenvalue quotients, a
    multiplicity-two center the determinant quotients; num and den are ints
    over (2 d r.denominator) and its square.  Each determinant entry is a
    product of two factors over a product of two factors; the lone
    chirality factors pair off as (Y - xi)(Y + xi) = Y^2 - 1, so it is
    (Y_num^2 - 1)/(Y_den^2 - 1) on the linear pairs of
    :func:`_corner_pairs`.  The strict middle-right denominator carries
    xi*J where the gamma-product oracle demands eps*xi*J; the corrected
    factor is the default and ``params.strict_paper`` restores the strict one.
    """
    params, d = labels.params, labels.scale
    rn, rd = params.r.numerator, params.r.denominator
    raw = _corner_pairs(rn, rd, d, center.F, center.J, center.s)
    unit = 2 * d * rd
    out = []
    arrows = iter(labels.neighbors(center))
    if center.ktype.q == 1:
        for direction, nb in zip(arrows, arrows):
            num, den = raw[direction]
            out.append((direction, nb, faults.bump("Q1", num, unit), den))
        return out
    sq = unit * unit
    xi = center.ktype.xi
    for direction, nb in zip(arrows, arrows):
        y_num, y_den = raw[direction]
        if params.strict_paper and direction == (1, 0):
            den = (y_den - xi * unit) * (y_den + xi * unit + (center.s - xi) * 2 * rd * center.J)
        else:
            den = y_den * y_den - sq
        out.append((direction, nb, faults.bump("Q2", y_num * y_num - sq, sq), den))
    return out


def _quotient_matrix(params: Params, center: KType) -> Dict[Direction, QuotientEntry]:
    labels = Labels(params)
    return {direction: QuotientEntry(direction, nb.ktype, num, den)
            for direction, nb, num, den in quotient_entries(labels, labels.of(center))}


def mult1_quotient_matrix(params: Params, center: KType) -> Dict[Direction, QuotientEntry]:
    """Eigenvalue quotients around a multiplicity-one center, as {direction: entry}.

    Keys run in ``DIRECTIONS`` order, the diagram's 3x2 layout: rows dj = +1,
    0, -1 by columns df = -1, +1, the middle row flipping eps; the bottom row
    is absent at the lattice boundary.  Entries are :func:`quotient_entries`.
    """
    if center.multiplicity != 1:
        raise ValueError("mult1_quotient_matrix needs a multiplicity-1 center")
    return _quotient_matrix(params, center)


def mult2_det_quotient_matrix(params: Params, center: KType) -> Dict[Direction, QuotientEntry]:
    """Determinant quotients around a multiplicity-two center, as {direction: entry}.

    Keys as in :func:`mult1_quotient_matrix`; entries are :func:`quotient_entries`.
    """
    if center.multiplicity != 2:
        raise ValueError("mult2_det_quotient_matrix needs a multiplicity-2 center")
    return _quotient_matrix(params, center)


@faults.run_memo
def _block_coeffs(n: int, X: int, Y: int, Z: int, d: int, xi: int, strict_paper: bool
                  ) -> Union[str, Tuple[int, int, int, int, int]]:
    # on the integer scaling f = X/d, Ja = Y/d, r = Z/d each ck is an integer over
    # d (C1, C3, C6) or d^2 (C2, C4, C5), and b11..b22 are four numerators over
    # one denominator; a singular block is cached too, as the name of the
    # vanished coefficient
    m = n - 1
    c1 = 2*m*(X + Z) + m*m*d - 2*xi*Y
    c2 = 2*X*Z + xi*Y*d
    c3 = m*d + 2*Z
    c4 = (2*(X + Z + Y) - xi*d) * (2*(X + Z - Y) + xi*d)
    c5 = (m*d + 2*Y) * (m*d - 2*Y)
    c6 = 2*m*(X - Z) + m*m*d + 2*xi*Y
    if faults.ARMED:            # each row of a tabulation runs here: no site call unarmed
        c1, c3, c6 = faults.bump("C1", c1, d), faults.bump("C3", c3, d), faults.bump("C6", c6, d)
        c2, c4, c5 = (faults.bump("C2", c2, d ** 2), faults.bump("C4", c4, d ** 2),
                      faults.bump("C5", c5, d ** 2))
    for name, c in (("C3", c3), ("C4", c4), ("C1", c1)):
        if c == 0:
            return name
    T = c3 * c4
    # the strict first term of the (2,2) coefficient drops a factor n(n-2);
    # the corrected value is forced exactly by the mixed-multiplicity relations
    scale = 1 if strict_paper else n * (n - 2)
    # b11 = (4 c1 c2 - m T)/(m T), b12 = -2 (n-2) xi c5 c2/(m^2 T d),
    # b21 = 8 n xi c2 d/T, b22 = (m c6 T - 4 scale c5 c2)/(m c1 T)
    return ((4*c1*c2 - m*T) * m * d * c1, -2 * (n - 2) * xi * c5 * c2 * c1,
            8 * n * xi * c2 * m * m * d * d * c1, (m*c6*T - 4*scale*c5*c2) * m * d,
            m * m * T * d * c1)


def block_ints(labels: Labels, label: Label) -> Union[str, Tuple[int, int, int, int, int]]:
    """(b11, b12, b21, b22, den) of a multiplicity-two label on its table's
    scale, or the name of the vanished coefficient: the kernel reads (n, F rd,
    eps J rd, rn scale, scale rd, xi, strict_paper) from ``labels.block_terms``."""
    xi, _, _, _, eps = label.key
    n, rd, Z, D, strict = labels.block_terms
    return _block_coeffs(n, label.F * rd, eps * label.J * rd, Z, D, xi, strict)


def block_coefficients(params: Params, center: KType
                       ) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four rational coefficients (b11, b12, b21, b22) of the 2x2 block:
    :func:`block_ints` on the center's record in a table of its own."""
    labels = Labels(params)
    coeffs = block_ints(labels, labels.of(center))
    if isinstance(coeffs, str):
        raise SingularCoefficientError(coeffs, center)
    *nums, den = coeffs
    return tuple(Fraction(num, den) for num in nums)


SPECTRUM_COLUMNS = ("xi", "f", "j", "q", "eps", "mult", "z_rel", "z_base",
                    "z_numeric", "b11", "b12", "b21", "b22", "note")


def spectrum_rows(params: Params, keys: Sequence[Key]) -> Iterator[tuple]:
    """An iterator of :data:`SPECTRUM_COLUMNS` rows of str cells, one per
    label key, on integers: f and J (:meth:`Labels.spectral_J`) on one scale,
    one z per (f, J, s) from its :func:`z_forms`, each z_rel chained by
    :class:`ZChains`, and each block read from the kernel past its table,
    which a tabulation would fill and never hit.

    A run computes each value its window repeats once, in tables that are
    locals of the call and its rows: J per (2j, eps), read from
    ``ktypes.label_dirac`` on the ints (n, 2j, eps) and looked up once per
    key; the cells of each distinct z; each gamma argument's (log|Gamma|,
    sign), one table for every ``exact.pq_numeric`` call; the block kernel's
    r terms (``labels.block_terms``) and eps J rd per (2j, eps); the text of
    each 2f, 2j and small int.  No Fraction is made per key, and the block
    kernel makes no fault-site call while nothing is armed.  What can raise
    is done at the call, in key order: every J, and every distinct z (a z
    whose log-gammas cancel past lgamma's range raises ``OverflowError``
    naming its row).  The rows are lazy; each block is read as its row is
    drawn, and nothing keeps a row once it is given: the CLI writes each as
    it comes (``cli._rows_text``)."""
    labels = Labels(params)
    r, scale = params.r, labels.scale
    half = scale // 2
    xis, f2s, j2s, qs, epss = zip(*keys) if keys else ((),) * 5
    Js = {je: labels.spectral_J(*je) for je in dict.fromkeys(zip(j2s, epss))}
    chains = ZChains(r, scale)
    lgammas: Dict[Tuple[int, int], Tuple[float, int]] = {}
    z_cells: Dict[Tuple[int, int, int], tuple] = {}
    z_tails = []        # the row tail of each q = 1 key, in key order
    for xi, f2, j2, q, eps in keys:
        if not q:
            continue
        F, J, s = f2 * half, Js[j2, eps], xi * eps
        tail = z_cells.get((F, J, s))       # the xi = +-1 rows of one (f, J, s) share z
        if tail is None:
            prefactor, pq = z_forms(r, scale, F, J, s)
            label = lambda: KType(xi, Fraction(f2, 2), Fraction(j2, 2), q, eps).label()
            try:
                numeric = f"{pq_numeric(prefactor, pq, lgammas):.15g}"
            except GammaPoleError:
                numeric = "POLE"
            except OverflowError as exc:
                raise OverflowError(f"{label()}: {exc}") from None
            tail = z_cells[F, J, s] = ("1", *chains.relative(F, J, s, pq, label), numeric,
                                       "", "", "", "", "")
        z_tails.append(tail)
    n, rd, Z, D, strict = labels.block_terms
    X = half * rd                   # the kernel's F rd is 2f X
    Ys = {(j2, eps): eps * J * rd for (j2, eps), J in Js.items()}
    block = _block_coeffs.__wrapped__
    texts = {k: format_ratio(k, 2) for k in {*f2s, *j2s}}
    small = {k: str(k) for k in {*xis, *qs, *epss}}

    def rows() -> Iterator[tuple]:
        z_tail = iter(z_tails).__next__
        for xi, f2, j2, q, eps in keys:
            head = (small[xi], texts[f2], texts[j2], small[q], small[eps])
            if q:
                yield head + z_tail()
                continue
            coeffs = block(n, f2 * X, Ys[j2, eps], Z, D, xi, strict)
            if isinstance(coeffs, str):
                yield head + ("2", "", "", "", "", "", "", "", f"SINGULAR({coeffs})")
            else:
                b11, b12, b21, b22, den = coeffs
                yield head + ("2", "", "", "", format_ratio(b11, den), format_ratio(b12, den),
                              format_ratio(b21, den), format_ratio(b22, den), "")

    return rows()


class Block(NamedTuple):
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
    J, s = spectral_args(params, center)
    return Block(center, _z_cached(params.r, center.f + 1, J, s), coeffs)


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
    e11 = faults.bump("E11", -Fraction(n - 2, n) * (f + sign * Fraction(n + 1, n - 1) * s * J))
    e12 = -Fraction(2 * xi, n * (n - 1)) * (Fraction((n - 1) * (n - 2), 4)
                                            - Fraction(n - 2, n - 1) * J * J)
    e21 = Fraction(2 * xi)
    e22 = f - Fraction(n - 3, n - 1) * s * J
    return ((e11, e12), (e21, e22))


# ---------------------------------------------------------------------------
# calibration of the divergence-part eigenvalue
# ---------------------------------------------------------------------------

class CalibrationResult(Record):
    """Solved divergence eigenvalues plus the evidence for their constraints.

    ``table`` maps (j, eps) to L.  ``difference_edges`` counts the quotient
    identities that constrained the solve, ``unconstraining_edges`` the ones
    that degenerate (quotient -1).  The additive constant is pinned by one
    mixed-multiplicity ``probe``; without one the table is determined only up
    to that constant, which ``issues`` reports as ``unpinned-constant``.
    """

    __slots__ = ("table", "difference_edges", "unconstraining_edges", "probe")

    def __init__(self, table: Dict[Tuple[Fraction, int], Fraction], difference_edges: int,
                 unconstraining_edges: int, probe: Optional[dict]):
        self.table, self.difference_edges = table, difference_edges
        self.unconstraining_edges, self.probe = unconstraining_edges, probe

    @property
    def consistent(self) -> bool:
        return self.probe is not None

    @property
    def issues(self) -> List[dict]:
        return [] if self.consistent else [{"kind": "unpinned-constant"}]


def calibrate_L(labels: Labels, xi: int, f_min: RationalLike, f_max: RationalLike,
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
    order.  ``labels`` is the run's record table and its one source of n
    and r (the variant, ``strict_paper``, does not reach the solve).  Each
    edge is decided on integers: the z-ratio by :func:`z_ratio` on the
    table, the bracket by ``operators.case3_bracket``, and the class pair's
    difference as an int (num, den) compared by cross multiplication; a
    Fraction is made once per constrained class pair.

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
    f_lo, f_hi, j_hi = rational(f_min), rational(f_max), rational(j_max)
    params = labels.params
    r = params.r

    # nodes are (2j, eps) classes: d33 cannot depend on f
    nodes = [(j2, eps) for j2 in j2_range(j_hi, 1) for eps in (1, -1)]
    f2s = f2_range(params, f_lo, f_hi)
    if not nodes:
        raise EmptyWindowError("empty calibration window: no (j, eps) class "
                               f"with 3/2 <= j <= {format_rational(j_hi)}")
    if not f2s:
        raise EmptyWindowError("empty calibration window: no circle weight in "
                               f"[{format_rational(f_lo)}, {format_rational(f_hi)}]")
    node_set = set(nodes)

    # each constrained class pair keeps its delta as (num, den) and the edge
    # that set it; the edge is only formatted into a witness when a conflict raises
    deltas: Dict[Tuple[Tuple[int, int], Tuple[int, int]], Tuple[int, int, Label, Label]] = {}
    n_edges = 0
    n_unconstraining = 0
    rn, rd = r.numerator, r.denominator

    for node in nodes:
        for f2 in f2s:
            center = labels.at((xi, f2, node[0], 1, node[1]))
            at_center = z_terms(center, -1)
            for nb in labels.neighbors(center)[1::2]:
                nb_node = (nb.key[2], nb.key[4])
                if nb_node not in node_set:
                    continue
                try:
                    zr = z_ratio(labels, z_terms(nb, 1) + at_center)
                except NonCommensurableError:       # a shifted Dirac convention, say
                    raise InconsistentSystemError(
                        "the z-ratio's gamma classes do not balance on the edge "
                        f"{center.ktype.label()} -> {nb.ktype.label()}",
                        witness={"edge": _edge_witness(center, nb)}) from None
                mid, mid_den = case3_bracket(center, nb)
                # with S = mid_den rd: mid + r = plus/S and mid - r = minus/S
                plus, minus, S = mid * rd + rn * mid_den, mid * rd - rn * mid_den, mid_den * rd
                xd = xi if center.F > nb.F else -xi
                if zr.order == 0:
                    p, q = zr.num, zr.den
                    if p == -q:
                        # P- = -P+ whatever the table: P- + P+ = 2 mid
                        if mid != 0:
                            raise InconsistentSystemError(
                                "unconstraining edge with a nonzero bracket",
                                witness={"edge": _edge_witness(center, nb),
                                         "residual": format_ratio(2 * mid, mid_den)})
                        n_unconstraining += 1
                        continue
                    delta = (p * plus - q * minus, S * xd * (q + p))
                elif zr.order < 0:
                    delta = (plus, S * xd)        # p_plus must vanish
                else:
                    delta = (-minus, S * xd)      # p_minus must vanish
                n_edges += 1
                key = (node, nb_node)
                prev = deltas.get(key)
                if prev is not None and prev[0] * delta[1] != delta[0] * prev[1]:
                    was, now = Fraction(prev[0], prev[1]), Fraction(*delta)
                    raise InconsistentSystemError(
                        "conflicting difference constraints for "
                        f"{_class_name(key[0])} - {_class_name(key[1])}: {was} vs {now}",
                        witness={"edge": dict(_edge_witness(center, nb),
                                              delta=format_rational(now)),
                                 "previous": dict(_edge_witness(prev[2], prev[3]),
                                                  delta=format_rational(was)),
                                 "residual": format_rational(now - was)})
                deltas[key] = (*delta, center, nb)

    # spanning solve over the (j, eps) graph; non-tree edges must close
    potential: Dict[Tuple[int, int], Fraction] = {nodes[0]: Fraction(0)}
    frontier = [nodes[0]]
    adj: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], Fraction]]] = {}
    for (a, b), (num, den, _, _) in deltas.items():
        delta = Fraction(num, den)
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
                    witness={"node": [format_ratio(b[0], 2), b[1]],
                             "residual": format_rational(want - have)})
    missing = [nd for nd in nodes if nd not in potential]
    if missing:
        raise InconsistentSystemError(
            f"calibration window leaves {len(missing)} classes unconstrained")

    shift, probe = _pin_constant(labels, xi, f2s, potential)
    table = {(Fraction(j2, 2), eps): 2 * (pot + shift)
             for (j2, eps), pot in sorted(potential.items())}
    return CalibrationResult(table, n_edges, n_unconstraining, probe)


def _class_name(node: Tuple[int, int]) -> str:
    return f"(j={format_ratio(node[0], 2)}, eps={node[1]:+d})"


def _edge_witness(center: Label, nb: Label) -> dict:
    return {"center": center.ktype.to_json(), "neighbor": nb.ktype.to_json()}


def _pin_constant(labels, xi, f2s, potential):
    """Fix the additive constant via one mixed-multiplicity relation.

    Uses the f+1 partner, whose z factor coincides with the block's shared
    factor, so the relation A2 b11 - E- b21 = -A2 (``row.1`` of
    ``verify._check_case1_edge`` at rho = 1) reduces to rationals.  A2 and
    E- at d33 = 0 are :func:`case1_ints`, b11 and b21 :func:`block_ints`
    (b22, the one coefficient ``strict_paper`` changes, is not read); E-
    grows by xi d33 toward the f+1 partner, so the relation fixes the
    partner's d33, and the constant is d33 less the class's potential.
    """
    zero = Fraction(0)
    for f2 in f2s:
        for (j2, eps), pot in sorted(potential.items()):
            alpha = labels.at((xi, f2, j2, 0, eps))
            block = block_ints(labels, alpha)
            if isinstance(block, str) or block[2] == 0:
                continue
            b11, _, b21, _, den = block
            beta = labels.at((xi, f2 + 2, j2, 1, eps))
            P, _, a2, e_minus, _ = case1_ints(labels, alpha, beta, zero)
            if a2 == 0:
                continue
            # E- = (e_minus + xi P d33)/P must be a2 (b11 + den)/(P b21); d33 = pot + t
            t = Fraction(xi * (a2 * (b11 + den) - e_minus * b21), P * b21) - pot
            probe = {"alpha": alpha.ktype.to_json(), "beta": beta.ktype.to_json(),
                     "shift": format_rational(t)}
            return t, probe
    return zero, None
