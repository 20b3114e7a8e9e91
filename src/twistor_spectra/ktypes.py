"""Isotypic lattice for twistor fields over a circle times an even sphere.

A K-type is labelled by a global chirality ``xi``, a circle weight ``f``, a
sphere label ``(j, 1/2 + q, 1/2, ..., 1/2, eps/2)`` with ``j in 1/2 + q + N``
and ``eps = +-1``.  Types with ``q = 0`` occur with multiplicity two (the
Clifford-range and twistor-range summands), types with ``q = 1`` with
multiplicity one (the divergence summand).

Sphere eigenvalue data hangs off the label: the Dirac eigenvalue
``J_signed = eps * (j + (n-2)/2)`` and the twistor Laplacian eigenvalue
``lambda(T*T) = ((n-2)/(n-1)) * (J^2 - ((n-1)/2)^2)``, which vanishes exactly
at the bottom label ``j = 1/2``.  The Dirac eigenvalue is memoized on the
ints (n, 2j, eps) and passes the ``DIRAC`` fault site so tests can check
that the suites reject a shifted convention; lambda(T*T) is read by
``operators.case2_ints`` alone, once per label pair of a run.  The
divergence-part eigenvalue ``L`` is calibrated.

A verify run reads each label through one :class:`Label` record of a
:class:`Labels` table, keyed by the small ints (xi, 2f, 2j, q, eps): its
``KType`` and its (J, s) on the run's integer scale; the table keeps, once
asked for, each record's diagram neighbors as one flat list of directions and
records, so no record refers to another and no arrow costs a tuple.  A label
is its key: the diagram's arrows, partners and interface square walk keys; a
table reads J from :func:`label_dirac`'s memo (:meth:`Labels.spectral_J`) and
holds the block kernel's run terms.
A window is two integer ranges, its 2f (:func:`f2_range`) and its 2j
(:func:`j2_range`), read off the bounds' numerators and denominators, so its
size is known without walking it; :func:`range_keys` walks them.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import faults
from .exact import Frozen, RationalLike, format_rational, rational

__all__ = [
    "Params",
    "KType",
    "Direction",
    "DIRECTIONS",
    "SphereEigenvalues",
    "DEFAULT_EIGENVALUES",
    "spectral_args",
    "Label",
    "Labels",
    "label_key",
    "partner_keys",
    "label_dirac",
    "label_scale",
    "label_twistor_tt",
    "make_ktype",
    "interface_square",
    "f2_range",
    "j2_range",
    "window_keys",
    "range_keys",
    "enumerate_ktypes",
    "BadDimensionError",
    "InvalidWeightError",
]


class BadDimensionError(ValueError):
    """Sphere factor dimension must be even and at least 4."""


class InvalidWeightError(ValueError):
    """Label violates the weight lattice constraints."""


class Params(Frozen):
    """Global configuration: dimension n, half-order r, circle weight lattice
    (``"half"``: f in Z + 1/2, ``"int"``: f in Z), and the variant of the
    closed forms (``strict_paper``: the misprinted ones).  Immutable."""

    __slots__ = ("n", "r", "f_lattice", "strict_paper")

    def __init__(self, n: int, r: RationalLike, f_lattice: str = "half",
                 strict_paper: bool = False):
        if n % 2 != 0 or n < 4:
            raise BadDimensionError("n must be even and >= 4")
        r = rational(r)
        if f_lattice not in ("half", "int"):
            raise ValueError("f_lattice must be 'half' or 'int'")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "f_lattice", f_lattice)
        object.__setattr__(self, "strict_paper", strict_paper)

    def on_f_lattice(self, f: Fraction) -> bool:
        return f.denominator == (2 if self.f_lattice == "half" else 1)


class KType(Frozen):
    """Isotypic summand label (xi; f; j, q, eps), immutable."""

    __slots__ = ("xi", "f", "j", "q", "eps")

    def __init__(self, xi: int, f: Fraction, j: Fraction, q: int, eps: int):
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eps", eps)

    @property
    def multiplicity(self) -> int:
        return 2 if self.q == 0 else 1

    def sort_key(self) -> Tuple:
        return (self.xi, self.f, self.j, self.eps, self.q)

    def label(self) -> str:
        return f"V(xi={self.xi:+d}; f={self.f!s}, j={self.j!s}, q={self.q}, eps={self.eps:+d})"

    def to_json(self) -> dict:
        return {"xi": self.xi, "f": format_rational(self.f),
                "j": format_rational(self.j), "q": self.q, "eps": self.eps}

    @classmethod
    def from_json(cls, data: dict) -> "KType":
        return cls(int(data["xi"]), rational(data["f"]), rational(data["j"]),
                   int(data["q"]), int(data["eps"]))


def make_ktype(params: Params, xi: int, f: RationalLike, j: RationalLike,
               q: int, eps: int) -> KType:
    """Validated K-type; multiplicity is 2 for q=0 and 1 for q=1."""
    if xi not in (1, -1) or eps not in (1, -1):
        raise InvalidWeightError("xi and eps must be +1 or -1")
    if q not in (0, 1):
        raise InvalidWeightError("q must be 0 or 1")
    fq, jq = rational(f), rational(j)
    if not params.on_f_lattice(fq):
        raise InvalidWeightError(
            f"f={format_rational(fq)} is not on the configured '{params.f_lattice}' lattice")
    if jq.denominator != 2 or jq.numerator < 1 + 2 * q:       # 2j odd, at least 1 + 2q
        raise InvalidWeightError(
            f"j={format_rational(jq)} must lie in 1/2 + q + N (q={q})")
    return KType(xi, fq, jq, q, eps)


@faults.memo
def label_dirac(n: int, j2: int, eps: int) -> Fraction:
    """Signed Dirac eigenvalue eps (j + (n-2)/2) of the label (j, eps) on
    S^(n-1), given 2j; memoized on the ints (n, 2j, eps)."""
    return faults.bump("DIRAC", Fraction(eps * (j2 + n - 2), 2))


def label_scale(n: int) -> int:
    """The one integer scale of a run's f and J: 2, times the denominator a
    shifted Dirac convention gives J (every J is a half-integer moved by plus
    or minus one offset, so one label shows it)."""
    return lcm(2, label_dirac(n, 1, 1).denominator)


def label_twistor_tt(n: int, j: Fraction) -> Fraction:
    """lambda(T*T) of the label j on S^(n-1)."""
    J = j + Fraction(n - 2, 2)
    return Fraction(n - 2, n - 1) * (J * J - Fraction(n - 1, 2) ** 2)


class SphereEigenvalues:
    """Closed-form sphere Dirac spectrum; ``DEFAULT_EIGENVALUES`` is the one instance.

    ``dirac`` must be the unique convention under which the spectral quotient
    identities close; it is the one the verification suites certify, and the
    ``DIRAC`` fault site shifts it so tests can check that a shifted
    convention fails.  It reads :func:`label_dirac` at 2j, memoized per
    (n, 2j, eps) and never per r.
    """

    def dirac(self, params: Params, j: Fraction, eps: int) -> Fraction:
        return label_dirac(params.n, 2 * j, eps)


DEFAULT_EIGENVALUES = SphereEigenvalues()


def spectral_args(params: Params, ktype: KType) -> Tuple[Fraction, int]:
    """(J, s) of a label for the spectral functions: J = eps * J_signed, s = xi * eps."""
    return (ktype.eps * DEFAULT_EIGENVALUES.dirac(params, ktype.j, ktype.eps),
            ktype.xi * ktype.eps)


class Direction(NamedTuple):
    """One arrow of the six-neighbor diagram: df in {-1,+1}, dj in {+1,0,-1}."""

    df: int
    dj: int


# 3x2 layout: rows dj = +1, 0, -1 ; columns df = -1, +1
DIRECTIONS: Tuple[Direction, ...] = (
    Direction(-1, 1), Direction(1, 1),
    Direction(-1, 0), Direction(1, 0),
    Direction(-1, -1), Direction(1, -1),
)


Key = Tuple[int, int, int, int, int]     # (xi, 2f, 2j, q, eps)


def label_key(ktype: KType) -> Key:
    """The label's small-int key (xi, 2f, 2j, q, eps); f and j must be halves of integers."""
    f2, f_rem = divmod(2 * ktype.f.numerator, ktype.f.denominator)
    j2, j_rem = divmod(2 * ktype.j.numerator, ktype.j.denominator)
    if f_rem or j_rem:
        raise InvalidWeightError(f"{ktype.label()} has f or j off the half-integers")
    return ktype.xi, f2, j2, ktype.q, ktype.eps


def _neighbor_keys(key: Key) -> List[Tuple[Direction, Key]]:
    """The diagram's arrows from ``key`` in :data:`DIRECTIONS` order: the
    bottom row is omitted at j = 1/2 + q, the middle row (dj = 0) flips eps,
    the j +- 1 rows keep it, and q and xi never change."""
    xi, f2, j2, q, eps = key
    out = []
    for direction in DIRECTIONS:
        df, dj = direction
        if j2 + 2 * dj >= 1 + 2 * q:
            out.append((direction, (xi, f2 + 2 * df, j2 + 2 * dj, q, -eps if dj == 0 else eps)))
    return out


class Label:
    """One label's record in a :class:`Labels` table.

    ``F`` and ``J`` are f and the spectral J on the table's ``scale``
    (f = F/scale, J = J/scale) and ``s`` = xi*eps; ``key`` is the label's
    (xi, 2f, 2j, q, eps).  A record is compared by identity and refers to
    no other record, so a run's records need no cycle collector.
    """

    __slots__ = ("ktype", "key", "F", "J", "s", "scale")

    def __init__(self, ktype: KType, key: Key, F: int, J: int, s: int, scale: int):
        self.ktype, self.key, self.F, self.J, self.s, self.scale = ktype, key, F, J, s, scale


class Labels:
    """The label records of one run, keyed by (xi, 2f, 2j, q, eps) and made on first use.

    :meth:`neighbors` runs once per center; :meth:`spectral_J` reads J from
    :func:`label_dirac`'s memo.  ``scale`` is :func:`label_scale`, the one
    integer scale of every record's f and J, and ``block_terms`` the block
    kernel's run terms (n, rd, rn scale, scale rd, strict_paper), r = rn/rd.
    A table belongs to one :class:`Params`, the one source of n, r and the
    variant for every function that walks the run, and lives as long as its
    caller keeps it, so nothing of a run outlives the run.  Its records keep
    the values made under the fault armed when they were made, so a test
    builds it inside the ``faults.inject`` block.

    A record is found by its key alone and keeps the ``KType`` that made it:
    the caller's (:meth:`of`) or a new one on the table's halves (:meth:`at`).
    The neighbor lists are kept here, by record, not on the records.
    """

    def __init__(self, params: Params):
        self.params = params
        self.scale = d = label_scale(params.n)
        rn, rd = params.r.numerator, params.r.denominator
        self.block_terms = (params.n, rd, rn * d, d * rd, params.strict_paper)
        self._by_key: Dict[Key, Label] = {}
        self._halves: Dict[int, Fraction] = {}
        self._neighbors: Dict[Label, list] = {}
        self.pairs: Dict[tuple, object] = {}    # label pair data and z ratios, for other modules

    def spectral_J(self, j2: int, eps: int) -> int:
        """The spectral J = eps * J_signed of the labels (2j, eps), times ``scale``;
        a ``ValueError`` if that is no integer (a ``DIRAC`` offset armed later).

        J_signed is read from :func:`label_dirac`'s memo on the ints at every
        call, so it is the convention armed now, and the sign and the scale
        are applied to its numerator, an int."""
        signed = label_dirac(self.params.n, j2, eps)
        d = self.scale
        if d % signed.denominator:
            raise ValueError(f"J = {eps * signed} of 2j = {j2}, eps = {eps} "
                             f"is off the scale 1/{d}")
        return eps * signed.numerator * (d // signed.denominator)

    def _half(self, k: int) -> Fraction:
        half = self._halves.get(k)
        if half is None:
            half = self._halves[k] = Fraction(k, 2)
        return half

    def of(self, ktype: KType) -> Label:
        """The record of ``ktype``'s label, made with ``ktype`` if it is new."""
        key = label_key(ktype)
        return self._by_key.get(key) or self._make(key, ktype)

    def at(self, key: Key) -> Label:
        """The record of the label with this key, made if it is new."""
        rec = self._by_key.get(key)
        if rec is None:
            xi, f2, j2, q, eps = key
            rec = self._make(key, KType(xi, self._half(f2), self._half(j2), q, eps))
        return rec

    def _make(self, key: Key, ktype: KType) -> Label:
        xi, f2, j2, _, eps = key
        d = self.scale
        rec = self._by_key[key] = Label(ktype, key, f2 * (d // 2), self.spectral_J(j2, eps),
                                        xi * eps, d)
        return rec

    def neighbors(self, rec: Label) -> list:
        """The diagram neighbors of ``rec`` as records, in :data:`DIRECTIONS`
        order: one flat list direction, record, direction, record, ..., which
        a caller walks as ``zip(arrows, arrows)`` on one iterator ``arrows``."""
        out = self._neighbors.get(rec)
        if out is None:
            out = self._neighbors[rec] = [x for direction, key in _neighbor_keys(rec.key)
                                          for x in (direction, self.at(key))]
        return out


def partner_keys(key: Key) -> List[Key]:
    """The keys of the cross-multiplicity partners, f+1 then f-1: same j, same
    eps, q flipped.

    Empty at j = 1/2, where no q=1 label has the same j: the one j >= 3/2 rule.
    """
    xi, f2, j2, q, eps = key
    if j2 < 3:
        return []
    return [(xi, f2 + 2, j2, 1 - q, eps), (xi, f2 - 2, j2, 1 - q, eps)]


def interface_square(key: Key) -> Tuple[Key, ...]:
    """The keys (alpha1, alpha2, beta1, beta2) of the multiplicity 2/1 square at
    alpha1 = ``key``: its (1, 1) arrow (f+1, j+1, q=0), its f+1 partner (f+1, j,
    q=1) and alpha2's f-1 partner (f, j+1, q=1); empty for q = 1 or j = 1/2."""
    partners = [] if key[3] else partner_keys(key)
    if not partners:
        return ()
    alpha2 = _neighbor_keys(key)[1][1]      # the top row is never omitted
    return key, alpha2, partners[0], partner_keys(alpha2)[1]


def f2_range(params: Params, f_min: RationalLike, f_max: RationalLike) -> range:
    """The 2f of the circle weights on the configured lattice in [f_min, f_max],
    ascending: odd on the half lattice, even on the integer one.  Read on
    the bounds' numerators and denominators: ceil(2p/q) = -(-2p // q)."""
    lo, hi = rational(f_min), rational(f_max)
    lo2 = -(-2 * lo.numerator // lo.denominator)
    lo2 += (lo2 - (params.f_lattice == "half")) % 2     # up to the lattice's parity
    return range(lo2, 2 * hi.numerator // hi.denominator + 1, 2)


def j2_range(j_max: RationalLike, q: int) -> range:
    """The 2j of the sphere labels j in 1/2 + q + N with j <= j_max, ascending."""
    hi = rational(j_max)
    return range(1 + 2 * q, 2 * hi.numerator // hi.denominator + 1, 2)


def window_keys(params: Params, f_min: RationalLike, f_max: RationalLike,
                j_max: RationalLike, qs: Sequence[int] = (0, 1),
                xi_values: Sequence[int] = (-1, 1),
                eps_values: Sequence[int] = (-1, 1)) -> List[Key]:
    """The keys (xi, 2f, 2j, q, eps) of all K-types in a finite window, in
    :meth:`KType.sort_key`'s (xi, f, j, eps, q) order: :func:`range_keys`
    of its :func:`f2_range` and its :func:`j2_range` from the least q."""
    return range_keys(f2_range(params, f_min, f_max), j2_range(j_max, min(qs, default=0)),
                      qs, xi_values, eps_values)


def range_keys(f2s: range, j2s: range, qs: Sequence[int] = (0, 1),
               xi_values: Sequence[int] = (-1, 1),
               eps_values: Sequence[int] = (-1, 1)) -> List[Key]:
    """The keys of :func:`window_keys` on the window's ranges of 2f and 2j.

    The keys are made in order, not sorted: xi, 2f and 2j ascend, and
    each 2j's (eps, q) pairs are sorted once per xi.  A value chosen k times
    gives each of its keys k times in a row, as a stable sort would."""
    keys: List[Key] = []
    for xi in sorted(set(xi_values)):
        pairs = sorted((eps, q) for eps in eps_values for q in qs
                       for _ in range(xi_values.count(xi)))
        tails = [[(j2, q, eps) for eps, q in pairs if j2 > 2 * q] for j2 in j2s]
        keys += [(xi, f2, j2, q, eps) for f2 in f2s for tail in tails for j2, q, eps in tail]
    return keys


def enumerate_ktypes(params: Params, f_min: RationalLike, f_max: RationalLike,
                     j_max: RationalLike, qs: Sequence[int] = (0, 1),
                     xi_values: Sequence[int] = (-1, 1),
                     eps_values: Sequence[int] = (-1, 1)) -> Iterator[KType]:
    """All K-types in a finite window, in deterministic (xi, f, j, eps, q) order:
    the labels of :func:`window_keys`."""
    keys = window_keys(params, f_min, f_max, j_max, qs, xi_values, eps_values)
    halves = {k: Fraction(k, 2) for k in {k for key in keys for k in key[1:3]}}
    return iter([KType(xi, halves[f2], halves[j2], q, eps) for xi, f2, j2, q, eps in keys])
