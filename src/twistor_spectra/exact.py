"""Exact scalar arithmetic.

Rationals are :class:`fractions.Fraction`: arbitrary precision, always in
lowest terms with a positive denominator, and a hard error on division by
zero.  :class:`GammaQuotient` is a finite product ``prefactor * prod
Gamma(arg)**exp`` with rational arguments.  Two quotients whose arguments are
congruent mod 1 class by class have an exactly computable rational ratio
through the functional equation ``Gamma(x+1) = x*Gamma(x)``, without ever
evaluating a gamma function numerically.  No complex number appears: the
spectral values are real gamma quotients times a fixed power of i, and the
library records that power as a convention, not as a value.

The rule is :func:`telescope`, the one place a gamma class becomes linear
factors: one sweep of the running sum of exponents over the class's sorted
arguments, where spans whose sum is 0 cost nothing.  :func:`pq_ratio`
(behind :func:`ratio_tagged`) applies it to numbers, and
``spectra._ratio_template`` (behind ``spectra.z_product``, which the suites
and ``spectrum``'s chains use) to linear forms in (f, J, r).  Both give a
:class:`Tagged` on ints, the library's one exact value, where a factor that
is 0 adds its exponent to the vanishing order: the order is minus the total
exponent at non-positive integers, so a pole's order is negative, and a
finite value is the limit with every argument shifted by one small amount.
:func:`pq_classes` keys the commensurability classes.

A quotient's canonical factors are also kept as integer (p, q, exp) triples,
``GammaQuotient._pq``, and the class key, the exact ratio, the one numeric
evaluation and the JSON form are kernels on such triples (:func:`pq_classes`,
:func:`pq_ratio`, :func:`pq_numeric`, :func:`pq_json`): :func:`ratio_tagged`,
:func:`evaluate_numeric` and ``GammaQuotient.to_json`` call them on
quotients, and ``spectrum`` and ``block`` call them on the
triples ``spectra.z_forms`` builds from integers, with no quotient.

The library's ``__slots__`` records share one base: a :class:`Record`'s fields
are its public slots, in order, and :class:`Frozen` adds hashing, pickling
and immutability; ``GammaQuotient._pq`` is derived, not a field.

Arguments at non-positive integers are tracked as formal pole/zero flags,
and a reduction reports a net uncancelled pole or zero as its kind instead of
raising.  The values here are immutable, but the library is not safe for
unrestricted concurrent use: the fault offsets armed by ``faults.inject`` and
the memo tables in ``faults._TABLES`` are process-global.  Threads may share
the tables only while no fault is armed; a fault armed in one thread perturbs
every other thread's results and empties the tables under all of them.  A
command's start (``faults.start_run``) empties the r-keyed tables under other
threads too; their values stay correct, since every memo is pure and a
table emptied mid-run only makes its next lookups recompute.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, NamedTuple, Tuple, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "rational",
    "format_rational",
    "format_ratio",
    "GammaQuotient",
    "Tagged",
    "telescope",
    "ratio_tagged",
    "pq_ratio",
    "pq_classes",
    "pq_json",
    "reduce_exact",
    "evaluate_numeric",
    "pq_numeric",
    "NonCommensurableError",
    "GammaPoleError",
]


class NonCommensurableError(ValueError):
    """Gamma arguments do not match up mod 1 with balanced exponents."""


class GammaPoleError(ArithmeticError):
    """Numeric evaluation requested at a gamma pole."""

    def __init__(self, argument: Fraction):
        self.argument = argument
        super().__init__(f"gamma pole at argument {argument}")


def rational(value: RationalLike) -> Fraction:
    """Parse a rational from an int, Fraction or a 'p/q' / 'k' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value).strip())


def format_rational(x: Fraction) -> str:
    """Canonical 'p/q' string (plain 'p' when the denominator is 1)."""
    return str(x) if isinstance(x, Fraction) else str(Fraction(x))


def format_ratio(num: int, den: int) -> str:
    """:func:`format_rational` of num/den (den != 0), reduced on the ints without a Fraction.

    A fault's offset may leave a non-integer numerator; that one goes
    through ``Fraction``."""
    if type(num) is not int or type(den) is not int:
        return format_rational(Fraction(num, den))
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def _canonical_factors(factors: Iterable[Tuple[Fraction, int]]) -> Tuple[Tuple[Fraction, int], ...]:
    # merged on the sorted arguments: a Fraction hashes far slower than it compares
    out: list = []
    for a, e in sorted(((a if isinstance(a, Fraction) else Fraction(a), int(e))
                        for a, e in factors), key=itemgetter(0)):
        if out and out[-1][0] == a:
            e += out.pop()[1]
        out.append((a, e))
    return tuple(f for f in out if f[1])


class Record:
    """A ``__slots__`` record: its fields are its public slots, in order (two or
    more), or the attributes its class names in ``_fields``, and it equals a
    record of its own class with equal fields, and its repr names each.
    Mutable and unhashable; a slot ``_...`` is not a field."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if cls._fields:
            cls._get = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == other._get(other)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._get(self))))


class Frozen(Record):
    """An immutable :class:`Record`, hashed and pickled by its fields; each
    ``__init__`` sets its slots with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._get(self))

    def __reduce__(self):
        return self.__class__, self._get(self)


class GammaQuotient(Frozen):
    """``prefactor * prod Gamma(arg)**exp`` with exact bookkeeping, immutable.

    The factors are kept canonical: arguments as ``Fraction``, equal ones
    merged, zero exponents dropped, sorted by value; ``_pq`` holds them as
    integer (p, q, exp) triples.
    """

    __slots__ = ("prefactor", "factors", "_pq")

    def __init__(self, prefactor: RationalLike = Fraction(1),
                 factors: Iterable[Tuple[RationalLike, int]] = ()):
        pre = Fraction(prefactor)
        if pre == 0:
            raise ValueError("GammaQuotient prefactor must be nonzero")
        facs = _canonical_factors(factors)
        object.__setattr__(self, "prefactor", pre)
        object.__setattr__(self, "factors", facs)
        object.__setattr__(self, "_pq", tuple((a.numerator, a.denominator, e) for a, e in facs))

    @classmethod
    def from_args(cls, numerator_args: Iterable[RationalLike],
                  denominator_args: Iterable[RationalLike],
                  prefactor: RationalLike = 1) -> "GammaQuotient":
        facs = [(rational(a), 1) for a in numerator_args]
        facs += [(rational(a), -1) for a in denominator_args]
        return cls(prefactor=rational(prefactor), factors=facs)

    def __mul__(self, other: "GammaQuotient") -> "GammaQuotient":
        return GammaQuotient(self.prefactor * other.prefactor,
                             self.factors + other.factors)

    @property
    def is_pole(self) -> bool:
        return any(q == 1 and p <= 0 and e > 0 for p, q, e in self._pq)

    @property
    def is_zero(self) -> bool:
        return any(q == 1 and p <= 0 and e < 0 for p, q, e in self._pq)

    def to_json(self) -> dict:
        return pq_json(self.prefactor, self._pq)


def telescope(items: Iterable[Tuple[int, int]], step: int) -> list:
    """prod Gamma(position/step)**exp over one class's (position, exp) items,
    positions congruent mod step, as (position, exp) linear factors
    (position/step)**exp of the same product.

    One sweep over the items sorted by position.  Summation by parts makes
    the product prod (Gamma(lo/step) / Gamma(hi/step))**S over neighbouring
    positions lo < hi, S the running sum of the exponents up to lo, and
    Gamma(x+1) = x*Gamma(x) expands each such span into the factor (t/step)**-S
    at t = lo, lo + step, ..., hi - step.  Spans where S is 0 give nothing,
    so the cost is the length of the spans that do not cancel, not the
    distance between the items.  A class whose exponents do not sum to 0
    raises :class:`NonCommensurableError`.
    """
    out: list = []
    run = lo = 0
    for position, exp in sorted(items):
        if run:
            out += [(t, -run) for t in range(lo, position, step)]
        run += exp
        lo = position
    if run:
        raise NonCommensurableError(
            "gamma arguments are not integer-spaced with balanced exponents")
    return out


class Tagged(NamedTuple):
    """An exact value on ints, the one result of every exact reduction.

    ``order`` > 0 is a zero and < 0 a pole of that order; otherwise the value
    is num/den: unreduced, den nonzero of either sign, from :func:`pq_ratio`
    and ``spectra.z_product``; in lowest terms, den > 0, from :meth:`reduced`.
    """

    order: int
    num: int = 0
    den: int = 1

    @property
    def kind(self) -> str:
        return "finite" if not self.order else "zero" if self.order > 0 else "pole"

    @property
    def value(self) -> Fraction:
        """num/den when finite, else 0."""
        return Fraction(0) if self.order else Fraction(self.num, self.den)

    def reduced(self) -> "Tagged":
        """The same value in lowest terms, den > 0; a bare ``Tagged(order)`` when not finite."""
        return Tagged(self.order) if self.order else Tagged(0, *self.value.as_integer_ratio())

    def render(self) -> str:
        if self.order:
            return "POLE" if self.order < 0 else "0"
        return format_ratio(self.num, self.den)


def pq_ratio(pq_a: Iterable[tuple], pq_b: Iterable[tuple]) -> Tagged:
    """prod Gamma(p/q)**exp over the (p, q, exp) triples ``pq_a`` over the same
    of ``pq_b``, unreduced, the kernel of :func:`ratio_tagged`: each class mod 1
    expanded by :func:`telescope`, and a factor that is 0 adds its exponent to
    the vanishing order."""
    classes: dict = {}
    for p, q, exp in pq_a:
        classes.setdefault((p % q, q), []).append((p, exp))
    for p, q, exp in pq_b:
        classes.setdefault((p % q, q), []).append((p, -exp))
    order, num, den = 0, 1, 1
    for (_, q), items in classes.items():
        for p, e in telescope(items, q):
            if p == 0:
                order += e
            elif e > 0:
                num *= p ** e
                den *= q ** e
            else:
                num *= q ** -e
                den *= p ** -e
    return Tagged(order, num, den)


def ratio_tagged(a: GammaQuotient, b: GammaQuotient) -> Tagged:
    """Exact a/b in lowest terms, with pole/zero tagging instead of errors, by :func:`pq_ratio`."""
    t = pq_ratio(a._pq, b._pq)
    pa, pb = a.prefactor, b.prefactor
    return Tagged(t.order, t.num * pa.numerator * pb.denominator,
                  t.den * pa.denominator * pb.numerator).reduced()


def pq_classes(pq: Iterable[Tuple[int, int, int]]) -> frozenset:
    """The net exponent of each class mod 1 of the arguments p/q of (p, q, exp)
    triples, zeros left out: the key of commensurability, an equivalence, as
    ``ratio_tagged(a, b)`` reduces iff ``pq_classes(a._pq) == pq_classes(b._pq)``."""
    net: dict = {}
    for p, q, exp in pq:
        key = (p % q, q)
        net[key] = net.get(key, 0) + exp
    return frozenset(item for item in net.items() if item[1])


_UNIT = GammaQuotient()


def reduce_exact(g: GammaQuotient) -> Tagged:
    """Reduce a self-commensurable quotient to a :class:`Tagged` in lowest terms."""
    return ratio_tagged(g, _UNIT)


_LOG_PI = math.log(math.pi)


def _lgamma(x: float) -> float:
    """``math.lgamma(x)``, inf where it leaves the float range (x > 2.5e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _log_abs_gamma(p: int, q: int) -> Tuple[float, int]:
    """(log|Gamma(x)|, sign) for the non-pole argument x = p/q, q > 0, via lgamma.

    The sign alternates with the integer cell left of 0, Gamma < 0 on
    (-1, 0), > 0 on (-2, -1), ..., and is read off the exact ``p // q``.
    Where the float of x is 0 or a negative integer though x is not (x within
    half an ulp of one, or |x| >= 2**53), lgamma would meet its pole, so
    log|Gamma(x)| comes from the reflection formula, log pi - log|sin(pi x)|
    - lgamma(1 - x), with x's distance t to the nearest integer taken exactly.
    """
    x = p / q       # correctly rounded, as float(Fraction(p, q))
    sign = -1 if p < 0 and (p // q) % 2 else 1
    if x > 0 or not x.is_integer():
        return _lgamma(x), sign
    a = min(p % q, q - p % q)       # t = a/q
    # below 2**-30, sin(pi t) is pi t to double precision, and t may underflow
    log_sin = (math.log(math.sin(math.pi * (a / q))) if a << 30 > q
               else _LOG_PI + math.log(a) - math.log(q))
    return _LOG_PI - log_sin - _lgamma((q - p) / q), sign


def pq_json(prefactor: Fraction, pq: Iterable[Tuple[int, int, int]]) -> dict:
    """``prefactor * prod Gamma(p/q)**exp`` over canonical (p, q, exp) triples as
    JSON data: the kernel of ``GammaQuotient.to_json``."""
    return {
        "prefactor": format_rational(prefactor),
        "phase": 0,     # i enters by convention only; the field keeps the schema
        "factors": [{"arg": format_ratio(p, q), "exp": e} for p, q, e in pq],
    }


def pq_numeric(prefactor: Fraction, pq: Iterable[Tuple[int, int, int]],
               lgammas: Dict[Tuple[int, int], Tuple[float, int]]) -> float:
    """``prefactor * prod Gamma(p/q)**exp`` over (p, q, exp) triples as a float:
    the kernel of :func:`evaluate_numeric`.

    The triples are a quotient's canonical factors (``GammaQuotient._pq``):
    arguments in lowest terms with q > 0, merged, no zero exponent, sorted
    by value, which is the order the log-gammas are summed in.  ``lgammas``
    is the caller's table of each argument's (log|Gamma|, sign) by (p, q),
    filled here: one table shared by a run's calls (``spectra.spectrum_rows``)
    computes each distinct log-gamma once and gives the floats a new one does.
    """
    zero = False
    for p, q, exp in pq:
        if q == 1 and p <= 0:
            if exp > 0:
                raise GammaPoleError(Fraction(p))
            zero = True
    if zero:
        return 0.0
    logmag = 0.0
    num, den = prefactor.numerator, prefactor.denominator     # float(prefactor) is num/den
    sign = 1 if num > 0 else -1
    for p, q, exp in pq:
        lg_s = lgammas.get((p, q))
        if lg_s is None:
            lg_s = lgammas[p, q] = _log_abs_gamma(p, q)
        lg, s = lg_s
        logmag += exp * lg
        if exp % 2 == 1 and s < 0:
            sign = -sign
    if logmag != logmag:        # log-gammas past lgamma's range cancel: no float to give
        raise OverflowError("gamma arguments beyond lgamma's range cancel")
    try:
        return sign * (abs(num) / den) * math.exp(logmag)
    except OverflowError:
        return math.copysign(math.inf, sign)


def evaluate_numeric(g: GammaQuotient) -> float:
    """Floating evaluation via log-gamma, by :func:`pq_numeric`.

    The log-gammas are summed as floats, so the relative error is up to about
    2**-52 times the sum of |exp * log|Gamma(arg)||: it grows like |x| log |x|
    in the cancelling arguments x.  Against 80-digit mpmath, z(r; f, 7/2, +1)
    at r = 7/3 and 1 reads about 1e-12 at f near 1e3, 2e-9 at 1e6, 7e-8 at
    1e8 and 5e-3 at 1e12.  An argument whose float lands on 0 or a negative
    integer although it is no pole takes the reflection route (see
    ``_log_abs_gamma``), so its accuracy is that of lgamma at 1 - x.  A formal
    zero evaluates to exactly 0.0; a pole raises :class:`GammaPoleError`; a
    gamma product beyond the float range evaluates to +-inf, and one whose
    log-gammas both leave lgamma's range (arguments past 2.5e305) and cancel
    raises ``OverflowError``.
    """
    return pq_numeric(g.prefactor, g._pq, {})
