"""Exact-identity verification suites over finite lattice regions.

Every suite takes the run's :class:`~twistor_spectra.ktypes.Labels` table, its
one source of n, r and the variant, and label keys (xi, 2f, 2j, q, eps) of
any multiplicity, reads the centers its identities apply to as records
(``labels.at``), checks them edge by edge in exact arithmetic, and returns
verdicts rather than raising: ``pass`` and ``fail`` for decidable comparisons,
``pole`` / ``zero`` when both routes flag the same degeneration symmetrically,
``indeterminate`` when a closed form degenerates to 0/0, and ``skipped-*``
when an edge cannot be decided (degenerate compression target, vanishing
block denominator coefficient, or a non-finite shared-factor ratio).
A failing verdict carries the exact residual as a rational string.

Every per-edge step runs on integers through the records of that table, which
:func:`run_all_suites` shares between the suites and the calibration; what one
leaves in it changes no other's checks.  The quotient entries and the oracle's
ratios are int (num, den) pairs compared by cross multiplication, the block
coefficients four numerators over one denominator, and the transition
quantities numerators over one denominator per label pair.  A value is reduced
and rendered only where the report shows it.  A suite appends each edge to
its :class:`SuiteReport` as one flat row of the fields it already has (the
run's shared ``KType``s and ``Direction``s, strings, small ints, dicts of
strings), so an edge leaves the cycle collector nothing to track; an
:class:`EdgeCheck` is a view of a row, made on demand.  One function writes
the verify report's text, :func:`report_pieces`: the stdlib's text of the
head the CLI assembles, then each suite straight from its rows, one
fixed-shape text per edge with each label's text rendered once per report.

What is not integer work is paid once per run where it can be: the texts of
the constants a label-pair row fixes (c_ba, g1 and g2 up to sign, A1 and A2)
are made once per row, each center's neighbors are one flat list, and the
writer makes each dict layout once.  README's "Where a verify-grid slice's
time goes" gives what each part of a run costs.
"""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from .exact import Frozen, NonCommensurableError, Record, format_ratio, format_rational
from .ktypes import DIRECTIONS, Direction, Key, KType, Label, Labels, Params, partner_keys
from .operators import _d33, case1_ints, case2_ints, det2, relation_matrices
from .spectra import (CalibrationResult, EmptyWindowError, InconsistentSystemError, Tagged,
                      _entry_kind, block_ints, calibrate_L, first_order_block,
                      quotient_entries, render_entry, w_terms, z_ratio, z_terms)

__all__ = [
    "PASS", "FAIL", "POLE", "ZERO", "INDETERMINATE",
    "SKIP_DEGENERATE", "SKIP_SINGULAR", "SKIP_POLE",
    "EdgeCheck", "SuiteReport",
    "verify_mult1_quotients", "verify_mult2_quotients",
    "verify_case2_relation", "verify_interface",
    "resolve_block_factor_reading", "run_all_suites", "report_pieces",
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
_SAME_KIND = {kind: (verdict, "", None, None)        # an agreeing quotient edge's outcome
              for kind, verdict in (("finite", PASS), ("pole", POLE), ("zero", ZERO))}
_DEGENERATE_TARGET = "lambda(T*T) = 0 at target"
_UNBALANCED = "the gamma classes of the {} do not balance"
_UP = DIRECTIONS[1]         # Direction(1, 1): f+1, j+1, same eps
_INDENT = "  "              # the report's text is json.dumps(..., indent=2)
# the report's newlines by depth: a suite's keys at 3, its edges at 4, an
# edge's keys at 5, a label's at 6
_NL3, _NL4, _NL5, _NL6 = ("\n" + _INDENT * depth for depth in range(3, 7))

# conventions the verdicts certify; recorded in every report header
CONVENTION = {
    "quotient_direction": "neighbor-over-center",
    "middle_row_flips_eps": True,
    "block_factor_at": "f+1",
    "mult1_normalization": "-4*i*z",
}


class EdgeCheck(Frozen):
    """One verified edge (or square) with its verdict, immutable: a view of
    one row of a :class:`SuiteReport`, made on demand.

    Quantities are recorded for the transition-matrix suites on every
    decided edge and for the quotient suites on non-passing edges (a passing
    quotient edge carries no information beyond its matrix entry); an edge
    with nothing left over carries no residuals.
    """

    __slots__ = ("case", "center", "neighbor", "direction", "verdict", "detail",
                 "quantities", "residuals")

    def __init__(self, case: int, center: KType, neighbor: Optional[KType],
                 direction: Optional[Direction], verdict: str, detail: str = "",
                 quantities: Optional[Dict[str, str]] = None,
                 residuals: Optional[Dict[str, str]] = None):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "neighbor", neighbor)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "quantities", quantities)
        object.__setattr__(self, "residuals", residuals)

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


# An edge's row is its EdgeCheck fields in slot order, appended flat to its
# report's list: strings, small ints, the run's shared KTypes and Directions
# and dicts of strings, none of which the cycle collector tracks.
_WIDTH = len(EdgeCheck.__slots__)
_VERDICTS = slice(EdgeCheck.__slots__.index("verdict"), None, _WIDTH)
_FIELDS = EdgeCheck._get


class SuiteReport(Record):
    """One suite's edges, in the order it walked them, kept as flat rows.

    A suite appends each edge's row to ``_rows``; ``counts``, ``ok``,
    ``first_failure`` and the writer read the rows.  ``checks`` is the edges
    as a new list of :class:`EdgeCheck` views each time it is read, and
    setting it (or passing it) sets the rows.
    """

    __slots__ = ("suite", "_rows")
    _fields = ("suite", "checks")

    def __init__(self, suite: str, checks: Iterable[EdgeCheck] = ()):
        self.suite = suite
        self.checks = checks

    @property
    def checks(self) -> List[EdgeCheck]:
        rows = self._rows
        return list(map(EdgeCheck, *(rows[k::_WIDTH] for k in range(_WIDTH))))

    @checks.setter
    def checks(self, checks: Iterable[EdgeCheck]) -> None:
        self._rows = [field for c in checks for field in _FIELDS(c)]

    @property
    def counts(self) -> Dict[str, int]:
        return dict(Counter(self._rows[_VERDICTS]))

    @property
    def ok(self) -> bool:
        return FAIL not in self._rows[_VERDICTS]

    @property
    def first_failure(self) -> Optional[EdgeCheck]:
        verdicts = self._rows[_VERDICTS]
        if FAIL not in verdicts:
            return None
        at = verdicts.index(FAIL) * _WIDTH
        return EdgeCheck(*self._rows[at:at + _WIDTH])

    def to_json(self) -> dict:
        return {"suite": self.suite, "counts": self.counts, "ok": self.ok,
                "edges": [c.to_json() for c in self.checks]}

    def summary_line(self) -> str:
        counts = self.counts
        body = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
        status = "OK" if self.ok else "FAIL"
        return f"{self.suite:<18} {status:<4} {body or 'no edges'}"


def _dict_texts(nl: str) -> Callable[[Dict[str, Union[str, int]]], str]:
    """The writer of dicts of str or int values at the depth whose newline is
    ``nl``, keys sorted: each key order's format and value getter are made
    once, so a dict costs one tuple of its values' texts."""
    inner = nl + _INDENT
    layouts: Dict[tuple, tuple] = {}

    def text(d: Dict[str, Union[str, int]]) -> str:
        if not d:
            return "{}"
        keys = tuple(d)
        layout = layouts.get(keys)
        if layout is None:
            order = sorted(keys)
            fmt = "{" + inner + ("," + inner).join(
                _string(k).replace("%", "%%") + ": %s" for k in order) + nl + "}"
            values = itemgetter(*order) if len(order) > 1 else lambda d: (d[order[0]],)
            layout = layouts[keys] = fmt, values
        fmt, values = layout
        try:
            return fmt % tuple(map(_string, values(d)))
        except TypeError:           # an int among the values
            return fmt % tuple([_string(v) if isinstance(v, str) else v for v in values(d)])
    return text


def report_pieces(head: dict, reports: Dict[str, SuiteReport]) -> Iterator[str]:
    """``json.dumps(dict(head, suites=reports), indent=2, sort_keys=True)`` with
    each suite as its :meth:`~SuiteReport.to_json`, and a newline, one piece
    per edge; the CLI writes it in batches.  The head is plain data, not
    empty, and its keys sort before ``"suites"``.  Each label's text is
    rendered once for the report's suites together."""
    sep = json.dumps(head, indent=2, sort_keys=True)[:-2] + ',\n  "suites": {'
    label_texts = {id(None): "null"}
    counts_text = _dict_texts(_NL3)
    for name, report in sorted(reports.items()):
        yield (f'{sep}\n    {_string(name)}: {{{_NL3}"counts": {counts_text(report.counts)},'
               f'{_NL3}"edges": ')
        yield from _edges_text(report._rows, label_texts)
        yield (f',{_NL3}"ok": {"true" if report.ok else "false"},{_NL3}"suite": '
               f'{_string(report.suite)}\n    }}')
        sep = ","
    yield "\n  }\n}\n"


def _edges_text(rows: list, label_texts: Dict[int, str]) -> Iterator[str]:
    """The text of a suite's ``"edges"`` list in the report, from its rows.

    Every edge has the same shape, so its text is put together from its
    fields in sorted key order; the text of each label (in ``label_texts``,
    by object, since a run shares one KType per label), of each case,
    direction and verdict, and each dict layout (:func:`_dict_texts`) is
    made once.
    """
    if not rows:
        yield "[]"
        return
    dict_text = _dict_texts(_NL5)

    def label(kt: KType) -> str:
        text = label_texts[id(kt)] = (
            f'{{{_NL6}"eps": {kt.eps},{_NL6}"f": "{format_rational(kt.f)}",{_NL6}"j": '
            f'"{format_rational(kt.j)}",{_NL6}"q": {kt.q},{_NL6}"xi": {kt.xi}{_NL5}}}')
        return text

    heads: Dict[int, str] = {}
    directions = {None: f'{_NL5}"direction": null,{_NL5}"from": '}
    tails: Dict[str, str] = {}
    detail_key, quantities_key, residuals_key, to_key = (
        f'{_NL5}"{key}": ' for key in ("detail", "quantities", "residuals", "to"))
    sep = "[" + _NL4
    fields = iter(rows)
    for case, center, nb, direction, verdict, detail, quantities, residuals in zip(
            *[fields] * _WIDTH):
        head = heads.get(case)
        if head is None:
            head = heads[case] = f'{{{_NL5}"case": {case},'
        arrow = directions.get(direction)
        if arrow is None:
            df, dj = direction
            arrow = directions[direction] = (
                f'{_NL5}"direction": [{_NL6}{df},{_NL6}{dj}{_NL5}],{_NL5}"from": ')
        tail = tails.get(verdict)
        if tail is None:
            tail = tails[verdict] = f',{_NL5}"verdict": {_string(verdict)}{_NL4}}}'
        yield (f'{sep}{head}{detail_key + _string(detail) + "," if detail else ""}{arrow}'
               f'{label_texts.get(id(center)) or label(center)},'
               f'{quantities_key + dict_text(quantities) + "," if quantities else ""}'
               f'{residuals_key + dict_text(residuals) + "," if residuals else ""}'
               f'{to_key}{label_texts.get(id(nb)) or label(nb)}{tail}')
        sep = "," + _NL4
    yield _NL3 + "]"


def _compare_entry(num, den, tagged: Tagged, key: str) -> tuple:
    """(verdict, detail, quantities, residuals) of the closed-form entry num/den
    vs the oracle's ratio, kept under ``key``: equal kinds and values agree."""
    entry_kind = _entry_kind(num, den)
    if entry_kind == tagged.kind and (tagged.order or num * tagged.den == tagged.num * den):
        return _SAME_KIND[entry_kind]
    entry, got = render_entry(num, den), tagged.render()
    quantities = {"entry": entry, key: got}
    if entry_kind == "indeterminate":
        return INDETERMINATE, "", quantities, None
    residuals = ({"residual": format_ratio(tagged.num * den - num * tagged.den, tagged.den * den)}
                 if entry_kind == tagged.kind else {})     # both finite
    return FAIL, "", quantities, dict(residuals, expected=entry, got=got)


def _walk_quotients(suite: str, case: int, labels: Labels, centers: Iterable[Key], q: int,
                    terms_of: Callable[[Label, int], tuple], key: str) -> SuiteReport:
    """Each quotient entry of the centers with this q vs the oracle's exact
    neighbor/center ratio, kept under ``key``."""
    report = SuiteReport(suite)
    rows = report._rows
    for center in [labels.at(c) for c in centers if c[3] == q]:
        at_center = terms_of(center, -1)
        kt = center.ktype
        for direction, nb, num, den in quotient_entries(labels, center):
            rows += (case, kt, nb.ktype, direction)
            try:
                tagged = z_ratio(labels, terms_of(nb, 1) + at_center)
            except NonCommensurableError:       # a shifted Dirac convention, say
                rows += (FAIL, _UNBALANCED.format("oracle's ratio"),
                         {"entry": render_entry(num, den)}, None)
                continue
            rows += _compare_entry(num, den, tagged, key)
    return report


def verify_mult1_quotients(labels: Labels, centers: Iterable[Key]) -> SuiteReport:
    """Eigenvalue-quotient matrix vs exact spectral-function ratios."""
    return _walk_quotients("mult1-quotients", 3, labels, centers, 1, z_terms, "z_ratio")


def verify_mult2_quotients(labels: Labels, centers: Iterable[Key]) -> SuiteReport:
    """Determinant-quotient matrix vs exact eight-gamma product ratios."""
    return _walk_quotients("mult2-quotients", 2, labels, centers, 0, w_terms, "product_ratio")


def _case2_residuals(block_b, m1, m2, block_a, p: int, q: int, mden: int) -> Dict[str, str]:
    """Nonzero entries of  B(nb) M1 rho - M2 B(center), formatted.

    The blocks are (b11, b12, b21, b22, den) as :func:`block_ints` gives
    them, M1 and M2 int matrices over ``mden`` and rho = p/q.  Entry (i, k)
    is one integer numerator over den_a den_b mden q; it vanishes iff that
    numerator does, and only a nonzero entry is reduced to lowest terms.
    """
    *b, db = block_b
    *a, da = block_a
    lhs, rhs = da * p, db * q
    residuals = {}
    for i in (0, 1):
        for k in (0, 1):
            num = (lhs * (b[2 * i] * m1[0][k] + b[2 * i + 1] * m1[1][k])
                   - rhs * (m2[i][0] * a[k] + m2[i][1] * a[2 + k]))
            if num:
                residuals[f"({i + 1},{k + 1})"] = format_ratio(num, da * db * mden * q)
    return residuals


def verify_case2_relation(labels: Labels, centers: Iterable[Key]) -> SuiteReport:
    """Full 2x2 relation  B(neighbor) M1 = M2 B(center)  on every edge.

    Both blocks share their own gamma-quotient factor; dividing by the
    center's factor turns the relation into four exact rational identities
    scaled by the (tagged) factor ratio, each tested on cleared
    denominators by :func:`_case2_residuals`.
    """
    report = SuiteReport("case2-relation")
    rows = report._rows
    texts: Dict[tuple, List[str]] = {}     # the texts of c_ba, g1 and g2 by row and sign
    for center in [labels.at(c) for c in centers if c[3] == 0]:
        kt = center.ktype
        arrows = iter(labels.neighbors(center))
        block_a = block_ints(labels, center)
        if isinstance(block_a, str):
            for direction, nb in zip(arrows, arrows):
                rows += (2, kt, nb.ktype, direction, SKIP_SINGULAR,
                         f"center block: {block_a} = 0", None, None)
            continue
        z_a = z_terms(center, -1, block=True)
        for direction, nb in zip(arrows, arrows):
            rows += (2, kt, nb.ktype, direction)
            # a degenerate target wins over a singular neighbor
            data = case2_ints(labels, center, nb)
            if data is None:
                rows += (SKIP_DEGENERATE, _DEGENERATE_TARGET, None, None)
                continue
            block_b = block_ints(labels, nb)
            if isinstance(block_b, str):
                rows += (SKIP_SINGULAR, f"neighbor block: {block_b} = 0", None, None)
                continue
            try:
                rho = z_ratio(labels, z_terms(nb, 1, block=True) + z_a)
            except NonCommensurableError:
                rows += (FAIL, _UNBALANCED.format("shared-factor ratio"), None, None)
                continue
            if rho.order:
                rows += (SKIP_POLE, f"shared-factor ratio is {rho.kind}", None, None)
                continue
            P, f1m, f1p, f2m, f2p, g1, g2, c_ba = data
            m1, m2 = _matrices(data)
            residuals = _case2_residuals(block_b, m1, m2, block_a, rho.num, rho.den, P * P)
            # c_ba, g1 and g2 are the label pair's row, up to the edge's sign
            row = (P, g1, g2, c_ba)
            row_texts = texts.get(row)
            if row_texts is None:
                row_texts = texts[row] = [format_ratio(v, P) for v in (c_ba, g1, g2)]
            quantities = {
                "c_ba": row_texts[0],
                "f1": f"{format_ratio(f1m, P)},{format_ratio(f1p, P)}",
                "f2": f"{format_ratio(f2m, P)},{format_ratio(f2p, P)}",
                "g1": row_texts[1],
                "g2": row_texts[2],
            }
            rows += (FAIL, "", quantities, residuals) if residuals else (PASS, "", quantities, None)
    return report


def _matrices(data: Tuple[int, ...]):
    """(M1, M2) of an edge's :func:`case2_ints`, over P^2."""
    P, f1m, f1p, f2m, f2p, g1, g2, c_ba = data
    return relation_matrices(f1m * P, f1p * P, f2m, f2p, g1 * P, g2 * P, c_ba)


def _check_case1_edge(labels: Labels, alpha: Label, beta: Label, d33: Fraction,
                      texts: Dict[tuple, List[str]]) -> tuple:
    """(verdict, detail, quantities, residuals) of the four mixed-multiplicity
    equations on one edge.

    Each equation is scaled by rho, the ratio of beta's z to alpha's block
    factor; the edge is skipped when rho is not finite.  The column and row
    forms are tracked separately so a candidate table satisfying only one of
    the two relation forms is reported as such.  ``d33`` is beta's L/2;
    ``texts`` keeps the texts of A1 and A2, which the label pair's row fixes.
    """
    block = block_ints(labels, alpha)
    if isinstance(block, str):
        return SKIP_SINGULAR, f"block: {block} = 0", None, None
    P, a1, a2, e_minus, e_plus = case1_ints(labels, alpha, beta, d33)
    rho = z_ratio(labels, z_terms(beta, 1) + z_terms(alpha, -1, block=True))
    if rho.order:
        return SKIP_POLE, f"scalar-to-block factor ratio is {rho.kind}", None, None
    b11, b12, b21, b22, den = block
    q = rho.den
    p = rho.num * den
    # each equation times den P q
    eqs = {
        "column.1": (b11 * a1 + b12 * e_minus) * q + a1 * p,
        "column.2": (b21 * a1 + b22 * e_minus) * q - e_plus * p,
        "row.1": (a2 * b11 - e_minus * b21) * q + a2 * p,
        "row.2": (a2 * b12 - e_minus * b22) * q + e_plus * p,
    }
    residuals = {k: format_ratio(v, den * P * q) for k, v in eqs.items() if v}
    detail = ""
    if residuals:
        col_ok = "column.1" not in residuals and "column.2" not in residuals
        row_ok = "row.1" not in residuals and "row.2" not in residuals
        if col_ok != row_ok:
            detail = "only the %s relation holds" % ("column" if col_ok else "row")
    row = (P, a1, a2)
    row_texts = texts.get(row)
    if row_texts is None:
        row_texts = texts[row] = [format_ratio(a1, P), format_ratio(a2, P)]
    quantities = {"a1": row_texts[0], "a2": row_texts[1],
                  "e_minus": format_ratio(e_minus, P), "e_plus": format_ratio(e_plus, P)}
    return FAIL if residuals else PASS, detail, quantities, residuals or None


def verify_interface(labels: Labels, centers: Iterable[Key],
                     table: Dict[Tuple[Fraction, int], Fraction]) -> SuiteReport:
    """Interface coherence between the multiplicity 1 and 2 parts.

    Per center: both mixed-multiplicity edges (f +- 1, under the -4i z
    normalization of the scalar part), and the four-corner square relation
    det B(alpha2) = (det M2 / det M1) det B(alpha1).
    """
    report = SuiteReport("interface")
    rows = report._rows
    texts: Dict[tuple, List[str]] = {}
    d33s: Dict[Tuple[int, int], Optional[Fraction]] = {}    # by (2j, eps); None: no L there
    for center in [labels.at(c) for c in centers if c[3] == 0]:
        partners = partner_keys(center.key)
        if not partners:        # j = 1/2: no partner and no square
            continue
        kt = center.ktype
        node = center.key[2], kt.eps        # the partners share the center's (j, eps)
        if node not in d33s:
            d33s[node] = _d33(table, kt) if (kt.j, kt.eps) in table else None
        d33 = d33s[node]
        if d33 is not None:
            for key in partners:
                beta = labels.at(key)
                rows += (1, kt, beta.ktype, None)
                rows += _check_case1_edge(labels, center, beta, d33, texts)
        alpha2 = labels.neighbors(center)[3]     # the (1, 1) arrow: f+1, j+1, same eps
        rows += (2, kt, alpha2.ktype, _UP)
        rows += _check_square(labels, center, alpha2)
    return report


def _check_square(labels: Labels, alpha1: Label, alpha2: Label) -> tuple:
    """(verdict, detail, quantities, residuals) of det B(alpha2) rho^2 =
    (det M2 / det M1) det B(alpha1) on the square at alpha1.

    alpha2 is (f+1; j+1) of a center with j >= 3/2, where lambda(T*T) never
    vanishes, so :func:`case2_ints` gives its row.  The shared-factor ratio is
    a1/a3, a1 = (2f + 2J + 2r + 4 - s)/4 and a3 = (2f + 2J - 2r + 4 + s)/4 at
    alpha1 with (J, s) its spectral pair.  Only a perturbed D11, D12, D21 or
    D22 entry reaches its skip: a1 = 0 is a factor of C4 at alpha2, so that
    block is skipped as singular first, and a3 = 0 makes det M1 vanish.
    """
    ca, cb = block_ints(labels, alpha1), block_ints(labels, alpha2)
    for block in (ca, cb):
        if isinstance(block, str):
            return SKIP_SINGULAR, f"block: {block} = 0", None, None
    det_m1, det_m2 = map(det2, _matrices(case2_ints(labels, alpha1, alpha2)))  # over P^4
    if det_m1 == 0:
        return SKIP_DEGENERATE, "det M1 = 0: propagation is vacuous", None, None
    rho = z_ratio(labels, z_terms(alpha2, 1, block=True) + z_terms(alpha1, -1, block=True))
    if rho.order:
        return SKIP_POLE, f"shared-factor ratio is {rho.kind}", None, None
    # det B rho^2 = det_b p^2 / (den_b^2 q^2) against det_m2/det_m1 det_a/den_a^2
    det_a, det_b = (det2((c[:2], c[2:4])) for c in (ca, cb))
    p, q = rho.num, rho.den
    lhs, rhs = det_b * p * p * ca[4] ** 2, det_m2 * det_a * cb[4] ** 2 * q * q
    quantities = {"det_m_ratio": format_ratio(det_m2, det_m1)}
    if lhs * det_m1 == rhs:
        return PASS, "", quantities, None
    return FAIL, "", quantities, {
        "det": format_ratio(lhs * det_m1 - rhs, cb[4] ** 2 * q * q * ca[4] ** 2 * det_m1)}


def resolve_block_factor_reading(params: Params, centers: Sequence[Key]) -> dict:
    """Adjudicate where the block's shared factor sits: weight f+1 or f.

    Tries both readings of the degeneration at r = 1/2, where -4 z is the
    first-order eigenvalue f - sJ, against the first-order block.  One is
    ``resolved`` only if it matched every checked center ('f+1' if both did),
    else 'neither', a verification failure; None when no center was checked
    (none has multiplicity two, or each one's r = 1/2 block is singular).
    The centers are keys, read as records of one r = 1/2 table: each block
    is :func:`block_ints` and each eigenvalue f - sJ an integer on the
    table's scale, compared with the first-order block by cross multiplication.
    """
    labels = Labels(Params(params.n, Fraction(1, 2), params.f_lattice))
    d = labels.scale
    outcome = {"f+1": 0, "f": 0, "checked": 0}
    for key in centers:
        if key[3] != 0:
            continue
        rec = labels.at(key)
        block = block_ints(labels, rec)
        if isinstance(block, str):
            continue
        *nums, den = block
        (w11, w12), (w21, w22) = first_order_block(labels.params, rec.ktype)
        outcome["checked"] += 1
        for reading, F in (("f+1", rec.F + d), ("f", rec.F)):
            eigenvalue = F - rec.s * rec.J          # (f - sJ) d
            # (num/den) (eigenvalue/d) = w  iff  num eigenvalue w.den = w.num den d
            if all(num * eigenvalue * w.denominator == w.numerator * den * d
                   for num, w in zip(nums, (w11, w12, w21, w22))):
                outcome[reading] += 1
    matched = [reading for reading in ("f+1", "f") if outcome[reading] == outcome["checked"]]
    outcome["resolved"] = (matched[0] if matched else "neither") if outcome["checked"] else None
    return outcome


def run_all_suites(params: Params, centers: Sequence[Key], f_min, f_max, j_max):
    """Drive all four suites on one list of label keys plus calibration;
    returns (reports, calibrations).  One :class:`Labels` table serves the
    run.  The xi set follows ``centers``: each xi in it (``key[0]``) is
    calibrated and its interface suite gets that xi's centers.  A
    calibration with nothing to solve maps its xi to the
    :class:`EmptyWindowError` naming why (an interface center would need
    j >= 3/2 and an f point in the same window, so none exists), and one
    with no solution to its :class:`InconsistentSystemError`; either way
    that xi gets no interface checks.
    """
    labels = Labels(params)
    reports: Dict[str, SuiteReport] = {}
    reports["mult1-quotients"] = verify_mult1_quotients(labels, centers)
    reports["mult2-quotients"] = verify_mult2_quotients(labels, centers)
    reports["case2-relation"] = verify_case2_relation(labels, centers)
    calibrations: Dict[int, Union[CalibrationResult, EmptyWindowError]] = {}
    interface = SuiteReport("interface")
    for xi in sorted({key[0] for key in centers}):
        try:
            result = calibrate_L(labels, xi, f_min, f_max, j_max)
        except InconsistentSystemError as exc:     # an EmptyWindowError among them
            calibrations[xi] = exc
            while exc is not None:      # kept with no traceback: its frames hold the table
                exc.__traceback__, exc = None, exc.__context__
            continue
        calibrations[xi] = result
        sub = verify_interface(labels, [key for key in centers if key[0] == xi], result.table)
        interface._rows += sub._rows
    reports["interface"] = interface
    return reports, calibrations
