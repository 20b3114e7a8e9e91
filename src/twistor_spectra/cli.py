"""Command-line front end.

Subcommands: spectrum, block, neighbors, verify, calibrate.  Output is a
pure function of the flags: deterministic row order, exact values printed as
p/q, numerics with 15 significant digits, poles printed as POLE.  JSON output
is byte-identical to ``json.dumps(obj, indent=2, sort_keys=True)``, written as
its fixed shape, and CSV to ``csv.writer``'s text.  CSV and JSON tables are
streamed, one piece per row as the rows are made; a table holds its rows,
for its column widths.  No table writer takes a Python step per cell.  The verify
report is streamed too: :func:`cmd_verify` assembles its head, and
:func:`~twistor_spectra.verify.report_pieces` writes the whole report's text.
Every output goes through :func:`_emit`.  Exit codes: 0 success, 1
verification failure, 2 usage error.  Bad input (a malformed label, a zero
denominator or a value past :data:`MAX_FLAG_DIGITS`, named with its flag, an
empty or unwritable ``--out`` path, a spectrum or verify window with no
K-type, a window with more than :data:`MAX_WINDOW_LABELS` K-types, a
calibrate window with nothing to solve) and a failed write raise
:class:`UsageError` where they are found, and :func:`main` alone prints it
and returns 2; only argparse's own errors raise ``SystemExit(2)``.
:data:`COMMANDS` is the one definition of each subcommand's flags.
:func:`main` reads a subcommand followed by its exact long flags
(``--flag=value``, ``--flag value`` with a value not starting with ``-``, a
bare store_true flag; every value non-empty and valid, every required flag
given) against it directly; argparse is imported and its parser built, once
per process, only for help, errors and every other argv.
A query stays on ints from the flag text (:func:`_flag_rational`) to the
printed cell.  A ``spectrum`` or ``verify`` window's ranges are built once,
by :func:`_check_size`, and walked as label keys (``range_keys``); only
``calibrate`` builds its ranges again, in ``calibrate_L``.
"""
from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from operator import add, itemgetter
from types import SimpleNamespace
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from . import faults
from .exact import format_ratio, format_rational, pq_json, rational
from .ktypes import (BadDimensionError, InvalidWeightError, KType, Labels, Params, f2_range,
                     interface_square, j2_range, label_key, make_ktype, range_keys)
from .spectra import (SPECTRUM_COLUMNS, EmptyWindowError, InconsistentSystemError,
                      block_ints, calibrate_L, mult1_quotient_matrix,
                      mult2_det_quotient_matrix, first_order_block, spectrum_rows,
                      z_forms)
from .verify import CONVENTION, report_pieces, run_all_suites, resolve_block_factor_reading

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1

# a text given in pieces is written in batches of at least this many characters
CHUNK = 1 << 16

# the most K-types a spectrum, verify or calibrate window may hold (the
# benchmark's widest holds 8400)
MAX_WINDOW_LABELS = 2 ** 16

# the largest float as the exact int it is: |p/q| is past it when |p| > _FLOAT_MAX q
_FLOAT_MAX = int(sys.float_info.max)

# the largest decimal order of magnitude of a rational flag, on its text: its
# digits after the first plus its exponent's magnitude ("1e10000" is read)
MAX_FLAG_DIGITS = 10_000

# the most multiplicity-two centers, the window's first, on which verify
# resolves the block factor's reading
MAX_READING_CENTERS = 40


class UsageError(Exception):
    """Bad input, raised where it is found; ``main`` prints it and returns 2."""


class Flag:
    """One flag of a subcommand: how ``build_parser`` declares it to argparse
    and how ``_table_args`` reads it; a plain class, since making a
    ``NamedTuple`` class costs each import a few tenths of a millisecond."""
    __slots__ = ("option", "type", "choices", "default", "required", "store_true", "help")

    def __init__(self, option: str, type: Callable = str, choices: Optional[tuple] = None,
                 default: object = None, required: bool = False, store_true: bool = False,
                 help: Optional[str] = None) -> None:
        self.option, self.type, self.choices, self.default = option, type, choices, default
        self.required, self.store_true, self.help = required, store_true, help


_PARAMS = (
    Flag("--n", int, default=4, help="sphere dimension + 1 (even, >= 4)"),
    Flag("--r", default="1/2", help="half the operator order, as p/q"),
    Flag("--lattice", choices=("half", "int"), default="half", help="circle weight lattice"),
)
_COMMON = _PARAMS + (
    Flag("--strict-paper", default=False, store_true=True,
         help="use the strict formula variants, including their known misprints"),
)
_WINDOW = (Flag("--f-min", default="-9/2"), Flag("--f-max", default="9/2"),
           Flag("--j-max", default="9/2"))
_REGION = _WINDOW + (Flag("--xi", choices=("1", "-1", "both"), default="both"),
                     Flag("--eps", choices=("1", "-1", "both"), default="both"))
_OUTPUT = (Flag("--format", choices=("table", "json", "csv"), default="table"),
           Flag("--out", help="write output to a file instead of stdout"))


def _label(*q: Flag) -> tuple:
    """A one-label query: the configuration, --f/--j[/--q]/--eps/--xi, the output."""
    return _COMMON + (Flag("--f", required=True), Flag("--j", required=True), *q,
                      Flag("--eps", int, (1, -1), required=True),
                      Flag("--xi", int, (1, -1), default=1)) + _OUTPUT


def _pm(values: str) -> List[int]:
    return [1, -1] if values == "both" else [int(values)]


def _flag_rational(group: str, flag: str, text: str) -> Fraction:
    """``Fraction(text)``; a bad value is a UsageError naming its flag, and so is
    one past :data:`MAX_FLAG_DIGITS`, before Fraction writes its exponent out.

    A plain ASCII ``k`` or ``p/q``, with an optional leading ``-``, is read
    by ``int``; any other text (whitespace, ``+``, ``_``, a decimal point,
    an exponent, a non-ASCII digit) is left to Fraction's own parser."""
    if len(text) > MAX_FLAG_DIGITS or "e" in text or "E" in text:     # else too short to pass
        mantissa, _, exponent = text.lower().partition("e")
        magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
        if magnitude.isdecimal() and (len(magnitude) > len(str(MAX_FLAG_DIGITS)) or sum(
                map(str.isdecimal, mantissa)) - 1 + int(magnitude) > MAX_FLAG_DIGITS):
            raise UsageError(f"bad {group}: {flag} {text}: more than {MAX_FLAG_DIGITS} "
                             "digits after the first, the exponent included")
    p, slash, q = text.partition("/")
    try:
        if text.isascii() and (p[1:] if p[:1] == "-" else p).isdigit() and \
                (q.isdigit() or not slash):
            return Fraction(int(p), int(q) if slash else 1)
        return rational(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError:
        reason = "not a rational number"
    raise UsageError(f"bad {group}: {flag} {text}: {reason}")


def _params(args) -> Params:
    r = _flag_rational("configuration", "--r", args.r)
    try:
        return Params(args.n, r, args.lattice, args.strict_paper)
    except BadDimensionError as exc:
        raise UsageError(str(exc)) from None


def _window_args(args):
    return (_flag_rational("region", "--f-min", args.f_min),
            _flag_rational("region", "--f-max", args.f_max),
            _flag_rational("region", "--j-max", args.j_max))


def _region_args(args):
    return (*_window_args(args), _pm(args.xi), _pm(args.eps))


def _label_arg(params: Params, args, q: int) -> KType:
    """The --f/--j label."""
    f = _flag_rational("label", "--f", args.f)
    j = _flag_rational("label", "--j", args.j)
    try:
        return make_ktype(params, args.xi, f, j, q, args.eps)
    except InvalidWeightError as exc:
        raise UsageError(f"bad label: {exc}") from None


def _check_out(out: Optional[str]) -> None:
    """A UsageError if ``out`` is given but cannot be written; the file is not touched."""
    if out is None:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if not out:
        reason = "empty path"
    elif os.path.isdir(out):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = "no such directory"
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"bad output: --out {out}: {reason}")


def _emit(text: Union[str, Iterable[str]], out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout; a failed write is a UsageError.

    A text given as pieces is joined in batches of at least :data:`CHUNK`
    characters (the last may be shorter), one write each, and is never held
    as one string.
    """
    try:
        with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
            batch, size = [], 0
            for piece in (text,) if isinstance(text, str) else text:
                batch.append(piece)
                size += len(piece)
                if size >= CHUNK:
                    fh.write("".join(batch))
                    batch, size = [], 0
            fh.write("".join(batch))
            fh.flush()
    except OSError as exc:
        where = f"--out {out}" if out else "stdout"
        raise UsageError(f"bad output: {where}: {exc.strerror or exc}") from None


def _rows_text(rows: Iterable[tuple], columns: Sequence[str], fmt: str) -> Iterable[str]:
    """Rows of str cells in ``columns`` order as a table, CSV or JSON (one object
    per row), in pieces for :func:`_emit`: CSV and JSON give one piece per row
    as each is drawn; a table holds its rows, since its widths need them all.
    Cells are padded, joined and encoded by ``map`` and ``join``."""
    if fmt == "json":
        return _rows_json(rows, columns)
    if fmt == "csv":
        return _rows_csv(rows, columns)
    rows = list(rows)
    widths = [max(map(len, col)) for col in zip(columns, *rows)]
    lines = ["  ".join(map(str.ljust, columns, widths)), "  ".join("-" * w for w in widths)]
    lines += ["  ".join(map(str.ljust, row, widths)) for row in rows]
    return ["\n".join(lines) + "\n"]


def _rows_csv(rows: Iterable[tuple], columns: Sequence[str]) -> Iterator[str]:
    """The head and each row as ``csv.writer(lineterminator="\\n")`` writes them,
    one piece per row.  A row whose joined text holds exactly one comma
    fewer than its columns and no quote, CR or LF needs no quoting, and is
    that text; any other row (a lone empty cell too, which the stdlib
    quotes, and a CR, which some Python versions quote) is ``writerow``'s
    own line."""
    # ``writerow`` returns what its file's ``write`` returns, here the row's text
    writerow = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    commas = len(columns) - 1
    for row in chain((columns,), rows):
        line = ",".join(row)
        if line.count(",") == commas and line and not (
                '"' in line or "\r" in line or "\n" in line):
            yield line + "\n"
        else:
            yield writerow(row)


def _rows_json(rows: Iterable[tuple], columns: Sequence[str]) -> Iterator[str]:
    """``json.dumps({"schema_version": 1, "columns": columns, "rows": [dict(zip(columns,
    row)) for row in rows]}, indent=2, sort_keys=True)`` and a newline, for str cells:
    the head, one piece per row, the tail."""
    nl = "\n    "
    # a row object holds each name once, at its last column, keys sorted
    keys = sorted(dict(zip(columns, range(len(columns)))).items())
    names = [f"{nl}  {_string(name)}: " for name, _ in keys]
    # the cells in key order, and one more, so that a single column's is a
    # tuple too; joined through ``map`` over ``names``, the extra one is never read
    cells = itemgetter(*[i for _, i in keys], 0) if keys else None
    columns_text = f"[{nl}{(',' + nl).join(map(_string, columns))}\n  ]" if columns else "[]"
    yield f'{{\n  "columns": {columns_text},\n  "rows": ['
    sep = nl
    for row in rows:
        yield sep + ("{" + ",".join(map(add, names, map(_string, cells(row)))) + nl + "}"
                     if keys else "{}")
        sep = "," + nl
    yield f'{"]" if sep == nl else nl[:-2] + "]"},\n  "schema_version": {SCHEMA_VERSION}\n}}\n'


def _check_size(params: Params, f_min: Fraction, f_max: Fraction, j_max: Fraction,
                xis: Sequence[int], epss: Sequence[int]) -> Tuple[range, range]:
    """The window's 2f and 2j ranges (:func:`f2_range`, :func:`j2_range` from
    q = 0); a UsageError if it holds more than :data:`MAX_WINDOW_LABELS`
    K-types, counted on those ranges cut one past that (their len() stops
    at sys.maxsize).  The q = 1 labels take the 2j past the first."""
    f2s, j2s = f2_range(params, f_min, f_max), j2_range(j_max, 0)
    cut = slice(MAX_WINDOW_LABELS + 1)
    count = len(xis) * len(epss) * len(f2s[cut]) * (len(j2s[cut]) + len(j2s[1:][cut]))
    if count > MAX_WINDOW_LABELS:
        raise UsageError(f"bad region: the window holds more than {MAX_WINDOW_LABELS} "
                         "K-types; narrow --f-min/--f-max or --j-max")
    return f2s, j2s


def _empty_window(f_min: Fraction, f_max: Fraction, j_max: Fraction) -> UsageError:
    return UsageError(f"empty window: no K-type with {format_rational(f_min)} <= f <= "
                      f"{format_rational(f_max)} and j <= {format_rational(j_max)}")


def cmd_spectrum(args) -> int:
    params = _params(args)
    f_min, f_max, j_max, xis, epss = _region_args(args)
    for group, flag, text, value in (("configuration", "--r", args.r, params.r),
                                     ("region", "--f-min", args.f_min, f_min),
                                     ("region", "--f-max", args.f_max, f_max)):
        if abs(value.numerator) > _FLOAT_MAX * value.denominator:
            raise UsageError(f"bad {group}: {flag} {text}: beyond the float range, "
                             "z_numeric cannot be formed")
    keys = range_keys(*_check_size(params, f_min, f_max, j_max, xis, epss), (0, 1), xis, epss)
    if not keys:
        raise _empty_window(f_min, f_max, j_max)
    try:
        rows = spectrum_rows(params, keys)
    except OverflowError as exc:        # log-gammas past lgamma's range cancel
        raise UsageError(f"bad region: {exc}, z_numeric cannot be formed") from None
    _emit(_rows_text(rows, SPECTRUM_COLUMNS, args.format), args.out)
    return 0


def cmd_block(args) -> int:
    """``block2x2`` on ints: ``block_ints``, and the factor z(r; f+1, J, s) as
    ``pq_json`` of its ``z_forms`` triples."""
    params = _params(args)
    kt = _label_arg(params, args, 0)
    labels = Labels(params)
    label, d = labels.of(kt), labels.scale
    coeffs = block_ints(labels, label)
    if isinstance(coeffs, str):
        rows = [("block", f"SINGULAR({coeffs})")]
    else:
        *nums, den = coeffs
        rows = [(name, format_ratio(num, den))
                for name, num in zip(("b11", "b12", "b21", "b22"), nums)]
        factor = pq_json(*z_forms(params.r, d, label.F + d, label.J, label.s))
        rows.append(("shared_factor", json.dumps(factor, sort_keys=True)))
    if params.r == Fraction(1, 2):
        fo = first_order_block(params, kt)
        rows += [(f"order_one_block({i + 1},{k + 1})/i", format_rational(fo[i][k]))
                 for i in (0, 1) for k in (0, 1)]
    _emit(_rows_text(rows, ("quantity", "value"), args.format), args.out)
    return 0


def cmd_neighbors(args) -> int:
    params = _params(args)
    kt = _label_arg(params, args, args.q)
    quotients = mult1_quotient_matrix if kt.multiplicity == 1 else mult2_det_quotient_matrix
    entries = quotients(params, kt)
    rows = []
    for dj in (1, 0, -1):       # the diagram's 3x2 layout
        cells = [f"{dj:+d}"]
        for df in (-1, 1):
            entry = entries.get((df, dj))
            cells.append("absent" if entry is None else
                         f"{entry.render()}  -> {entry.neighbor.label()}")
        rows.append(cells)
    text = _rows_text(rows, ("dj", "df=-1", "df=+1"), args.format)
    square = interface_square(label_key(kt)) if args.format == "table" else ()
    if square:
        corners = [kt.label()] + [KType(xi, Fraction(f2, 2), Fraction(j2, 2), q, eps).label()
                                  for xi, f2, j2, q, eps in square[1:]]
        text = chain(text, ["interface square:\n  alpha1 = {}\n  alpha2 = {}\n"
                            "  beta1  = {}\n  beta2  = {}\n".format(*corners)])
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    params = _params(args)
    f_min, f_max, j_max, xis, epss = _region_args(args)
    keys = range_keys(*_check_size(params, f_min, f_max, j_max, xis, epss), (0, 1), xis, epss)
    if not keys:
        raise _empty_window(f_min, f_max, j_max)
    reports, calibrations = run_all_suites(params, keys, f_min, f_max, j_max)
    reading = resolve_block_factor_reading(
        params, [key for key in keys if key[3] == 0][:MAX_READING_CENTERS])
    unsolved = [cal for _, cal in sorted(calibrations.items()) if _unsolved(cal)]
    all_ok = not unsolved and all(rep.ok for rep in reports.values()) and \
        reading["resolved"] != "neither" and \
        all(isinstance(cal, EmptyWindowError) or cal.consistent for cal in calibrations.values())
    if unsolved:
        # one stderr line and no summary; the report records the error under its xi
        print(f"calibration inconsistent: {unsolved[0]}", file=sys.stderr)
    else:
        _emit(_verify_summary(reports, calibrations, reading, all_ok), None)
    if args.out:
        head = {
            "schema_version": SCHEMA_VERSION,
            "params": {"n": params.n, "r": format_rational(params.r),
                       "lattice": params.f_lattice,
                       "strict_paper": params.strict_paper},
            "region": {"f_min": format_rational(f_min), "f_max": format_rational(f_max),
                       "j_max": format_rational(j_max),
                       "xi": sorted(xis), "eps": sorted(epss)},
            "convention": dict(CONVENTION, block_factor_resolution=reading),
            "calibration": {str(xi): _calibration_json(cal)
                            for xi, cal in calibrations.items()},
            "ok": all_ok,
        }
        _emit(report_pieces(head, reports), args.out)
    return 0 if all_ok else 1


def _unsolved(cal) -> bool:
    """A calibration that raised for want of a solution, not for an empty window."""
    return isinstance(cal, InconsistentSystemError) and not isinstance(cal, EmptyWindowError)


def _verify_summary(reports, calibrations, reading, all_ok) -> str:
    """verify's stdout: suites, calibrations, the block-factor reading, a failing edge."""
    lines = [rep.summary_line() for rep in reports.values()]
    for xi, cal in sorted(calibrations.items()):
        if isinstance(cal, EmptyWindowError):
            lines.append(f"calibration xi={xi:+d}   skipped ({cal})")
            continue
        status = "consistent" if cal.consistent else "UNPINNED"   # the only issue
        lines.append(f"calibration xi={xi:+d}   {status} "
                     f"({cal.difference_edges} constraints, {len(cal.table)} classes)")
    if reading["resolved"] is None:
        lines.append("block shared factor: not resolved (every r = 1/2 block singular)")
    elif reading["resolved"] == "neither":
        lines.append("block shared factor: NO reading matches every checked center "
                     f"(f+1: {reading['f+1']}, f: {reading['f']}, checked: {reading['checked']})")
    else:
        lines.append(f"block shared factor resolved at weight: {reading['resolved']}")
    if not all_ok:
        for rep in reports.values():
            fail = rep.first_failure
            if fail is not None:
                why = (f" residuals={fail.residuals}" if fail.residuals else
                       f": {fail.detail}" if fail.detail else "")
                lines.append(f"first failing edge [{rep.suite}]: "
                             f"{fail.center.label()} -> "
                             f"{fail.neighbor.label() if fail.neighbor else '-'}{why}")
                break
    return "".join(line + "\n" for line in lines)


def _calibration_json(cal) -> dict:
    if isinstance(cal, EmptyWindowError):
        return {"skipped": str(cal)}
    if _unsolved(cal):
        return {"error": str(cal), "witness": cal.witness}
    return {"consistent": cal.consistent,
            "difference_edges": cal.difference_edges,
            "unconstraining_edges": cal.unconstraining_edges,
            "probe": cal.probe,
            "classes": [{"j": format_rational(j), "eps": eps, "L": format_rational(val)}
                        for (j, eps), val in cal.table.items()],
            "issues": cal.issues}


def cmd_calibrate(args) -> int:
    params = _params(args)
    f_min, f_max, j_max = _window_args(args)
    _check_size(params, f_min, f_max, j_max, [args.xi_solve], [1, -1])
    try:
        result = calibrate_L(Labels(params), args.xi_solve, f_min, f_max, j_max)
    except EmptyWindowError as exc:
        raise UsageError(str(exc)) from None
    except InconsistentSystemError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    rows = [(format_rational(j), f"{eps:+d}", format_rational(val))
            for (j, eps), val in result.table.items()]
    text = _rows_text(rows, ("j", "eps", "L"), args.format)
    if args.format == "table":
        text = chain(text, [f"constraints: {result.difference_edges}, "
                            f"unconstraining: {result.unconstraining_edges}, "
                            f"consistent: {result.consistent}\n"])
    _emit(text, args.out)
    return 0 if result.consistent else 1


# each subcommand's help, its flags in the order of its help text, and the
# attributes set by no flag: the one definition, read by build_parser and _table_args
COMMANDS = {
    "spectrum": ("tabulate spectral data over a region", _COMMON + _REGION + _OUTPUT,
                 {"handler": cmd_spectrum}),
    "block": ("one 2x2 block, with its r = 1/2 degeneration", _label(),
              {"handler": cmd_block}),
    "neighbors": ("diagram around one K-type with quotient entries",
                  _label(Flag("--q", int, (0, 1), required=True)),
                  {"handler": cmd_neighbors}),
    "verify": ("run all verification suites over a region",
               _COMMON + _REGION + (Flag("--out", help="write the JSON report here"),),
               {"handler": cmd_verify}),
    "calibrate": ("solve for the divergence-part eigenvalues",
                  _PARAMS + _WINDOW + _OUTPUT +
                  (Flag("--xi-solve", int, (1, -1), 1, help="chirality used for the solve"),),
                  # solve with corrected forms
                  {"handler": cmd_calibrate, "strict_paper": False}),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse parser of :data:`COMMANDS`; each subcommand's ``handler``
    runs the parsed args."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="twistor-spectra",
        description="Exact spectra of conformal intertwining operators on twistors "
                    "over a circle times an even sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags:
            if flag.store_true:
                p.add_argument(flag.option, action="store_true", default=flag.default,
                               help=flag.help)
            else:
                p.add_argument(flag.option, type=flag.type, choices=flag.choices,
                               default=flag.default, required=flag.required, help=flag.help)
        p.set_defaults(**defaults)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """This process's parser, built by ``build_parser`` on first use."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _table_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would give for ``argv``, read against its
    subcommand's flags in :data:`COMMANDS`; None for an argv outside the form
    the module docstring gives (an empty value too), which argparse parses."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, table, defaults = COMMANDS[argv[0]]
    flags = {flag.option: flag for flag in table}
    values = {}
    rest = iter(argv[1:])
    for arg in rest:
        option, eq, value = arg.partition("=")
        flag = flags.get(option)
        if flag is None:
            return None
        if flag.store_true:
            if eq:
                return None
            values[option] = True
            continue
        if not eq:
            value = next(rest, "")
            if value.startswith("-"):
                return None
        if not value:
            return None
        try:
            value = flag.type(value)
        except ValueError:
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[option] = value
    if any(flag.required and flag.option not in values for flag in table):
        return None
    return SimpleNamespace(command=argv[0], **defaults,
                           **{flag.option[2:].replace("-", "_"):
                              values.get(flag.option, flag.default) for flag in table})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; its exit code, 2 for any :class:`UsageError`.  It
    first empties the r-keyed tables (``faults.start_run``).  An exact value
    has as many digits as the flags give it, so Python's limit on converting
    an int to str is lifted while it runs, and restored however it ends."""
    faults.start_run()
    if argv is None:
        argv = sys.argv[1:]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()    # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _table_args(argv)
        if args is None:
            args = _parser().parse_args(argv)
        _check_out(args.out)
        return args.handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
