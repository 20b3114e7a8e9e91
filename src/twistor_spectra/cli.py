"""Command-line front end.

Subcommands: spectrum, block, neighbors, verify, calibrate.  Output is a
pure function of the flags: deterministic row order, exact values printed as
p/q, numerics with 15 significant digits, poles printed as POLE.  JSON output
(the verify report and ``--format json``) is streamed in bounded chunks and is
byte-identical to ``json.dumps(obj, indent=2, sort_keys=True)``.  Exit codes:
0 success, 1 verification failure, 2 usage error.  Bad input (a malformed
label or a zero denominator, named with its flag, an empty or unwritable
``--out`` path, a spectrum or verify window with no K-type, a calibrate
window with nothing to solve) raises :class:`UsageError` where it is found,
and :func:`main` alone prints it and returns 2; only argparse's own errors
raise ``SystemExit(2)``.  One parser serves every :func:`main` call.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ._jsontext import IndentedEncoder
from .exact import (GammaPoleError, NonCommensurableError, evaluate_numeric,
                    format_rational, ratio_tagged, rational)
from .ktypes import (BadDimensionError, InvalidWeightError, KType, Params,
                     enumerate_ktypes, interface_square, make_ktype)
from .spectra import (EmptyWindowError, InconsistentSystemError,
                      SingularCoefficientError, block_coefficients, block2x2,
                      calibrate_L, mult1_quotient_matrix,
                      mult2_det_quotient_matrix, first_order_block, z_for)
from .verify import CONVENTION, run_all_suites, resolve_block_factor_reading

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad input, raised where it is found; ``main`` prints it and returns 2."""


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=4, help="sphere dimension + 1 (even, >= 4)")
    p.add_argument("--r", default="1/2", help="half the operator order, as p/q")
    p.add_argument("--lattice", choices=("half", "int"), default="half",
                   help="circle weight lattice")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_params(p)
    p.add_argument("--strict-paper", action="store_true",
                   help="use the strict formula variants, including their known misprints")


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f-min", default="-9/2")
    p.add_argument("--f-max", default="9/2")
    p.add_argument("--j-max", default="9/2")


def _add_region(p: argparse.ArgumentParser) -> None:
    _add_window(p)
    p.add_argument("--xi", choices=("1", "-1", "both"), default="both")
    p.add_argument("--eps", choices=("1", "-1", "both"), default="both")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_label(p: argparse.ArgumentParser, with_q: bool) -> None:
    """A one-label query: the configuration, --f/--j[/--q]/--eps/--xi, the output."""
    _add_common(p)
    for flag in ("--f", "--j"):
        p.add_argument(flag, required=True)
    if with_q:
        p.add_argument("--q", type=int, choices=(0, 1), required=True)
    p.add_argument("--eps", type=int, choices=(1, -1), required=True)
    p.add_argument("--xi", type=int, choices=(1, -1), default=1)
    _add_output(p)


def _pm(values: str) -> List[int]:
    return [1, -1] if values == "both" else [int(values)]


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; each subcommand's ``handler`` runs the parsed args."""
    parser = argparse.ArgumentParser(
        prog="twistor-spectra",
        description="Exact spectra of conformal intertwining operators on twistors "
                    "over a circle times an even sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="tabulate spectral data over a region")
    for add in (_add_common, _add_region, _add_output):
        add(p_spec)
    p_spec.set_defaults(handler=cmd_spectrum)

    p_block = sub.add_parser("block", help="one 2x2 block, with its r = 1/2 degeneration")
    _add_label(p_block, with_q=False)
    p_block.set_defaults(handler=cmd_block)

    p_nb = sub.add_parser("neighbors", help="diagram around one K-type with quotient entries")
    _add_label(p_nb, with_q=True)
    p_nb.set_defaults(handler=cmd_neighbors)

    p_ver = sub.add_parser("verify", help="run all verification suites over a region")
    for add in (_add_common, _add_region):
        add(p_ver)
    p_ver.add_argument("--out", default=None, help="write the JSON report here")
    p_ver.set_defaults(handler=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="solve for the divergence-part eigenvalues")
    for add in (_add_params, _add_window, _add_output):
        add(p_cal)
    p_cal.add_argument("--xi-solve", type=int, choices=(1, -1), default=1,
                       help="chirality used for the solve")
    p_cal.set_defaults(handler=cmd_calibrate, strict_paper=False)  # solve with corrected forms
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """This process's parser, built by ``build_parser`` on first use."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _flag_rational(group: str, flag: str, text: str) -> Fraction:
    """``rational(text)``; a bad value is a UsageError naming its flag."""
    try:
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


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_text(rows: List[Dict[str, str]], columns: List[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, "columns": columns,
                           "rows": rows}, indent=2, sort_keys=True,
                          cls=IndentedEncoder) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c)
              for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _empty_window(f_min: Fraction, f_max: Fraction, j_max: Fraction) -> UsageError:
    return UsageError(f"empty window: no K-type with {format_rational(f_min)} <= f <= "
                      f"{format_rational(f_max)} and j <= {format_rational(j_max)}")


SPECTRUM_COLUMNS = ["xi", "f", "j", "q", "eps", "mult", "z_rel", "z_base",
                    "z_numeric", "b11", "b12", "b21", "b22", "note"]


def cmd_spectrum(args) -> int:
    params = _params(args)
    f_min, f_max, j_max, xis, epss = _region_args(args)
    rows: List[Dict[str, str]] = []
    bases: List[KType] = []
    for kt in enumerate_ktypes(params, f_min, f_max, j_max, (0, 1), xis, epss):
        row = {c: "" for c in SPECTRUM_COLUMNS}
        row.update({"xi": str(kt.xi), "f": format_rational(kt.f),
                    "j": format_rational(kt.j), "q": str(kt.q),
                    "eps": str(kt.eps), "mult": str(kt.multiplicity)})
        if kt.multiplicity == 1:
            zq = z_for(params, kt)
            base, row["z_rel"] = _relative_to_base(params, kt, zq, bases)
            row["z_base"] = base.label()
            try:
                row["z_numeric"] = f"{evaluate_numeric(zq):.15g}"
            except GammaPoleError:
                row["z_numeric"] = "POLE"
        else:
            try:
                coeffs = block_coefficients(params, kt)
                for name, c in zip(("b11", "b12", "b21", "b22"), coeffs):
                    row[name] = format_rational(c)
            except SingularCoefficientError as exc:
                row["note"] = f"SINGULAR({exc.which})"
        rows.append(row)
    if not rows:
        raise _empty_window(f_min, f_max, j_max)
    _emit(_rows_text(rows, SPECTRUM_COLUMNS, args.format), args.out)
    return 0


def _relative_to_base(params, kt, zq, bases):
    """Exact value relative to the first commensurable base row."""
    for base in bases:
        try:
            tagged = ratio_tagged(zq, z_for(params, base))
        except NonCommensurableError:
            continue
        return base, tagged.render()
    bases.append(kt)
    return kt, "1"


def cmd_block(args) -> int:
    params = _params(args)
    kt = _label_arg(params, args, 0)
    rows = []
    try:
        block = block2x2(params, kt)
        for name, c in zip(("b11", "b12", "b21", "b22"), block.coefficients):
            rows.append({"quantity": name, "value": format_rational(c)})
        rows.append({"quantity": "shared_factor",
                     "value": json.dumps(block.factor.to_json(), sort_keys=True)})
    except SingularCoefficientError as exc:
        rows.append({"quantity": "block", "value": f"SINGULAR({exc.which})"})
    if params.r == Fraction(1, 2):
        fo = first_order_block(params, kt)
        rows += [{"quantity": f"order_one_block({i + 1},{k + 1})/i",
                  "value": format_rational(fo[i][k])} for i in (0, 1) for k in (0, 1)]
    _emit(_rows_text(rows, ["quantity", "value"], args.format), args.out)
    return 0


def cmd_neighbors(args) -> int:
    params = _params(args)
    kt = _label_arg(params, args, args.q)
    quotients = mult1_quotient_matrix if kt.multiplicity == 1 else mult2_det_quotient_matrix
    entries = quotients(params, kt)
    rows = []
    for dj in (1, 0, -1):       # the diagram's 3x2 layout
        row = {"dj": f"{dj:+d}"}
        for df in (-1, 1):
            entry = entries.get((df, dj))
            row[f"df={df:+d}"] = ("absent" if entry is None else
                                  f"{entry.render()}  -> {entry.neighbor.label()}")
        rows.append(row)
    text = _rows_text(rows, ["dj", "df=-1", "df=+1"], args.format)
    if kt.multiplicity == 2 and kt.j >= Fraction(3, 2) and args.format == "table":
        sq = interface_square(kt)
        text += ("interface square:\n"
                 f"  alpha1 = {sq.alpha1.label()}\n  alpha2 = {sq.alpha2.label()}\n"
                 f"  beta1  = {sq.beta1.label()}\n  beta2  = {sq.beta2.label()}\n")
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    params = _params(args)
    f_min, f_max, j_max, xis, epss = _region_args(args)
    centers = list(enumerate_ktypes(params, f_min, f_max, j_max, (0, 1), xis, epss))
    if not centers:
        raise _empty_window(f_min, f_max, j_max)
    try:
        reports, calibrations = run_all_suites(params, centers, f_min, f_max, j_max)
    except InconsistentSystemError as exc:
        print(f"calibration inconsistent: {exc}", file=sys.stderr)
        return 1
    reading = resolve_block_factor_reading(
        params, [c for c in centers if c.multiplicity == 2][:40])
    all_ok = all(rep.ok for rep in reports.values()) and \
        all(isinstance(cal, EmptyWindowError) or cal.consistent
            for cal in calibrations.values())
    for rep in reports.values():
        print(rep.summary_line())
    for xi, cal in sorted(calibrations.items()):
        if isinstance(cal, EmptyWindowError):
            print(f"calibration xi={xi:+d}   skipped ({cal})")
            continue
        status = "consistent" if cal.consistent else "UNPINNED"   # the only issue
        print(f"calibration xi={xi:+d}   {status} "
              f"({cal.difference_edges} constraints, {len(cal.table)} classes)")
    if reading["resolved"] is None:
        print("block shared factor: not resolved (every r = 1/2 block singular)")
    else:
        print(f"block shared factor resolved at weight: {reading['resolved']}")
    if not all_ok:
        for rep in reports.values():
            fail = rep.first_failure
            if fail is not None:
                print(f"first failing edge [{rep.suite}]: "
                      f"{fail.center.label()} -> "
                      f"{fail.neighbor.label() if fail.neighbor else '-'} "
                      f"residuals={fail.residuals}")
                break
    if args.out:
        payload = {
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
            "suites": reports,      # SuiteReport.to_json runs as each suite is written
            "ok": all_ok,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, cls=IndentedEncoder)
            fh.write("\n")
    return 0 if all_ok else 1


def _calibration_json(cal) -> dict:
    if isinstance(cal, EmptyWindowError):
        return {"skipped": str(cal)}
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
    try:
        result = calibrate_L(params, args.xi_solve, f_min, f_max, j_max)
    except EmptyWindowError as exc:
        raise UsageError(str(exc)) from None
    except InconsistentSystemError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    rows = [{"j": format_rational(j), "eps": f"{eps:+d}", "L": format_rational(val)}
            for (j, eps), val in result.table.items()]
    text = _rows_text(rows, ["j", "eps", "L"], args.format)
    if args.format == "table":
        text += (f"constraints: {result.difference_edges}, "
                 f"unconstraining: {result.unconstraining_edges}, "
                 f"consistent: {result.consistent}\n")
    _emit(text, args.out)
    return 0 if result.consistent else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; its exit code, 2 for any :class:`UsageError`."""
    args = _parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
