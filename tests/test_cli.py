import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Q
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twistor_spectra import cli, faults, ktypes, operators, spectra, verify
from twistor_spectra.cli import main
from twistor_spectra.exact import (GammaQuotient, NonCommensurableError, pq_ratio,
                                   ratio_tagged, rational)
from twistor_spectra.ktypes import KType, Labels, Params, enumerate_ktypes, window_keys
from twistor_spectra.spectra import SPECTRUM_COLUMNS, spectrum_rows, z_for

REGION = ["--f-min=-3/2", "--f-max", "3/2", "--j-max", "5/2"]

# sha256 of verify's stdout on REGION, per argv of test_report_bytes_are_pinned
VERIFY_STDOUT_SHA256 = {
    ("--n", "4", "--r", "1"):
        "a6964d8b1c2bf51945a574f6b95e234f1caf57128359fc117a87462eecef6ab9",
    ("--n", "6", "--r", "3/2", "--strict-paper"):
        "5e3221e58e4dc66be5337ba97a98286b73171c2bf818c7b89149cd6c85d8c82c",
    ("--n", "4", "--r", "5/2"):
        "b1aedc511f7ce6a5cb5e70bd85eb206140317e649753173080194fa5e96258d4",
    ("--n", "8", "--r=-3/2"):
        "288502075567b3d886f41519d3337da5fae400bd1a6486ca1d9c4a694443a506",
}

# sha256 over test_fault_sweep_is_pinned's runs
FAULT_SWEEP_SHA256 = "2eb2d9a1c42cf29bc2cfbee0007ef4f9fd1a990181c4abb2adcea00b5ce42546"


# sha256 of a command's stdout per format, recorded while spectrum still
# reduced each row against its base with ratio_tagged and rows were dicts
OUTPUT_SHA256 = {
    ("block", "--n", "6", "--r", "3/2", "--f", "1/2", "--j", "3/2", "--eps", "1", "--xi", "-1"): (
        "140faad1d59cecf03197742ebe66ad08f4f9d620cc5a0b19178464971df1f13b",
        "7623aa63f86d494eae03e7ad2acf134a83e7caf8ecf3848839ceada0aa965c07",
        "49a2a8bf0f80f2c5a911dc4a167cba49872abc210ce6c3c4279163d65eb5c7a4"),
    # the order-one rows and a singular block
    ("block", "--n", "4", "--r", "1/2", "--f", "1/2", "--j", "1/2", "--eps", "1"): (
        "d0a97e4bb142ff7f2c5940b23de7b08821efa99c79ef36933849210689bbf844",
        "680ff258e5b6ec68fee23103e95aff51197855b8d1286bcf4e991ed4ee2737ae",
        "db0fe8e62177927260756ad52244e58b1f9611eec429d0d45efb45f3b856a12e"),
    # the table carries the interface square
    ("neighbors", "--n", "6", "--r", "3/2", "--f", "1/2", "--j", "3/2", "--q", "0",
     "--eps", "1"): (
        "abbad99e4a5d49d11a29f708a3d98e4250de28004bfc08f828965d7096a1e542",
        "7c942d7de2a56c738607361b992b946a2b152fc035577e4e1520bbbef47d8efc",
        "a75e69f0dae14fc1d0c7c998758723aecea7e8f87f937ec4976b87e2fa14935d"),
    ("neighbors", "--n", "4", "--r", "7/3", "--f=-1/2", "--j", "3/2", "--q", "1",
     "--eps", "-1"): (
        "b5c3fd167b15477d20f4d5791999dc9869186f39b46f6af5f6f64e3893ac7a9a",
        "66f0188510eb0799ce42e379b4d9b496b872b0ae5427ff2e75ab2f440d9d2666",
        "3fed62fe7b321934ff3c1841c1c00a756a3b8d118b2e0c2b0da2871c3728ccdc"),
    ("calibrate", "--n", "6", "--r", "3/2", *REGION): (
        "a57629f453327ed9c87ae9a565f88559a282e106f25c1b704e2e4a482557d4a4",
        "5ef6db0be73906141a318fcb8cfbf9c42cf8263a1afad93204dcfb4f8ca77a6e",
        "7ab1bf65a413e2b77f6c885853f2c174d36c2cd23d5c8cdae775ec89478af8ad"),
    # poles on the chains
    ("spectrum", "--n", "4", "--r=-3/2", "--lattice", "int", *REGION): (
        "e48f2dff6e43505126c6ee93628d0f441e489aef6c198f03acbf7d5ec134fde5",
        "8f53155ef0c9435be5af2d34b9e863182207abc276263ba0d721fe581d66f3d5",
        "bc61908acfe07403d547ef0cce02053b0a1731de538b19b5fc4924579d76ddab"),
    # one base, two template classes
    ("spectrum", "--n", "6", "--r", "1/2", *REGION): (
        "23f93a306d3aea0920ebf9e99a9df315de59dd3b33ddee5d31507807c7d95b96",
        "90dab802b7dbf3eb158fefc5b7e82c3edacba98ac65b332cbe468c468275f5ab",
        "feda8349007c55af95da5ddfd2fd45fc42a5921dcaaba5764bf84a101299a1b0"),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


class TestSpectrum:
    def test_deterministic_output(self, capsys):
        argv = ("spectrum", "--n", "4", "--r", "1/2", *REGION)
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("command, window", [
        pytest.param(command, window, id=f"{prefix}window{i}")
        for prefix, command in (("", "spectrum"), ("verify-", "verify"))
        for i, window in enumerate([
            ("--f-min=3/2", "--f-max=-3/2"),
            ("--j-max=-1/2",),
            ("--f-min", "5/2", "--f-max=-5/2", "--j-max", "1/2"),
        ])
    ])
    def test_empty_window_exits_2(self, capsys, tmp_path, command, window):
        out_path = tmp_path / "out"
        code = main([command, "--n", "4", *window, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("empty window: no K-type")
        assert not out_path.exists()

    def test_order_one_rows_match_closed_form(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "4", "--r", "1/2", *REGION,
                        "--xi", "1", "--eps", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        m1 = [r for r in rows if r["mult"] == "1"]
        assert m1
        for r in m1:
            f, j = Q(r["f"]), Q(r["j"])
            want = -(f - (j + 1)) / 4  # xi*eps = +1, J = j + 1 at n = 4
            assert float(r["z_numeric"]) == pytest.approx(float(want), abs=1e-12)

    def test_pole_rows_marked_never_crash(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "4", "--r", "1/2",
                        "--f-min", "9/2", "--f-max", "9/2", "--j-max", "3/2",
                        "--xi", "1", "--eps", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(r["z_numeric"] == "POLE" for r in rows if r["mult"] == "1")

    def test_csv_and_json_encode_identical_rows(self, capsys):
        argv = ("spectrum", "--n", "6", "--r", "3/2", *REGION)
        _, csv_out = run(capsys, *argv, "--format", "csv")
        _, json_out = run(capsys, *argv, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        payload = json.loads(json_out)
        assert payload["schema_version"] == 1
        assert payload["rows"] == csv_rows

    def test_numerics_beyond_the_float_range_print_inf(self, capsys):
        # at r = 200 every multiplicity-one |z| on the default window
        # overflows a float; the run still succeeds
        rows = csv_rows(capsys, "spectrum", "--n", "4", "--r", "200", "--format", "csv")
        cells = {(r["xi"], r["f"], r["j"], r["q"], r["eps"]): r["z_numeric"] for r in rows}
        assert cells[("1", "3/2", "3/2", "1", "1")] == "inf"

    @pytest.mark.parametrize("argv", [
        # r a hair above 1/2, and |r| past 2**53: floats of gamma arguments
        # land on lgamma's poles although no argument is one
        ("--r", "50000000000000000001/100000000000000000000"),
        ("--r", "1e16"),
        ("--r=-1e20", "--f-min=1/2", "--f-max=3/2", "--j-max=3/2"),
        # an argument's distance to the pole underflows a float
        ("--r", "1e-400", "--lattice", "int"),
        # past lgamma's own range
        ("--r", "1e307"),
    ])
    def test_numerics_near_float_poles_never_crash(self, capsys, argv):
        rows = csv_rows(capsys, "spectrum", "--n", "4", *argv, "--format", "csv")
        cells = [row["z_numeric"] for row in rows if row["mult"] == "1"]
        assert cells
        assert all(cell == "POLE" or not math.isnan(float(cell)) for cell in cells)

    def test_a_small_window_far_out_is_fast_and_exact(self):
        # the gamma arguments of one z lie in one class mod 1 about 10**6
        # apart; only the spans whose exponents do not cancel are expanded
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "twistor_spectra.cli", "spectrum", "--n", "6",
             "--r", "5/2", "--f-min=-2000009/2", "--f-max=-2000001/2", "--j-max=7/2",
             "--format", "csv"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=20)
        assert done.returncode == 0, done.stderr
        n, r = 6, Q(5, 2)

        def z(xi, f, j, eps):
            # (s/2) (a)_{r-s/2} (b)_{r+s/2}, both indices positive at r = 5/2
            s, J = xi * eps, j + Q(n - 2, 2)
            a = (2*f + 2*J - 2*r + 2 + s) / 4
            b = (-2*f + 2*J - 2*r + 2 - s) / 4
            return (Q(s, 2) * math.prod((a + i for i in range(int(r - Q(s, 2)))), start=Q(1))
                    * math.prod((b + i for i in range(int(r + Q(s, 2)))), start=Q(1)))

        label = re.compile(r"V\(xi=([+-]1); f=(\S+), j=(\S+), q=1, eps=([+-]1)\)")
        checked = 0
        for row in csv.DictReader(io.StringIO(done.stdout)):
            if row["mult"] != "1":
                continue
            xi, f, j, eps = label.fullmatch(row["z_base"]).groups()
            base = z(int(xi), Q(f), Q(j), int(eps))
            here = z(int(row["xi"]), Q(row["f"]), Q(row["j"]), int(row["eps"]))
            assert base != 0 and here != 0
            assert Q(row["z_rel"]) == here / base, row
            checked += 1
        assert checked == 5 * 3 * 4        # five weights, 3/2 <= j <= 7/2, both xi and eps

    def test_numerics_a_hair_above_order_one_match_the_exact_ratios(self, capsys):
        # z_numeric of a row is z_rel times z_numeric of its base, the
        # arguments within 1e-20 of lgamma's poles taking the reflection route
        rows = csv_rows(capsys, "spectrum", "--n", "4", "--format", "csv",
                        "--r", "50000000000000000001/100000000000000000000")
        rows = [row for row in rows if row["mult"] == "1"]
        numeric = {f"V(xi={int(row['xi']):+d}; f={row['f']}, j={row['j']}, q=1, "
                   f"eps={int(row['eps']):+d})": float(row["z_numeric"]) for row in rows}
        checked = 0
        for row in rows:
            if row["z_rel"] not in ("0", "POLE") and numeric[row["z_base"]] != 0:
                want = float(Q(row["z_rel"])) * numeric[row["z_base"]]
                assert float(row["z_numeric"]) == pytest.approx(want, rel=1e-9), row
                checked += 1
        assert checked > 100

    def test_singular_blocks_are_annotated(self, capsys):
        _, out = run(capsys, "spectrum", "--n", "4", "--r", "1/2",
                     "--f-min", "1/2", "--f-max", "1/2", "--j-max", "1/2",
                     "--xi", "1", "--eps", "1", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["note"] == "SINGULAR(C4)"

    @pytest.mark.xfail(strict=True, reason="exact.pq_numeric raises GammaPoleError at a "
                       "pole that a zero of its class cancels (ROADMAP item 9)")
    def test_a_cancelled_pole_prints_its_finite_z(self, capsys):
        # z = -(f - sJ)/4 = 1/2 at r = 1/2, and z = -6 at r = 3/2
        cells = []
        for r, eps in (("1/2", "1"), ("3/2", "-1")):
            rows = csv_rows(capsys, "spectrum", "--n", "4", "--r", r, "--f-min=-9/2",
                            "--f-max=-9/2", "--j-max=3/2", "--xi=-1", f"--eps={eps}",
                            "--format", "csv")
            cells += [row["z_numeric"] for row in rows if row["mult"] == "1"]
        assert cells == ["0.5", "-6"]

    @pytest.mark.parametrize("dirac", [None, Q(1, 3)], ids=["unarmed", "dirac-1/3"])
    @pytest.mark.parametrize("n", [4, 10])
    @pytest.mark.parametrize("lattice", ["half", "int"])
    @pytest.mark.parametrize("r", ["-3/2", "-1/2", "0", "1/2", "5/2", "7/3", "200"])
    def test_chained_z_rel_matches_the_first_commensurable_base(self, capsys, r, lattice,
                                                                 n, dirac):
        # the reference is the route the chains replaced: every row reduced
        # by ratio_tagged against the first earlier base it is commensurable
        # with, or made a base itself
        params = Params(n, Q(r), lattice)
        armed = faults.inject("DIRAC", dirac) if dirac else contextlib.nullcontext()
        with armed:
            rows = csv_rows(capsys, "spectrum", f"--n={n}", f"--r={r}",
                            f"--lattice={lattice}", "--format", "csv")
            bases, want = [], {}
            for kt in enumerate_ktypes(params, Q(-9, 2), Q(9, 2), Q(9, 2), (1,)):
                base, rel = _relative_to_base(params, kt, bases)
                want[str(kt.xi), str(kt.f), str(kt.j), str(kt.eps)] = (rel, base.label())
        got = {(row["xi"], row["f"], row["j"], row["eps"]): (row["z_rel"], row["z_base"])
               for row in rows if row["mult"] == "1"}
        assert got == want
        if (n, lattice, dirac) == (4, "half", None):     # chains through poles and zeros
            assert {"-3/2": "POLE", "5/2": "0"}.get(r, "1") in {rel for rel, _ in got.values()}

    def test_a_slice_reduces_at_most_one_ratio_directly(self, capsys, monkeypatch):
        # one base and one template class per chain start: the rest is chained
        calls = []
        monkeypatch.setattr(spectra, "pq_ratio",
                            lambda a, b: calls.append(1) or pq_ratio(a, b))
        for r in ("1/2", "1", "5/2", "7/3"):
            calls.clear()
            run(capsys, "spectrum", "--n", "6", f"--r={r}", "--f-min=-19/2",
                "--f-max=19/2", "--j-max=11/2", "--format", "csv")
            assert len(calls) <= 1, r

    def test_a_tabulation_builds_no_gamma_quotient(self, capsys, monkeypatch):
        # a chain starts at a base, read off the integer forms, or at one
        # pq_ratio on the triples: no row, base or chain start is a quotient
        built, calls = [], []
        init = GammaQuotient.__init__
        monkeypatch.setattr(GammaQuotient, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        monkeypatch.setattr(spectra, "pq_ratio",
                            lambda a, b: calls.append(1) or pq_ratio(a, b))
        for n, r, lattice in ((6, "1/2", "half"), (4, "-3/2", "int"), (6, "7/3", "half"),
                              (4, "5/2", "half"), (10, "200", "int")):
            code, _ = run(capsys, "spectrum", f"--n={n}", f"--r={r}", f"--lattice={lattice}",
                          "--format", "csv")
            assert code == 0
        assert calls        # some slice did start a chain by a reduction
        assert built == []
        GammaQuotient()     # the count is live
        assert built == [1]

    def test_a_tabulation_leaves_the_z_table_alone(self, capsys):
        # a tabulation reads each z on ints, with no quotient; a block command
        # reads its factor the same way, after emptying the earlier entries
        params = Params(6, Q(17, 13))
        table = spectra._z_cached
        z_for(params, KType(1, Q(1, 2), Q(3, 2), 1, 1))      # outside any command
        before = table.cache_info().currsize
        assert before > 0
        keys = window_keys(params, Q(-3, 2), Q(3, 2), Q(5, 2))
        assert sum(1 for _ in spectrum_rows(params, keys)) == len(keys)
        assert table.cache_info().currsize == before
        run(capsys, "block", "--n", "6", "--r", "17/13", "--f", "1/2", "--j", "3/2",
            "--eps", "1")
        assert table.cache_info().currsize == 0

    def test_a_tabulation_leaves_the_block_table_alone(self, capsys):
        # a tabulation reads each block past the table; a block command
        # leaves its own entry and nothing from an earlier command
        params = Params(6, Q(13, 11))
        table = spectra._block_coeffs
        run(capsys, "block", "--n", "6", "--r", "7/3", "--f", "1/2", "--j", "3/2",
            "--eps", "1")
        before = table.cache_info().currsize
        assert before == 1
        keys = window_keys(params, Q(-3, 2), Q(3, 2), Q(5, 2))
        assert sum(1 for _ in spectrum_rows(params, keys)) == len(keys)
        assert table.cache_info().currsize == before
        run(capsys, "block", "--n", "6", "--r", "13/11", "--f", "1/2", "--j", "3/2",
            "--eps", "1")
        info = table.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 0)


def _relative_to_base(params, kt, bases):
    """(base, z_rel) of a multiplicity-one row against the first commensurable base."""
    zq = z_for(params, kt)
    for base in bases:
        try:
            tagged = ratio_tagged(zq, z_for(params, base))
        except NonCommensurableError:
            continue
        return base, tagged.render()
    bases.append(kt)
    return kt, "1"


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", list(OUTPUT_SHA256),
                             ids=[" ".join(argv[:5]) for argv in OUTPUT_SHA256])
    def test_every_format_is_byte_for_byte(self, capsys, argv):
        for fmt, digest in zip(("table", "json", "csv"), OUTPUT_SHA256[argv]):
            code, out = run(capsys, *argv, "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# stderr of a block or neighbors (q = 0) query, per malformed label
LABEL_ERRORS = {
    ("--f", "abc", "--j", "1/2"): "bad label: --f abc: not a rational number",
    ("--f", "1/0", "--j", "1/2"): "bad label: --f 1/0: zero denominator",
    ("--lattice", "int", "--f", "1/2", "--j", "1/2"):
        "bad label: f=1/2 is not on the configured 'int' lattice",
}


class TestUsageErrors:
    def test_odd_dimension_exits_2(self, capsys):
        assert main(["verify", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "n must be even and >= 4\n"

    def test_bad_rational_exits_2(self, capsys):
        for argv, err in (
                (["spectrum", "--n", "4", "--r", "x/y"],
                 "bad configuration: --r x/y: not a rational number"),
                # --r is read before --n is checked
                (["spectrum", "--n", "5", "--r", "x"],
                 "bad configuration: --r x: not a rational number"),
                (["spectrum", "--f-max", "zz"], "bad region: --f-max zz: not a rational number"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == err + "\n"

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # wraps build_parser the way the benchmark's tracer does, re-wrapping
        # parse_args on every call, which a cached build_parser would nest
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            parser = build_parser()
            parse_args = parser.parse_args
            parser.parse_args = lambda args=None: parse_args(args)
            built.append(parser)
            return parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        argv = ["neighbors", "--n", "6", "--r", "3/2", "--f", "1/2", "--j", "3/2",
                "--q", "0", "--eps", "1"]
        outputs = []
        for i in range(3):
            if i:
                with pytest.raises(SystemExit):
                    main(["calibrate", "--n", "4", "--strict-paper"])
                capsys.readouterr()
            outputs.append((main(argv), capsys.readouterr()))
            if not i:
                assert built == []      # a well-formed query reads the flag table
        assert len(built) <= 1
        assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", [
        ("block",),
        ("neighbors", "--q", "0"),
    ])
    @pytest.mark.parametrize("label", list(LABEL_ERRORS))
    def test_malformed_label_exits_2(self, capsys, command, label):
        code = main([*command, "--n", "4", *label, "--eps", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == LABEL_ERRORS[label] + "\n"

    @pytest.mark.parametrize("argv, message", [
        (["block", "--f", "1/0", "--j", "1/2", "--eps", "1"], "bad label: --f 1/0: "),
        (["neighbors", "--f", "1/2", "--j", "1/0", "--q", "0", "--eps", "1"],
         "bad label: --j 1/0: "),
        (["spectrum", "--f-min", "1/0"], "bad region: --f-min 1/0: "),
        (["verify", "--j-max", "1/0"], "bad region: --j-max 1/0: "),
        (["spectrum", "--r", "1/0"], "bad configuration: --r 1/0: "),
        (["calibrate", "--f-min", "1/0"], "bad region: --f-min 1/0: "),
    ])
    def test_zero_denominator_names_the_flag(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "zero denominator\n"

    @pytest.mark.parametrize("argv, message", [
        (["--r", "1e400"], "bad configuration: --r 1e400: "),
        (["--r=-1e400"], "bad configuration: --r -1e400: "),
        (["--f-max", "1e400"], "bad region: --f-max 1e400: "),
        (["--f-min=-1e400"], "bad region: --f-min -1e400: "),
    ])
    def test_spectrum_beyond_the_float_range_names_the_flag(self, capsys, tmp_path, argv,
                                                            message):
        out_path = tmp_path / "out"
        code = main(["spectrum", "--n", "4", *argv, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "beyond the float range, z_numeric cannot be formed\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_spectrum_float_range_bound_is_the_float_max(self, capsys, tmp_path, sign):
        # the float max is an integer: |r| equal to it passes the guard, and
        # the next integer and a rational a hair above it are usage errors
        top = int(sys.float_info.max)
        window = ["--f-min=1/2", "--f-max=3/2", "--j-max=3/2", "--format", "csv"]
        out_path = tmp_path / "out"
        assert main(["spectrum", "--n", "4", f"--r={sign}{top}", *window,
                     "--out", str(out_path)]) == 0
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 1 + 24
        for past in (f"{sign}{top + 1}", f"{sign}{top}.{'0' * 30}1"):
            value = Q(past)
            assert abs(value) > cli._FLOAT_MAX and abs(value) > sys.float_info.max
            out_path.unlink(missing_ok=True)
            code = main(["spectrum", "--n", "4", f"--r={past}", *window, "--out", str(out_path)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err == (f"bad configuration: --r {past}: beyond the float "
                                    "range, z_numeric cannot be formed\n")
            assert not out_path.exists()

    def test_spectrum_whose_log_gammas_cancel_past_lgamma_names_the_row(self, capsys,
                                                                         tmp_path):
        # every argument of z lies past lgamma's range and they cancel: no
        # float to give, so no table rather than a traceback or exit 1
        out_path = tmp_path / "out"
        code = main(["spectrum", "--n", "4", "--r", "1/2", "--lattice", "int",
                     "--f-min=1e306", "--f-max=1e306", "--j-max=3/2", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"bad region: V(xi=-1; f={10 ** 306}, j=3/2, q=1, eps=-1): "
                                "gamma arguments beyond lgamma's range cancel, "
                                "z_numeric cannot be formed\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--f-max", "1e300"),
        ("spectrum", "--f-min=-1e300"),
        ("spectrum", "--j-max", "1e300"),
        ("verify", "--f-max", "1e300"),
        ("verify", "--j-max", "1e9"),
        ("calibrate", "--f-max", "1e300"),
        ("calibrate", "--f-min=-1e300"),
        # more labels than sys.maxsize, where len() of a range raises
        ("verify", "--j-max", "1e5000"),
        # one label per circle weight: the f range alone is past the bound
        ("spectrum", "--xi=1", "--eps=1", "--j-max=1/2", "--f-max", "1e300"),
        ("verify", "--xi=1", "--eps=-1", "--j-max=1/2", "--f-min=-1e300"),
    ])
    def test_an_oversized_window_exits_2_before_any_work(self, capsys, tmp_path,
                                                         monkeypatch, argv):
        def walk(*args):        # fails at once where a regression would walk for ever
            raise AssertionError("the window was walked")
        for name in ("range_keys", "calibrate_L"):
            monkeypatch.setattr(cli, name, walk)
        out_path = tmp_path / "out"
        code = main([argv[0], "--n", "4", *argv[1:], "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"bad region: the window holds more than "
                                f"{cli.MAX_WINDOW_LABELS} K-types; narrow --f-min/--f-max "
                                "or --j-max\n")
        assert not out_path.exists()

    def test_a_value_past_the_digit_bound_exits_2_before_parsing(self):
        # Fraction writes a decimal exponent out digit by digit, so a
        # regression that parses these values would run for minutes: a child
        # process runs every command under a timeout, so this test fails
        # rather than hangs
        commands = (("spectrum", ("--r", "--f-min", "--j-max"), ()),
                    ("verify", ("--r", "--f-min", "--j-max"), ()),
                    ("block", ("--r", "--f"), ("--f=1/2", "--j=1/2", "--eps=1")),
                    ("calibrate", ("--r", "--f-min", "--j-max"), ()))
        refused = [[command, "--n=4", *rest, f"{flag}={value}"]
                   for command, flags, rest in commands for flag in flags
                   for value in ("1e100000000", "1e-100000000")]
        read = [["block", "--n=4", "--lattice=int", "--f=1e10000", "--j=1/2", "--eps=1"]]
        script = ("import contextlib, io, json, sys\n"
                  "from twistor_spectra.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    out, err = io.StringIO(), io.StringIO()\n"
                  "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                  "        code = main(argv)\n"
                  "    print(json.dumps([code, err.getvalue()]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", script, json.dumps(refused + read)],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        results = [json.loads(line) for line in done.stdout.splitlines()]
        groups = {"--r": "configuration", "--f": "label", "--f-min": "region", "--j-max": "region"}
        for argv, (code, err) in zip(refused, results):
            flag, value = argv[-1].split("=")
            assert (code, err) == (2, f"bad {groups[flag]}: {flag} {value}: more than "
                                      f"{cli.MAX_FLAG_DIGITS} digits after the first, the "
                                      "exponent included\n"), argv
        assert results[len(refused):] == [[0, ""]]

    def test_the_digit_bound_counts_digits_after_the_first_and_the_exponent(self):
        # each text is refused, or not, on its text alone; one within the
        # bound that is no rational ("1/3e5") is left to Fraction
        for text, refused in (
                ("1e10000", False), ("-1E+10000", False), ("1e-10000", False),
                ("1" * 4000 + "e6001", False), ("9.99e9998", False), ("1e+0010000", False),
                ("1/3e5", False), ("10e10000", True), ("1e10001", True),
                ("1" * 4000 + "e6002", True), ("1" * 10002, True), ("1.5e10000", True),
                ("1e" + "0" * 50 + "10001", True), ("1e" + "9" * 50, True)):
            try:
                cli._flag_rational("configuration", "--r", text)
            except cli.UsageError as exc:
                reason = str(exc).rpartition(": ")[2]
            else:
                reason = None
            want = (f"more than {cli.MAX_FLAG_DIGITS} digits after the first, the exponent "
                    "included" if refused else "not a rational number" if text == "1/3e5"
                    else None)
            assert reason == want, text[:20]

    @pytest.mark.parametrize("lattice", ["half", "int"])
    @pytest.mark.parametrize("window, xis, epss", [
        (("-99/2", "99/2", "21/2"), [1, -1], [1, -1]),      # the widest benchmark window
        (("-7/3", "11/5", "17/4"), [1], [1, -1]),
        (("1/3", "2/3", "5/2"), [1, -1], [-1]),
        (("-3/2", "3/2", "1/3"), [-1], [1]),
    ])
    def test_the_size_guard_counts_the_window_it_refuses(self, monkeypatch, lattice,
                                                         window, xis, epss):
        params = Params(4, Q(1), lattice)
        bounds = [Q(v) for v in window]
        size = len(window_keys(params, *bounds, (0, 1), xis, epss))
        assert size <= cli.MAX_WINDOW_LABELS
        monkeypatch.setattr(cli, "MAX_WINDOW_LABELS", size)
        cli._check_size(params, *bounds, xis, epss)
        monkeypatch.setattr(cli, "MAX_WINDOW_LABELS", size - 1)
        with pytest.raises(cli.UsageError, match="bad region"):
            cli._check_size(params, *bounds, xis, epss)

    @pytest.mark.parametrize("argv", [
        ("block", "--f", "1/2", "--j", "3/2", "--eps", "1"),
        ("neighbors", "--f", "1/2", "--j", "3/2", "--q", "1", "--eps", "1"),
        ("calibrate", "--f-min=-1/2", "--f-max=1/2", "--j-max=5/2"),
    ])
    def test_the_exact_commands_take_any_rational(self, capsys, argv):
        code, out = run(capsys, *argv, "--n", "4", "--r", "1e400")
        assert code == 0
        assert out

    @pytest.mark.parametrize("argv, code", [
        (("verify", "--n", "4", "--r", "1e5000", "--f-min=1/2", "--f-max=1/2",
          "--j-max=3/2"), 0),
        (("block", "--n", "4", "--r", "1", "--lattice", "int", "--f", "1e5000", "--j", "1/2",
          "--eps", "1"), 0),
        (("neighbors", "--n", "4", "--r", "1", "--lattice", "int", "--f", "1e5000",
          "--j", "1/2", "--q", "0", "--eps", "1"), 0),
        # a failing edge whose residual runs past the limit
        (("verify", "--n", "8", "--r", "1e500", "--strict-paper", "--f-min=-3/2",
          "--f-max=3/2", "--j-max=7/2"), 1),
    ])
    def test_values_past_the_int_str_digit_limit_print(self, capsys, tmp_path, argv, code):
        # Python refuses to turn an int of more than 4300 digits into str by
        # default; an exact value the flags make that long is still printed,
        # never a traceback that reads as a verification failure
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        out_path = tmp_path / "out"
        assert main([*argv, "--out", str(out_path)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        text = out_path.read_text(encoding="utf-8")
        assert max(map(len, re.findall(r"\d+", captured.out + text))) > 4300
        if argv[0] == "verify":
            assert json.loads(text)["ok"] is (code == 0)
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    def test_main_restores_the_int_str_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            assert main(["block", "--n", "4", "--f", "1/2", "--j", "1/2", "--eps", "1"]) == 0
            assert sys.get_int_max_str_digits() == 5000
            assert main(["verify", "--n", "5"]) == 2
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(SystemExit):         # argparse's own error
                main(["frobnicate"])
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ("verify", "--n", "4", "--r", "1", "--f-min=-1/2", "--f-max=1/2", "--j-max=3/2"),
        ("spectrum", "--n", "4"),
        ("spectrum", "--r", "x"),       # before any flag value is read, too
    ])
    def test_unwritable_out_exits_2_before_any_work(self, capsys, tmp_path, command):
        # an empty path would otherwise drop the verify report or go to stdout
        for target, reason in ((tmp_path / "missing" / "x.out", "no such directory"),
                               ("", "empty path"), (tmp_path, "is a directory")):
            code = main([*command, "--out", str(target)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"bad output: --out {target}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code, err", [
        (("verify", "--n", "5"), 2, "n must be even and >= 4\n"),
        (("verify", "--n", "4", "--r", "1", "--f-min=-1/2", "--f-max=1/2",
          "--j-max=3/2"), 0, ""),
    ])
    def test_module_entry_point_exits_with_main_code(self, argv, code, err):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "twistor_spectra.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert done.stderr == err


# argvs that must take the flag table's path: the tests' ``--flag value``
# forms and the ``--flag=value`` shapes of the benchmark's queries
TABLE_ARGVS = [
    ["block", "--n", "4", "--r", "1/2", "--f", "1/2", "--j", "1/2", "--eps", "1"],
    ["neighbors", "--n", "6", "--r", "3/2", "--f", "1/2", "--j", "3/2", "--q", "0",
     "--eps", "1"],
    ["calibrate", "--n", "6", "--r", "3/2", *REGION],
    ["spectrum", "--n", "4", "--r=-3/2", "--lattice", "int", *REGION, "--format", "json"],
    ["verify", "--n", "6", "--r", "3/2", "--strict-paper", *REGION, "--out", "report.json"],
    ["verify", "--n", "8", "--r=-3/2", *REGION],
    ["verify", "--n=8", "--r=5/2", "--f-min=-19/2", "--f-max=19/2", "--j-max=11/2",
     "--out=report.json"],
    ["spectrum", "--n=8", "--r=7/3", "--f-min=-99/2", "--f-max=99/2", "--j-max=21/2",
     "--format=csv", "--out=tabulate.csv"],
    ["neighbors", "--n=6", "--r=3/2", "--f=-7/2", "--j=5/2", "--eps=-1", "--xi=1", "--q=1",
     "--format=json"],
    ["block", "--n=8", "--r=11/5", "--f=19/2", "--j=1/2", "--eps=1", "--xi=-1",
     "--format=csv"],
    ["spectrum", "--n=4", "--r=1", "--f-min=-5/2", "--f-max=-5/2", "--j-max=11/2",
     "--format=table"],
    ["calibrate", "--n=6", "--r=7/3", "--f-min=-5/2", "--f-max=5/2", "--j-max=7/2",
     "--xi-solve=-1"],
]

# values outside each flag's valid ones: a leading "-", bad ints and choices, empty
ODD_VALUES = ["-1", "-1/2", "--n", "x", "2", "both", "", " 1", "+1", "1_0"]
# arguments that are no exact flag of any subcommand
ODD_ARGS = ["-h", "--help", "--bogus", "--", "x", "--n=4=4", "-n"]


def _argparse_vars(argv):
    """``vars(build_parser().parse_args(argv))``, None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@st.composite
def _flag_args(draw, flag):
    """One flag's arguments: exact or abbreviated, either value form, a value
    valid for the flag or odd."""
    option = flag.option
    if len(option) > 3 and not draw(st.integers(0, 5)):
        option = option[:draw(st.integers(3, len(option) - 1))]
    if flag.store_true:
        return [draw(st.sampled_from([option, option, option + "=", option + "=1"]))]
    if draw(st.integers(0, 4)):
        valid = [str(c) for c in flag.choices] if flag.choices else \
            ["4", "6"] if flag.type is int else ["1/2", "3/2", "-5/2", "x/y"]
        value = draw(st.sampled_from(valid))
    else:
        value = draw(st.sampled_from(ODD_VALUES))
    return [f"{option}={value}"] if draw(st.booleans()) else [option, value]


@st.composite
def _argvs(draw):
    """A subcommand and arguments drawn from its flag table, shuffled: usually
    every required flag, some flags repeated, sometimes an odd argument."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, flags, _ = cli.COMMANDS[name]
    chosen = draw(st.lists(st.sampled_from(flags), max_size=5))
    if draw(st.integers(0, 3)):
        chosen += [flag for flag in flags if flag.required]
    pieces = [draw(_flag_args(flag)) for flag in chosen]
    if not draw(st.integers(0, 4)):
        pieces.append([draw(st.sampled_from(ODD_ARGS))])
    return [name, *chain.from_iterable(draw(st.permutations(pieces)))]


class TestFlagTable:
    @given(_argvs())
    @example([])
    @example(["frobnicate"])
    @example(["-h", "block"])
    @example(["block", "--f", "1/2", "--j", "1/2", "--eps", "-1"])
    @example(["block", "--f", "-1/2", "--j", "1/2", "--eps", "1"])
    @example(["block", "--f=", "--j", "1/2", "--eps", "1"])
    @example(["calibrate", "--strict-paper"])
    def test_the_table_reads_as_argparse(self, argv):
        # the table's reading is argparse's or none; none where argparse exits
        table = cli._table_args(argv)
        expected = _argparse_vars(argv)
        if expected is None or table is None:
            assert table is None
        else:
            assert vars(table) == expected

    @pytest.mark.parametrize("argv", TABLE_ARGVS, ids=" ".join)
    def test_well_formed_queries_take_the_table(self, argv):
        table = cli._table_args(argv)
        assert table is not None
        assert vars(table) == _argparse_vars(argv)

    @staticmethod
    def _run_bare(code):
        # -S: no site hooks, so only the library's own imports count
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run([sys.executable, "-S", "-c",
                               "import sys, twistor_spectra.cli as cli; " + code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)

    def test_a_well_formed_command_imports_no_argparse(self):
        done = self._run_bare(
            "code = cli.main(['block', '--n', '4', '--r', '1/2', '--f', '3/2', '--j', '1/2', "
            "'--eps', '1']); print(code, 'argparse' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    @pytest.mark.parametrize("argv, code, err", [
        (["block", "--help"], 0, ""),
        (["calibrate", "--n", "4", "--strict-paper"], 2,
         "twistor-spectra: error: unrecognized arguments: --strict-paper\n"),
        # a value given to a switch: the table declines it, argparse refuses it
        (["verify", "--n", "4", "--strict-paper=1"], 2,
         "twistor-spectra verify: error: argument --strict-paper: "
         "ignored explicit argument '1'\n"),
    ])
    def test_help_and_errors_build_argparse_on_demand(self, argv, code, err):
        done = self._run_bare(f"cli.main({argv!r})")
        assert done.returncode == code
        assert done.stderr.endswith(err)
        if code == 0:
            assert done.stdout.startswith("usage: twistor-spectra block [-h]")


class TestVerify:
    def test_default_region_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify", "--n", "4", "--r", "1", *REGION,
                        "--out", str(out_path))
        assert code == 0
        assert "mult1-quotients" in out and "OK" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["ok"] is True
        assert set(payload["suites"]) == {"mult1-quotients", "mult2-quotients",
                                          "case2-relation", "interface"}
        assert payload["convention"]["block_factor_at"] == "f+1"
        for cal in payload["calibration"].values():
            assert cal["consistent"] is True

    def test_the_window_is_enumerated_once(self, capsys, monkeypatch):
        calls = []
        range_keys = cli.range_keys

        def counting_range_keys(*args):
            calls.append(args)
            return range_keys(*args)
        monkeypatch.setattr(cli, "range_keys", counting_range_keys)
        code, _ = run(capsys, "verify", "--n", "4", "--r", "1", *REGION)
        assert code == 0
        assert len(calls) == 1

    def test_strict_paper_fails_with_first_edge(self, capsys):
        code, out = run(capsys, "verify", "--n", "4", "--r", "1",
                        "--strict-paper", *REGION)
        assert code == 1
        assert "first failing edge" in out

    def test_the_first_failing_edge_says_why_it_failed(self, capsys):
        # an edge with no residuals prints its detail; one with residuals
        # prints them, as the strict variant's mult2 edge does
        with faults.inject("DIRAC", Q(1, 3)):
            code, out = run(capsys, "verify", "--n", "4", "--r", "1", "--j-max=1/2")
        assert code == 1
        line = out.splitlines()[-1]
        assert line == ("first failing edge [mult2-quotients]: "
                        "V(xi=-1; f=-9/2, j=1/2, q=0, eps=-1) -> "
                        "V(xi=-1; f=-11/2, j=1/2, q=0, eps=+1): "
                        "the gamma classes of the oracle's ratio do not balance")
        code, out = run(capsys, "verify", "--n", "4", "--r", "1", "--strict-paper", *REGION)
        line = out.splitlines()[-1]
        assert code == 1 and line.startswith("first failing edge [")
        assert " residuals={'" in line and "None" not in line

    def test_report_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--n", "4", "--r", "1", *REGION, "--out", str(a))
        run(capsys, "verify", "--n", "4", "--r", "1", *REGION, "--out", str(b))
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("argv, code", [
        (("verify", "--n", "4", "--r", "1", *REGION, "--out", "{out}"), 0),
        (("verify", "--n", "6", "--r", "3/2", "--strict-paper", *REGION, "--out", "{out}"), 1),
        (("spectrum", "--n", "6", "--r", "1/2", "--format", "csv"), 0),
        (("calibrate", "--n", "4", "--r", "1", "--format", "json"), 0),
        (("neighbors", "--n", "4", "--r", "1", "--f", "1/2", "--j", "3/2", "--q", "0",
          "--eps", "1"), 0),
    ], ids=["verify", "strict", "spectrum", "calibrate", "neighbors"])
    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path, argv, code):
        # one process has one hash seed, so two runs in it cannot tell
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"out-{seed}"
            done = subprocess.run(
                [sys.executable, "-m", "twistor_spectra.cli",
                 *(arg.format(out=out) for arg in argv)],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                capture_output=True, text=True, timeout=60)
            assert done.returncode == code, done.stderr
            outputs.append((done.stdout, done.stderr,
                            out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] or outputs[0][2]
        if argv[0] == "neighbors":
            assert "interface square:" in outputs[0][0]

    @pytest.mark.parametrize("argv, code, digest", [
        (("--n", "4", "--r", "1"), 0,
         "fdba010d31652aca99507fc3e23b7715fd25732eca713db15f669921e5c59c92"),
        (("--n", "6", "--r", "3/2", "--strict-paper"), 1,
         "dcfbee142254ddf98fae5cf3aaaa018c761366971d7b506253e5d9013c0f4b6f"),
        # every skip detail: singular center, neighbor and interface blocks,
        # a degenerate target, det M1 = 0 and both non-finite factor ratios
        (("--n", "4", "--r", "5/2"), 0,
         "e6a4f4b2c5d2cf8e247f52b6ce6739620262dbef23cd95a9c84922d66753fced"),
        # r off the grid and negative: pole and zero quotient verdicts and a
        # skipped-pole case-2 edge
        (("--n", "8", "--r=-3/2"), 0,
         "a2fda4bcb409eb393beec4c5f3e6ece07da317ff629e99ccb902b81cc6af1673"),
    ])
    def test_report_bytes_are_pinned(self, capsys, tmp_path, argv, code, digest):
        # the whole report byte for byte: any change to a verdict, residual
        # or report field changes the digest; stdout carries the first
        # failing edge's residuals in their report order
        out_path = tmp_path / "report.json"
        got, out = run(capsys, "verify", *argv, *REGION, "--out", str(out_path))
        assert got == code
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[argv]

    def test_fault_sweep_is_pinned(self, capsys, tmp_path):
        # every fault site armed with offset 1 on two windows: each run's
        # exit code, stdout, stderr and report bytes (empty when none is
        # written) go into one digest, so a refactor that moves any armed
        # outcome, an exception path included, changes it
        digest = hashlib.sha256()
        for site in faults.SITES:
            for argv in (("--n", "4", "--r", "1"), ("--n", "6", "--r", "3/2")):
                out_path = tmp_path / f"{site}-{argv[1]}.json"
                with faults.inject(site, Q(1)):
                    code = main(["verify", *argv, *REGION, "--out", str(out_path)])
                captured = capsys.readouterr()
                report = out_path.read_bytes() if out_path.exists() else b""
                for part in (site, " ".join(argv), str(code), captured.out,
                             captured.err):
                    digest.update(part.encode() + b"\0")
                digest.update(report + b"\0")
        assert digest.hexdigest() == FAULT_SWEEP_SHA256

    def test_an_unsolvable_calibration_replaces_a_passing_report(self, capsys, tmp_path):
        # the failing run writes its own report over the earlier passing one;
        # its exit code and its one stderr line are as before
        out_path = tmp_path / "report.json"
        argv = ["verify", "--n", "4", "--r", "1", *REGION, "--out", str(out_path)]
        assert main(argv) == 0
        assert json.loads(out_path.read_text())["ok"] is True
        capsys.readouterr()
        with faults.inject("DIRAC"):
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "calibration inconsistent: conflicting difference constraints for "
            "(j=3/2, eps=+1) - (j=3/2, eps=-1): -3/2 vs -31/2\n")
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        assert set(payload["suites"]) == {"mult1-quotients", "mult2-quotients",
                                          "case2-relation", "interface"}
        assert payload["suites"]["interface"]["edges"] == []
        for xi, cal in payload["calibration"].items():
            assert set(cal) == {"error", "witness"}
            assert cal["error"].startswith("conflicting difference constraints"), xi
            assert set(cal["witness"]) == {"edge", "previous", "residual"}
        assert captured.err.endswith(payload["calibration"]["-1"]["error"] + "\n")

    @pytest.mark.parametrize("delta", [Q(1, 3), Q(1, 2)])
    def test_a_fractional_dirac_offset_fails_verify(self, capsys, tmp_path, delta):
        # across an eps flip the shifted J moves by 2 delta, so the oracle's
        # gamma classes do not balance: the suites fail those edges and the
        # calibration names one, instead of the run dying
        out_path = tmp_path / "report.json"
        with faults.inject("DIRAC", delta):
            code = main(["verify", "--n", "4", "--r", "1", *REGION, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("calibration inconsistent: the z-ratio's gamma "
                                       "classes do not balance on the edge V(xi=-1; ")
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        for cal in payload["calibration"].values():
            assert set(cal["witness"]["edge"]) == {"center", "neighbor"}
        for suite, ratio in (("mult1-quotients", "oracle's ratio"),
                             ("mult2-quotients", "oracle's ratio"),
                             ("case2-relation", "shared-factor ratio")):
            unbalanced = [e for e in payload["suites"][suite]["edges"]
                          if e.get("detail") == f"the gamma classes of the {ratio} do not balance"]
            assert unbalanced, suite
            for e in unbalanced:        # only an eps flip moves J by 2 delta
                assert (e["verdict"], e["direction"][1]) == ("fail", 0), suite

    def test_every_fault_site_fails_verify(self, capsys):
        # the calibration runs under the fault too, as in any armed run
        for site in faults.SITES:
            with faults.inject(site):
                code = main(["verify", "--n", "4", "--r", "1", *REGION])
            capsys.readouterr()
            assert code == 1, site

    def test_a_broken_first_order_block_fails_verify(self, capsys, tmp_path, monkeypatch):
        # neither reading of the shared factor survives the shifted (1,1) entry
        true_block = verify.first_order_block

        def shifted(params, center):
            (e11, e12), row2 = true_block(params, center)
            return (e11 + 1, e12), row2

        monkeypatch.setattr(verify, "first_order_block", shifted)
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify", "--n", "4", "--r", "1", *REGION,
                        "--out", str(out_path))
        assert code == 1
        assert ("block shared factor: NO reading matches every checked center "
                "(f+1: 0, f: 0, checked: 34)") in out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        assert payload["convention"]["block_factor_resolution"] == {
            "checked": 34, "f": 0, "f+1": 0, "resolved": "neither"}

    def test_singular_half_order_blocks_leave_the_reading_unresolved(self, capsys):
        # the one multiplicity-two center has C4 = 0 at r = 1/2
        code, out = run(capsys, "verify", "--n", "4", "--f-min", "1/2", "--f-max", "1/2",
                        "--j-max", "1/2", "--xi", "1", "--eps", "1")
        assert code == 0
        assert "block shared factor: not resolved (every r = 1/2 block singular)" in out

    @pytest.mark.parametrize("window", [("--j-max", "1/2")], ids=["window0"])
    def test_empty_calibration_window_is_a_skip(self, capsys, tmp_path, window):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify", "--n", "4", *window, "--out", str(out_path))
        assert code == 0
        assert "interface" in out and "calibration inconsistent" not in out
        assert out.count("skipped (empty calibration window") == 2
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        for cal in payload["calibration"].values():
            assert cal["skipped"].startswith("empty calibration window")
        # the j = 1/2 centers still resolve the block factor's reading
        reading = payload["convention"]["block_factor_resolution"]
        assert reading["resolved"] == "f+1"
        assert "block shared factor resolved at weight: f+1" in out

    def test_unpinned_calibration_is_not_inconsistent(self, capsys, tmp_path):
        # C3 = (n - 1) + 2r = 0 on every block, so no probe pins the constant
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify", "--n", "4", "--r=-3/2", *REGION,
                        "--out", str(out_path))
        assert code == 1
        assert out.count(" OK ") == 4      # every suite passes
        assert "INCONSISTENT" not in out and "first failing edge" not in out
        for xi in ("-1", "+1"):
            assert f"calibration xi={xi}   UNPINNED (56 constraints, 4 classes)\n" in out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        for cal in payload["calibration"].values():
            assert cal["consistent"] is False and cal["probe"] is None
            assert cal["issues"] == [{"kind": "unpinned-constant"}]


class TestNeighbors:
    def test_mult1_layout(self, capsys):
        code, out = run(capsys, "neighbors", "--n", "4", "--r", "1/2",
                        "--f", "3/2", "--j", "5/2", "--q", "1", "--eps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header, rule, three diagram rows
        assert "absent" not in out

    def test_boundary_bottom_row_absent(self, capsys):
        code, out = run(capsys, "neighbors", "--n", "4", "--r", "1/2",
                        "--f", "1/2", "--j", "1/2", "--q", "0", "--eps", "1")
        assert code == 0
        assert out.count("absent") == 2
        assert "interface square" not in out        # no partner at j = 1/2

    def test_interface_square_shown_for_mult2(self, capsys):
        code, out = run(capsys, "neighbors", "--n", "4", "--r", "1/2",
                        "--f", "1/2", "--j", "3/2", "--q", "0", "--eps", "1")
        assert code == 0
        assert out.endswith("\ninterface square:\n"
                            "  alpha1 = V(xi=+1; f=1/2, j=3/2, q=0, eps=+1)\n"
                            "  alpha2 = V(xi=+1; f=3/2, j=5/2, q=0, eps=+1)\n"
                            "  beta1  = V(xi=+1; f=3/2, j=3/2, q=1, eps=+1)\n"
                            "  beta2  = V(xi=+1; f=1/2, j=5/2, q=1, eps=+1)\n")

    def test_invalid_weight_exits_2(self, capsys):
        code = main(["neighbors", "--n", "4", "--f", "1/2", "--j", "1/2",
                     "--q", "1", "--eps", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "bad label: j=1/2 must lie in 1/2 + q + N (q=1)\n"


class TestBlockAndCalibrate:
    def test_block_query(self, capsys):
        code, out = run(capsys, "block", "--n", "4", "--r", "1/2",
                        "--f", "3/2", "--j", "1/2", "--eps", "1", "--format", "csv")
        assert code == 0
        rows = {r["quantity"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
        assert rows["b21"] != ""
        assert "order_one_block(2,1)/i" in rows
        assert rows["order_one_block(2,1)/i"] == "2"

    def test_calibrate_table(self, capsys):
        code, out = run(capsys, "calibrate", "--n", "4", "--r", "1", *REGION,
                        "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {(r["j"], r["eps"]): r["L"] for r in rows}
        assert got[("3/2", "+1")] == "5/2"
        assert got[("5/2", "-1")] == "-7/2"

    @pytest.mark.parametrize("argv, digest", [
        (("--n", "4", "--r", "1"),
         "16ed07fb828867e4d48ec8903e027566b9b8e8639fdff47254150a4ba41218f2"),
        (("--n", "8", "--r", "5/2", "--lattice", "int"),
         "20713af70dd72567c6983e16733e3b175ce7a7bf1a6b147e7370a0e57311c844"),
    ])
    def test_calibrate_json_is_pinned(self, capsys, argv, digest):
        # the solved table byte for byte, as JSON rows
        code, out = run(capsys, "calibrate", *argv, *REGION, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("window", [
        ("--j-max", "1/2"),
        ("--f-min", "3/2", "--f-max=-3/2"),
    ])
    def test_calibrate_empty_window_exits_2(self, capsys, window):
        code = main(["calibrate", "--n", "4", *window])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("empty calibration window")

    def test_calibrate_conflict_names_the_classes(self, capsys):
        # a shifted Dirac convention makes two edges disagree on one class pair
        with faults.inject("DIRAC"):
            code = main(["calibrate", "--n=4", "--r=1", "--f-min=-3/2",
                         "--f-max=3/2", "--j-max=7/2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("inconsistent: conflicting difference "
                                       "constraints for (j=3/2, eps=+1)")
        assert "Fraction(" not in captured.err

    def test_singular_block_query_exits_0(self, capsys):
        # C3 = n - 1 + 2r vanishes at n = 4, r = -3/2
        code, out = run(capsys, "block", "--n", "4", "--r=-3/2", "--f", "1/2",
                        "--j", "3/2", "--eps", "1")
        assert code == 0
        assert [line.split() for line in out.splitlines()[2:]] == [["block", "SINGULAR(C3)"]]

    def test_calibrate_table_ends_with_its_counts(self, capsys):
        code, out = run(capsys, "calibrate", "--n", "4", "--r", "1")
        assert code == 0
        assert out.endswith("\nconstraints: 364, unconstraining: 36, consistent: True\n")

    def test_calibrate_rejects_unread_flags(self):
        with pytest.raises(SystemExit) as err:
            main(["calibrate", "--n", "4", "--strict-paper"])
        assert err.value.code == 2


class TestOutFile:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--n", "4", "--r", "1", *REGION, "--format", "json"),
        ("block", "--n", "4", "--r", "1/2", "--f", "3/2", "--j", "1/2", "--eps", "1",
         "--format", "csv"),
        ("neighbors", "--n", "6", "--r", "3/2", "--f", "1/2", "--j", "3/2", "--q", "0",
         "--eps", "1"),
        ("calibrate", "--n", "4", "--r", "1", *REGION),
    ])
    def test_out_writes_the_bytes_the_command_prints(self, capsys, tmp_path, argv):
        assert main(list(argv)) == 0
        printed = capsys.readouterr()
        target = tmp_path / "out.txt"
        assert main([*argv, "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == captured.err == printed.err == ""
        assert target.read_bytes() == printed.out.encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("verify", "--n", "4", "--r", "1", *REGION),
        ("spectrum", "--n", "4"),
        ("calibrate", "--n", "4"),
    ], ids=["verify", "spectrum", "calibrate"])
    def test_a_full_device_is_bad_output(self, capsys, argv):
        # a write that fails is a usage error, not a verification failure
        assert main([*argv, "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == \
            "bad output: --out /dev/full: No space left on device\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--n", "4", "--format", "json"),
        ("verify", "--n", "4", "--r", "1", *REGION),
    ], ids=["spectrum", "verify"])
    def test_a_failed_stdout_write_is_bad_output(self, capsys, monkeypatch, argv, failing):
        # a buffered stream may fail only when it is flushed
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FullStream:
            write = flush = lambda self, *args: None
        setattr(FullStream, failing, full)
        monkeypatch.setattr(sys, "stdout", FullStream())
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == \
            f"bad output: stdout: {os.strerror(errno.ENOSPC)}\n"


# str cells and column names: quotes, backslashes, control characters, non-ASCII
CELLS = st.text(st.one_of(st.sampled_from(',:{}[]"\\ '), st.characters(max_codepoint=0x1f),
                          st.characters()), max_size=6)
# column names and rows of as many cells
TABLES = st.lists(CELLS, max_size=4).flatmap(lambda columns: st.tuples(
    st.just(columns),
    st.lists(st.lists(CELLS, min_size=len(columns), max_size=len(columns)), max_size=4)))


class TestRowsText:
    @given(st.lists(CELLS, max_size=5).flatmap(lambda columns: st.tuples(
        st.just(columns),
        st.lists(st.lists(CELLS, min_size=len(columns), max_size=len(columns)),
                 max_size=4))))
    @example(([], []))
    @example((["a", "b"], []))
    @example((["b", "a", "b"], [["x", "y", "z"], ["\u00e9\n", '"\\', "\x00\U0001f600"]]))
    def test_json_is_the_stdlib_text(self, table):
        columns, rows = table
        want = json.dumps({"schema_version": 1, "columns": columns,
                           "rows": [dict(zip(columns, row)) for row in rows]},
                          indent=2, sort_keys=True) + "\n"
        assert "".join(cli._rows_text(rows, columns, "json")) == want

    @given(TABLES)
    @example(([], [[], []]))
    @example((["a"], [[""], ["x"], [","], ['"'], ["\r"]]))
    @example((["a", "b"], [["", ""], ["x,y", ""], ["\n", "\u00e9"], ["a b", "\x00"]]))
    def test_csv_is_the_stdlib_text(self, table):
        # commas, quotes, CR/LF, empty cells, one- and two-column rows, non-ASCII
        columns, rows = table
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        assert "".join(cli._rows_text(rows, columns, "csv")) == want.getvalue()

    @given(TABLES)
    @example(([], []))
    @example((["a", "bb"], [["ccc", ""]]))
    def test_table_is_the_per_cell_text(self, table):
        # the padding and joins as a loop over each cell wrote them
        columns, rows = table
        widths = [max([len(c), *(len(row[i]) for row in rows)]) for i, c in enumerate(columns)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)),
                 "  ".join("-" * w for w in widths)]
        lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
        assert "".join(cli._rows_text(rows, columns, "table")) == "\n".join(lines) + "\n"


# flag texts: plain ints and ratios, texts of the characters Fraction's parser
# treats specially, and any text
FLAG_TEXTS = st.one_of(
    st.from_regex(r"\A-?[0-9]{1,40}(/[0-9]{1,40})?\Z"),
    st.text(st.sampled_from("0123456789-+/_ .eE\t\u0663\u00b2"), max_size=10),
    st.text(max_size=6))


class TestFlagRational:
    """A plain ``k`` or ``p/q`` is read by int; everything else by Fraction."""

    @given(FLAG_TEXTS)
    @example("+1")
    @example(" 1")
    @example("1_0")
    @example("\u0663")
    @example("1/0")
    @example("-0")
    @example("--1")
    @example("1/-2")
    @example("1e3")
    @example("-19/2")
    @example("007/0")
    def test_the_value_or_error_is_the_fraction_parse(self, text):
        try:
            got = cli._flag_rational("region", "--f-min", text)
        except cli.UsageError as exc:
            got = str(exc).rpartition(": ")[2]
        if got == (f"more than {cli.MAX_FLAG_DIGITS} digits after the first, the "
                   "exponent included"):
            return          # the digit bound's own test covers it
        try:
            want = rational(text)
        except ZeroDivisionError:
            want = "zero denominator"
        except ValueError:
            want = "not a rational number"
        assert got == want and type(got) is type(want)


# the benchmark's wide tabulation window: 8400 K-types
TABULATE = ("--f-min=-99/2", "--f-max=99/2", "--j-max=21/2")


def tabulate_keys(n, r):
    params = Params(n, r)
    return params, window_keys(params, Q(-99, 2), Q(99, 2), Q(21, 2), (0, 1), (1, -1), (1, -1))


class TestStreamedTables:
    """csv and json spectrum tables are written as their rows are made."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n, r", [(8, Q(7, 3)), (4, Q(1, 2))])
    def test_a_wide_table_streams_in_bounded_chunks(self, monkeypatch, n, r, fmt):
        params, keys = tabulate_keys(n, r)
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append,
                                                            flush=lambda: None))
        cli._emit(cli._rows_text(spectrum_rows(params, keys), SPECTRUM_COLUMNS, fmt), None)
        sizes = [len(text) for text in writes]
        assert sum(sizes) > 5 * cli.CHUNK
        # batched: every write but the last holds at least CHUNK characters
        assert min(sizes[:-1]) >= cli.CHUNK and max(sizes) <= cli.CHUNK + 4096
        rows = list(spectrum_rows(params, keys))
        assert len(rows) == len(keys) == 8400
        if fmt == "csv":
            want = io.StringIO()
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(SPECTRUM_COLUMNS)
            writer.writerows(rows)
            want = want.getvalue()
        else:
            want = json.dumps({"schema_version": 1, "columns": list(SPECTRUM_COLUMNS),
                               "rows": [dict(zip(SPECTRUM_COLUMNS, row)) for row in rows]},
                              indent=2, sort_keys=True) + "\n"
        assert "".join(writes) == want

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_an_overflow_on_the_last_z_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                       to_file):
        # the window's last distinct z fails, after more than CHUNK characters
        # of rows: the error is raised before the first write
        params, keys = tabulate_keys(4, Q(1, 2))
        labels, cells = Labels(params), {}
        for i, (xi, f2, j2, q, eps) in enumerate(keys):
            if q and cells.setdefault((f2, labels.spectral_J(j2, eps), xi * eps), i) == i:
                last = i
        earlier = cli._rows_text(list(spectrum_rows(params, keys))[:last], SPECTRUM_COLUMNS,
                                 "csv")
        assert len("".join(earlier)) > cli.CHUNK
        numeric, calls = spectra.pq_numeric, []

        def overflowing(prefactor, pq, *table):
            calls.append(pq)
            if len(calls) == len(cells):
                raise OverflowError("past lgamma")
            return numeric(prefactor, pq, *table)

        monkeypatch.setattr(spectra, "pq_numeric", overflowing)
        out_path = tmp_path / "out"
        code = main(["spectrum", "--n=4", "--r=1/2", *TABULATE, "--format", "csv",
                     *(["--out", str(out_path)] if to_file else [])])
        captured = capsys.readouterr()
        assert code == 2 and len(calls) == len(cells)
        assert captured.out == ""
        xi, f2, j2, q, eps = keys[last]
        assert captured.err == (f"bad region: {KType(xi, Q(f2, 2), Q(j2, 2), q, eps).label()}: "
                                "past lgamma, z_numeric cannot be formed\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_tabulation_holds_less_than_its_rows(self, tmp_path, fmt):
        # a tabulation's traced peak stays below what its rows alone take
        params, keys = tabulate_keys(8, Q(7, 3))
        argv = ["spectrum", "--n=8", "--r=7/3", *TABULATE, "--format", fmt,
                "--out", str(tmp_path / "table")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            rows = list(spectrum_rows(params, keys))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 8400
        assert peak < held


class TestStrictPaperFlag:
    """``--strict-paper`` reaches the closed forms through the CLI's Params."""

    def test_block_changes_only_the_misprinted_rows(self, capsys):
        argv = ("block", "--n", "6", "--r", "1/2", "--f", "1/2", "--j", "3/2",
                "--eps", "1", "--format", "csv")
        rows = {r["quantity"]: r["value"] for r in csv_rows(capsys, *argv)}
        strict = {r["quantity"]: r["value"]
                  for r in csv_rows(capsys, *argv, "--strict-paper")}
        assert rows.keys() == strict.keys()
        changed = {k: (rows[k], strict[k]) for k in rows if rows[k] != strict[k]}
        assert changed == {"b22": ("4/5", "79/70"),
                           "order_one_block(1,1)/i": ("44/15", "-18/5")}

    def test_neighbors_changes_only_the_middle_right_entry(self, capsys):
        argv = ("neighbors", "--n", "4", "--r", "1", "--f", "3/2", "--j", "3/2",
                "--q", "0", "--eps", "-1", "--format", "csv")
        rows = csv_rows(capsys, *argv)
        strict = csv_rows(capsys, *argv, "--strict-paper")
        assert [r["dj"] for r in rows] == [r["dj"] for r in strict] == ["+1", "+0", "-1"]
        changed = [(r["dj"], k, r[k].split()[0], s[k].split()[0])
                   for r, s in zip(rows, strict) for k in r if r[k] != s[k]]
        assert changed == [("+0", "df=+1", "-1/15", "3/5")]


# the r-keyed tables, emptied as each command starts, and the label tables
RUN_TABLES = (spectra._z_cached, spectra._w_cached, spectra._corner_pairs,
              spectra._block_coeffs)
LABEL_TABLES = (ktypes.label_dirac, operators._d_entries,
                spectra._ratio_template)


def _sizes(tables):
    return [table.cache_info().currsize for table in tables]


class TestRunTables:
    """A long-lived process holds the last command's r-keyed entries, no more."""

    # on-grid and off-grid r, each command kind, block labels singular or not
    MIX = [
        ("neighbors", "--n=6", "--r=3/2", "--f=1/2", "--j=3/2", "--q=0", "--eps=1"),
        ("block", "--n=4", "--r=17/13", "--f=-3/2", "--j=5/2", "--eps=-1", "--xi=-1"),
        ("spectrum", "--n=8", "--r=7/3", "--f-min=1/2", "--f-max=1/2", "--j-max=7/2"),
        ("calibrate", "--n=4", "--r=13/11", "--f-min=-3/2", "--f-max=3/2", "--j-max=5/2"),
        ("neighbors", "--n=4", "--r=29/7", "--f=-1/2", "--j=3/2", "--q=1", "--eps=-1"),
        ("block", "--n=4", "--r=-3/2", "--f=1/2", "--j=3/2", "--eps=1"),
        ("calibrate", "--n=6", "--r=1", "--f-min=-5/2", "--f-max=5/2", "--j-max=7/2",
         "--xi-solve=-1"),
        ("block", "--n=6", "--r=1/2", "--f=1/2", "--j=3/2", "--eps=1", "--format=json"),
        ("spectrum", "--n=4", "--r=5/3", "--f-min=-1/2", "--f-max=-1/2", "--j-max=9/2",
         "--format=csv"),
    ]

    def test_the_tables_are_the_r_keyed_ones(self):
        assert set(faults._RUN_TABLES) == set(RUN_TABLES)
        assert set(RUN_TABLES) | set(LABEL_TABLES) == set(faults._TABLES)

    def test_each_command_leaves_only_its_own_entries(self, capsys):
        alone = {}
        for argv in self.MIX:
            faults.start_run()
            assert main(list(argv)) == 0
            alone[argv] = sum(_sizes(RUN_TABLES))
        assert min(alone.values()) == 0 and max(alone.values()) > 0
        labels = _sizes(LABEL_TABLES)
        for argv in self.MIX * 2 + self.MIX[::-1]:
            assert main(list(argv)) == 0
            assert sum(_sizes(RUN_TABLES)) == alone[argv], argv
            now = _sizes(LABEL_TABLES)
            assert all(a >= b for a, b in zip(now, labels)), argv
            labels = now
        capsys.readouterr()

    def test_an_armed_fault_keeps_the_label_tables(self, capsys):
        with faults.inject("DIRAC"):
            main(["verify", "--n=4", "--r=1", "--f-min=-1/2", "--f-max=1/2", "--j-max=3/2"])
            main(list(self.MIX[0]))
            labels = _sizes(LABEL_TABLES)
            assert sum(_sizes(RUN_TABLES)) > 0 and min(labels) > 0
            faults.start_run()
            assert _sizes(RUN_TABLES) == [0] * len(RUN_TABLES)
            assert _sizes(LABEL_TABLES) == labels
        capsys.readouterr()


def _library_block_text(params, kt, fmt):
    """``block``'s text built from ``block2x2``'s ``Fraction`` coefficients and
    quotient and from ``first_order_block``."""
    rows = []
    try:
        block = spectra.block2x2(params, kt)
        rows += [(name, str(c))
                 for name, c in zip(("b11", "b12", "b21", "b22"), block.coefficients)]
        factor = block.factor
        rows.append(("shared_factor", json.dumps(
            {"prefactor": str(factor.prefactor), "phase": 0,
             "factors": [{"arg": str(a), "exp": e} for a, e in factor.factors]},
            sort_keys=True)))
    except spectra.SingularCoefficientError as exc:
        rows.append(("block", f"SINGULAR({exc.which})"))
    if params.r == Q(1, 2):
        fo = spectra.first_order_block(params, kt)
        rows += [(f"order_one_block({i + 1},{k + 1})/i", str(fo[i][k]))
                 for i in (0, 1) for k in (0, 1)]
    return "".join(cli._rows_text(rows, ("quantity", "value"), fmt))


class TestBlockText:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("r", ["1/2", "3/2", "7/3", "17/13"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_block_reads_as_the_library_block(self, capsys, n, r, strict):
        # block's integer route prints what block2x2's quotient prints
        params = Params(n, Q(r), "half", strict)
        flags = ["--strict-paper"] if strict else []
        singular = 0
        for kt in enumerate_ktypes(params, Q(-5, 2), Q(5, 2), Q(7, 2), (0,)):
            for fmt in ("json", "csv", "table"):
                want = _library_block_text(params, kt, fmt)
                code, out = run(capsys, "block", f"--n={n}", f"--r={r}", f"--f={kt.f}",
                                f"--j={kt.j}", f"--eps={kt.eps}", f"--xi={kt.xi}",
                                f"--format={fmt}", *flags)
                assert (code, out) == (0, want), (kt.label(), fmt)
            singular += "SINGULAR(" in want
        # the window meets a vanished coefficient at half-integer r only
        assert (singular > 0) == (r in ("1/2", "3/2"))
