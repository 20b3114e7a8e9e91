import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from twistor_spectra import cli, faults
from twistor_spectra.cli import main

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
FAULT_SWEEP_SHA256 = "e8753972f58c75057007b17dac94740761faf8e26f279559b292b0d97494f1d5"


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

    def test_singular_blocks_are_annotated(self, capsys):
        _, out = run(capsys, "spectrum", "--n", "4", "--r", "1/2",
                     "--f-min", "1/2", "--f-max", "1/2", "--j-max", "1/2",
                     "--xi", "1", "--eps", "1", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["note"] == "SINGULAR(C4)"


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
        enumerate_ktypes = cli.enumerate_ktypes

        def counting_enumerate(*args):
            calls.append(args)
            return enumerate_ktypes(*args)
        monkeypatch.setattr(cli, "enumerate_ktypes", counting_enumerate)
        code, _ = run(capsys, "verify", "--n", "4", "--r", "1", *REGION)
        assert code == 0
        assert len(calls) == 1

    def test_strict_paper_fails_with_first_edge(self, capsys):
        code, out = run(capsys, "verify", "--n", "4", "--r", "1",
                        "--strict-paper", *REGION)
        assert code == 1
        assert "first failing edge" in out

    def test_report_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--n", "4", "--r", "1", *REGION, "--out", str(a))
        run(capsys, "verify", "--n", "4", "--r", "1", *REGION, "--out", str(b))
        assert a.read_text() == b.read_text()

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

    def test_every_fault_site_fails_verify(self, capsys):
        # the calibration runs under the fault too, as in any armed run
        for site in faults.SITES:
            with faults.inject(site):
                code = main(["verify", "--n", "4", "--r", "1", *REGION])
            capsys.readouterr()
            assert code == 1, site

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

    def test_interface_square_shown_for_mult2(self, capsys):
        code, out = run(capsys, "neighbors", "--n", "4", "--r", "1/2",
                        "--f", "1/2", "--j", "3/2", "--q", "0", "--eps", "1")
        assert code == 0
        assert "interface square" in out

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
