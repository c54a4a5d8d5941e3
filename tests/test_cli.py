import hashlib
import os

import pytest

from powerlaw_blasius.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_newtonian_benchmark_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "1", "--step", "0.001", "--eta-inf", "10")
        assert code == 0
        assert "0.332057336" in out

    def test_singular_index_exits_with_domain_status(self, capsys):
        code, _, err = run(capsys, "solve", "--p", "0.5")
        assert code == 2
        assert "singular scaling exponent at P=0.5" in err

    def test_outside_laminar_range(self, capsys):
        code, _, err = run(capsys, "solve", "--p", "2.5")
        assert code == 2
        assert "outside laminar range" in err

    def test_auto_boundary(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "1", "--eta-inf", "auto")
        assert code == 0
        assert "eta*_inf        = 10" in out

    def test_csv_export(self, tmp_path, capsys):
        prefix = tmp_path / "prof"
        code, out, _ = run(capsys, "solve", "--p", "0.3", "--eta-inf", "10", "--out", str(prefix))
        assert code == 0
        starred = (tmp_path / "prof_starred.csv").read_text()
        physical = (tmp_path / "prof_physical.csv").read_text()
        for text in (starred, physical):
            assert text.startswith("eta,f,df,d2f\n")
            assert text.endswith("\n")
            assert len(text.splitlines()) == 10002
        # the physical domain extends beyond the starred one at P = 0.3
        last_starred = float(starred.splitlines()[-1].split(",")[0])
        last_physical = float(physical.splitlines()[-1].split(",")[0])
        assert last_starred == 10.0
        assert last_physical > last_starred

    def test_csv_export_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(capsys, "solve", "--p", "0.8", "--out", str(a))[0] == 0
        assert run(capsys, "solve", "--p", "0.8", "--out", str(b))[0] == 0
        for suffix in ("_starred.csv", "_physical.csv"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    def test_auto_csv_export_golden(self, tmp_path, capsys):
        # E = 20 at P = 0.8: the searched profile joins segments at eta* = 5
        # and 10; the hashes are those of one integration from the wall
        prefix = tmp_path / "prof"
        argv = ["solve", "--p", "0.8", "--step", "0.01", "--eta-inf", "auto", "--out", str(prefix)]
        assert run(capsys, *argv)[0] == 0
        golden = {
            "starred": "191a634dab717d79d89f1f4c01844359d861551b2d194b7fc16a63cab4e15f48",
            "physical": "bc5d32b948b2b5096b28d1c7743bc9eddb0000b6da4d7c49de7503c93dfc27ec",
        }
        for frame, digest in golden.items():
            data = (tmp_path / f"prof_{frame}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_unwritable_out_path(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--p", "0.8", "--out", str(tmp_path / "missing" / "prof"))
        assert code == 2
        assert "error writing" in err


class TestTableCommand:
    def test_subset_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "table", "--p-list", "0.2,1")
        assert code == 0
        assert "0.490341913" in out
        assert "0.332057336" in out
        assert out.count(" ok") == 2

    def test_never_touches_the_filesystem(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "table", "--p-list", "1")[0] == 0
        assert os.listdir(tmp_path) == []

    def test_singular_row_marked_failed(self, capsys):
        code, out, _ = run(capsys, "table", "--p-list", "0.5")
        assert code == 2
        assert "failed" in out
        assert "singular scaling exponent" in out

    def test_known_discrepant_row_sets_tolerance_status(self, capsys):
        # the published 0.398432 at P = 1.5 is not reproducible from the
        # stated procedure; the row must be reported and flagged, exit 1
        code, out, _ = run(capsys, "table", "--p-list", "1.5")
        assert code == 1
        assert "off by" in out
        assert "0.364773529" in out


class TestValidateCommand:
    def test_newtonian_agreement(self, capsys):
        code, out, _ = run(capsys, "validate", "--p-list", "1")
        assert code == 0
        assert " ok" in out

    def test_domain_error_row(self, capsys):
        code, out, _ = run(capsys, "validate", "--p-list", "2.5")
        assert code == 2
        assert "outside laminar range" in out

    def test_two_rows(self, capsys):
        code, out, _ = run(capsys, "validate", "--p-list", "0.3,1.5")
        assert code == 0
        assert out.count(" ok") == 2


class TestPohlhausenCommand:
    def test_reports_formula_and_published_columns(self, capsys):
        code, out, _ = run(capsys, "pohlhausen")
        assert code == 0
        assert "0.323209353" in out
        assert "0.214892" in out
        assert "reported, not corrected" in out


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_p_list(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--p-list", "1,spam"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--p", "1", "--step", "0"],
        ["solve", "--p", "1", "--step", "0.003"],
        ["solve", "--p", "1", "--eta-inf", "abc"],
        ["solve", "--p", "1", "--eta-inf", "-5"],
        ["solve", "--p", "1", "--eta-inf", "inf"],
        ["table", "--p-list", "1", "--eta-inf", "abc"],
        ["table", "--p-list", "1", "--step", "-1"],
        ["validate", "--p-list", "1", "--step", "0.003"],
        ["validate", "--p-list", "1", "--tol", "nan"],
        ["solve", "--p", "1", "--step", "1e-7"],
        ["solve", "--p", "1", "--step", "1e-7", "--eta-inf", "auto"],
        ["solve", "--p", "1", "--step", "1e-320"],
        ["solve", "--p", "1", "--step", "1e-320", "--eta-inf", "auto"],
    ])
    def test_bad_argument_is_one_line_exit_2(self, capsys, argv):
        # rejected by argparse (SystemExit) or by the grid check (return code)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        lines = (captured.out + captured.err).splitlines()
        assert len([line for line in lines if "error:" in line or "failed:" in line]) == 1
