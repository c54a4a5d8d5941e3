import argparse
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powerlaw_blasius import SolutionProfile, cli
from powerlaw_blasius.cli import main

#: Values whose 12-digit form is easy to get wrong: signed zero, the
#: smallest subnormal, huge magnitudes, integers, and both sides of the
#: switches to exponent form at 1e-4 and 1e12 (999999999999.5 rounds up
#: to 1e+12).
_AWKWARD = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, 3.0, -42.0, 1e11,
    999999999999.0, 999999999999.5, 1e12, 1e-4, 9.99999999999995e-05, 0.000123456789012345,
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_write_profile_csv(path, profile):
    """The row-wise f-string writer, kept as the byte reference for ``cli._write_profile_csv``."""
    with open(path, "w", newline="\n") as fh:
        fh.write("eta,f,df,d2f\n")
        for eta, (f, df, d2f) in zip(profile.abscissae, profile.values):
            fh.write(f"{eta:.12g},{f:.12g},{df:.12g},{d2f:.12g}\n")


class TestSolveCommand:
    def test_newtonian_benchmark_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "1", "--step", "0.001", "--eta-inf", "10")
        assert code == 0
        assert "0.332057336" in out

    def test_half_index_solves(self, capsys):
        # the group is a pure stretch at P = 0.5: lam = 1
        code, out, _ = run(capsys, "solve", "--p", "0.5")
        assert code == 0
        assert "skin friction   = 0.331746097\n" in out
        assert "lambda          = 1\n" in out

    def test_index_one_ulp_from_half_solves(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "0.5000000000000001")
        assert code == 0
        assert "skin friction   = 0.331746097\n" in out

    def test_header_prints_the_index_solved(self, capsys):
        # six significant digits would print "P = 0.5" for the index one ulp above it
        code, out, _ = run(capsys, "solve", "--p", "0.5000000000000001")
        assert code == 0
        assert out.startswith("P               = 0.5000000000000001\n")

    def test_nan_index_is_non_finite(self, capsys):
        code, out, err = run(capsys, "solve", "--p", "nan")
        assert (code, out) == (2, "")
        assert err == "error: non-finite index at P=nan\n"

    def test_outside_laminar_range(self, capsys):
        code, _, err = run(capsys, "solve", "--p", "2.5")
        assert code == 2
        assert "outside laminar range" in err

    @pytest.mark.parametrize(
        "p, unit, cure",
        [
            ("1e-10", "0.000464", "a grid of 1077220 steps on [0, 10] (step 9.28315478732292e-06)"),
            ("1e-300", "1e-100", "no grid of at most 1e+07 steps on [0, 10]"),
        ],
    )
    def test_unresolved_small_index_names_the_unit_length(self, capsys, p, unit, cure):
        # the benchmark step 1e-3 is coarser than the starred unit length
        # (P(P+1))**(1/3) itself, and the march loses its curvature sign
        code, out, err = run(capsys, "solve", "--p", p)
        assert (code, out) == (2, "")
        assert err == (
            f"error: curvature sign lost at P={p}: step 0.001 is coarser than 0.02 of the starred unit length"
            f" (P(P+1))^(1/3) = {unit}; {cure} resolves it\n"
        )

    def test_auto_boundary(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "1", "--eta-inf", "auto")
        assert code == 0
        assert "eta*_inf        = 10" in out

    @pytest.mark.parametrize(
        "argv, step",
        [(["--p", "1", "--eta-inf", "auto"], "0.025"), (["--p", "1", "--step", "0.001"], "0.001"),
         (["--p", "1.5", "--eta-inf", "auto"], "0.001"), (["--p", "1.84375", "--step", "0.01"], "0.01")],
        # at step 0.01 a stage undershoots the P = 1.84375 touchdown by 0.019
        ids=["auto-chosen", "explicit", "shear-thickening-auto", "deep-touchdown-overshoot"],
    )
    def test_reports_the_step(self, capsys, argv, step):
        code, out, _ = run(capsys, "solve", *argv)
        assert code == 0
        assert f"step            = {step}\n" in out

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
        # E = 20 at P = 0.8: the search's march at step 1/45 passes its
        # stops at eta* = 5 and 10; the hashes are those of one march from
        # the wall, sampled onto the step 0.01
        prefix = tmp_path / "prof"
        argv = ["solve", "--p", "0.8", "--step", "0.01", "--eta-inf", "auto", "--out", str(prefix)]
        assert run(capsys, *argv)[0] == 0
        golden = {
            "starred": "db2467743b6c4ecbfc05cf7665dd9245830b9bc56351d9ca7442c085845620ab",
            "physical": "772da081ef07a8585cff29ba3a8a16563b5af55fde4078afcd3112a543ab48d5",
        }
        for frame, digest in golden.items():
            data = (tmp_path / f"prof_{frame}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_unwritable_out_path(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--p", "0.8", "--out", str(tmp_path / "missing" / "prof"))
        assert code == 2
        assert "error writing" in err


class TestCsvWriter:
    @pytest.mark.parametrize("n", [11, 1023, 1024, 1025, 2 * 1024 + 3])
    @given(
        spacing=st.sampled_from([5e-324, 1e-3, 1.0, 7.0]) | st.floats(min_value=5e-324, max_value=1e300),
        pool=st.lists(
            st.sampled_from(_AWKWARD)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.integers(-10**15, 10**15).map(float),
            min_size=1,
            max_size=16,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_bytes_match_the_row_wise_reference(self, tmp_path_factory, n, spacing, pool, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array(pool), size=(n, 3))
        # half the entries spread over every decimal exponent
        spread = rng.random((n, 3)) < 0.5
        count = int(spread.sum())
        values[spread] = rng.standard_normal(count) * 10.0 ** rng.integers(-320, 300, count)
        # a profile's curvature is non-negative; -0.0 passes and is kept
        values[:, 2] = np.where(values[:, 2] < 0.0, -values[:, 2], values[:, 2])
        profile = SolutionProfile("starred", np.arange(n) * spacing, values)
        out = tmp_path_factory.mktemp("csv")
        cli._write_profile_csv(out / "block.csv", profile)
        reference_write_profile_csv(out / "rows.csv", profile)
        assert (out / "block.csv").read_bytes() == (out / "rows.csv").read_bytes()

    def test_peak_memory_does_not_grow_with_the_profile(self, tmp_path):
        # an E = 80 export has 80 001 rows; formatting them in one string
        # costs tens of MB, which the benchmark's peak_rss_mb would show
        eta = np.arange(80_001) * 1e-3
        profile = SolutionProfile("physical", eta, np.column_stack([eta, np.tanh(eta), np.exp(-eta)]))
        tracemalloc.start()
        try:
            cli._write_profile_csv(tmp_path / "prof.csv", profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "prof.csv").read_text().splitlines()) == 80_002
        assert peak < 2 * 2**20

    def test_export_calls_the_module_attribute(self, tmp_path, capsys, monkeypatch):
        # perfbench times the CSV layer by wrapping cli._write_profile_csv
        written = []
        original = cli._write_profile_csv

        def spy(path, profile):
            written.append(path)
            original(path, profile)

        monkeypatch.setattr(cli, "_write_profile_csv", spy)
        prefix = tmp_path / "prof"
        assert run(capsys, "solve", "--p", "1", "--step", "0.01", "--out", str(prefix))[0] == 0
        assert written == [tmp_path / "prof_starred.csv", tmp_path / "prof_physical.csv"]


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

    def test_half_index_row_beside_acrivos(self, capsys):
        # the table has Acrivos' 0.331200 at P = 0.5 and no transform value
        code, out, _ = run(capsys, "table", "--p-list", "0.5")
        assert code == 0
        row = out.splitlines()[-1]
        assert row.split("|")[1].strip() == "0.3312"
        assert row.split("|")[5].strip() == "0.331746097"
        assert row.endswith("| no reference")

    def test_row_one_ulp_from_half_solves(self, capsys):
        code, out, _ = run(capsys, "table", "--p-list", "0.5000000000000001")
        assert code == 0
        assert "0.331746097" in out and "failed" not in out

    def test_rows_one_ulp_apart_keep_their_labels(self, capsys):
        code, out, _ = run(capsys, "table", "--p-list", "0.5,0.5000000000000001")
        assert code == 0
        labels = [row.split("|")[0].strip() for row in out.splitlines()[2:]]
        assert labels == ["0.5", "0.5000000000000001"]

    def test_nan_row_is_non_finite(self, capsys):
        code, out, _ = run(capsys, "table", "--p-list", "1,nan")
        assert code == 2
        assert out.splitlines()[-1].endswith("| failed: non-finite index at P=nan")

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

    def test_rows_across_half_index(self, capsys):
        code, out, _ = run(capsys, "validate", "--p-list", "0.49,0.5,0.51")
        assert code == 0
        assert out.count(" ok") == 3

    def test_two_rows(self, capsys):
        code, out, _ = run(capsys, "validate", "--p-list", "0.3,1.5")
        assert code == 0
        assert out.count(" ok") == 2

    def test_default_rows_are_pinned(self, capsys):
        # the sha256 of the default table's bytes: every transform and
        # shooting digit it prints, and each |diff|
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9df2c091456861362bc52fcb564a4f0a6d1508d34d75e428f66608597eb5d3ac"
        )

    def test_bracket_reach_is_stated_in_help(self, capsys):
        # f''(0) is 2.51 at P = 0.03 on E = 10, just past the bracket's 2.5
        code, out, _ = run(capsys, "validate", "--p-list", "0.03,0.04")
        assert code == 2
        rows = out.splitlines()[-2:]
        assert "failed: bracket invalid" in rows[0] and rows[1].endswith(" ok")
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "reaches P >= 0.04" in " ".join(capsys.readouterr().out.split())


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

    def test_every_option_has_help(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        bare = [f"{name} {action.option_strings[-1]}" for name, sub in commands.items()
                for action in sub._actions if action.option_strings and not action.help]
        assert bare == []

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
        ["table", "--p-list", ""],
        ["validate", "--p-list", " , "],
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


_REALS = ["0", "-1", "nan", "inf", "abc", "1e-320", "0.5", "2.5", "1", "1.5", "", ","]
#: Steps no finer than 0.01, so a solve takes a few thousand steps at most, and invalid ones.
_STEPS = ["0.01", "0.02", "0.05", "0.1", "0.25", "0.5", "0.03", "1e-320", "0", "-0.01", "nan", "abc"]
_BOUNDARIES = ["5", "10", "20", "7.5", "auto", "0", "-5", "inf", "abc", ""]


#: The options each subcommand accepts.
_OPTIONS = {
    "solve": ["--p", "--step", "--eta-inf", "--out"],
    "table": ["--p-list", "--step", "--eta-inf"],
    "validate": ["--p-list", "--step", "--tol"],
    "pohlhausen": ["--p-list"],
}


@st.composite
def _argv(draw):
    """An argument vector from a fixed pool of tokens; each run takes well under a second.

    Most options drawn belong to the subcommand; the rest are any
    option, ``--bogus`` included.  solve, table and validate always get
    a step from ``_STEPS``, because the default step is ten times finer,
    and table and validate a P list, because their default lists take
    seconds.  A validate row that reaches the shooting oracle takes
    0.07-0.15 s on a 2-core Xeon, which adds up to many seconds over the
    examples, so validate's P lists hold no valid index other than
    1e-320, which blows up at once.
    """
    command = draw(st.sampled_from([*_OPTIONS, "frobnicate"]))
    reals = [r for r in _REALS if r not in ("1", "1.5")] if command == "validate" else _REALS
    values = {
        "--p": st.sampled_from(_REALS),
        "--p-list": st.lists(st.sampled_from(reals), min_size=1, max_size=3).map(",".join),
        "--step": st.sampled_from(_STEPS),
        "--eta-inf": st.sampled_from(_BOUNDARIES),
        "--tol": st.sampled_from(_REALS),
        "--out": st.just("x"),
        "--bogus": st.sampled_from(_REALS),
    }
    own = _OPTIONS.get(command, ["--bogus"])
    forced = [flag for flag in ("--p", "--step", "--p-list") if flag in own and command != "pohlhausen"]
    flags = forced + draw(st.lists(st.sampled_from(own * 3 + sorted(values)), max_size=3))
    return [command] + [token for flag in flags for token in (flag, draw(values[flag]))]


@given(argv=_argv())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_arguments_exit_cleanly(argv, capsys, tmp_path, monkeypatch):
    # --out x writes its CSV files into the working directory
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.out + captured.err
