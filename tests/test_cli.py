import csv
import json

import pytest

import delsync.cli
import delsync.harness
from delsync.cli import main
from delsync.core import ProtocolParams
from delsync.harness import ExperimentConfig, parse_config, run_single


def test_defaults_are_the_library_defaults(capsys):
    # the options left out of run, and the keys left out of a config, take
    # the values of ProtocolParams and ExperimentConfig
    assert main(["run", "--n", "3000", "--beta", "0.01", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    _, metrics, _ = run_single(ProtocolParams(n=3000, beta=0.01))
    expected = metrics.to_json_obj()
    del printed["runtime_ms"], expected["runtime_ms"]
    assert printed == expected
    cfg = parse_config("n = 3000\nbeta_grid = 0.01, 0.02\ns_grid = 2\n")
    assert cfg == ExperimentConfig(3000, (0.01, 0.02), (2.0,))


class TestRunCommand:
    def test_json_metrics_and_exit_code(self, tmp_path, capsys):
        transcript = tmp_path / "run.jsonl"
        rc = main(
            [
                "run",
                "--n", "3000",
                "--beta", "0.01",
                "--s", "2",
                "--w", "2",
                "--a", "1,3.5",
                "--seed", "7",
                "--transcript", str(transcript),
                "--json",
            ]
        )
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["synchronized"] is True
        lines = transcript.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) == {"i", "dir", "mod", "kind", "bits", "sec", "digest"}

    def test_human_readable_output(self, capsys):
        rc = main(["run", "--n", "2000", "--beta", "0.01", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bits_total" in out and "synchronized" in out

    def test_invalid_config_exit_code(self, capsys):
        rc = main(["run", "--n", "1000", "--beta", "0.45", "--s", "1"])
        assert rc == 2

    def test_unparsable_efficiency_exit_code(self, capsys):
        # exit 1 means "did not synchronize"; a bad argument is a configuration error
        rc = main(["run", "--beta", "0.01", "--a", "1,x"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("invalid configuration:")

    @pytest.mark.parametrize(
        "args", [["--c", "nan"], ["--c", "inf"], ["--s", "inf"], ["--s", "nan"], ["--a", "1,nan"]]
    )
    def test_non_finite_parameter_exit_code(self, args, capsys):
        rc = main(["run", "--beta", "0.01", "--n", "5000", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration:") and captured.out == ""

    def test_unwritable_transcript_exit_code(self, tmp_path, capsys):
        # the path is checked before the session runs: no metrics, exit 2
        rc = main(["run", "--n", "2000", "--beta", "0.01",
                   "--transcript", str(tmp_path / "nodir" / "t.jsonl")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration:") and captured.out == ""

    def test_failed_session_keeps_the_old_transcript(self, tmp_path, monkeypatch):
        def boom(params):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(delsync.cli, "run_single", boom)
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("old\n")
        with pytest.raises(RuntimeError):
            main(["run", "--n", "2000", "--beta", "0.01", "--transcript", str(transcript)])
        assert transcript.read_text() == "old\n"

    def test_transcript_replay_identical(self, tmp_path):
        args = ["run", "--n", "2500", "--beta", "0.01", "--seed", "9", "--json"]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        p2.write_text("x" * 100_000)  # a longer file is replaced, not overwritten in part
        assert main(args + ["--transcript", str(p1)]) == 0
        assert main(args + ["--transcript", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestSweepCommand:
    def test_sweep_runs_config(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "n = 3000\nbeta_grid = 0.01\ns_grid = 2\ntrials = 1\n"
            "variant = name=improved w=2 a=1,3.5 c=3\n"
        )
        out = tmp_path / "rows.csv"
        out.write_text("old\n" * 1000)  # replaced once the grid has run
        rc = main(["sweep", "--config", str(cfg), "--csv", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 1
        assert rows[0]["synchronized"] == "true"

    def test_missing_grid_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = 3000\nbeta_grid = 0.01\ntrials = 1\n")
        rc = main(["sweep", "--config", str(cfg), "--csv", str(tmp_path / "rows.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and "s_grid" in err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("invalid configuration:")


    def test_unwritable_outputs_exit_code(self, tmp_path, capsys, monkeypatch):
        # both outputs are opened before the grid runs, which runs no session
        def no_session(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(delsync.harness, "run_point", no_session)
        grid = "n = 3000\nbeta_grid = 0.01\ns_grid = 2\ntrials = 1\n"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(grid)
        rc = main(["sweep", "--config", str(cfg), "--csv", str(tmp_path / "nodir" / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("invalid configuration:")
        cfg.write_text(grid + f"jsonl = {tmp_path / 'nodir' / 'r.jsonl'}\n")
        rc = main(["sweep", "--config", str(cfg), "--csv", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("invalid configuration:")

    def test_unwritable_jsonl_keeps_the_old_csv(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "n = 3000\nbeta_grid = 0.01\ns_grid = 2\ntrials = 1\n"
            f"jsonl = {tmp_path / 'nodir' / 'r.jsonl'}\n"
        )
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        assert main(["sweep", "--config", str(cfg), "--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid configuration:")
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize(
        "line", ["variant = w=2 a=1,nan", "variant = w=1 a=1 c=inf", "s_grid = nan", "s_grid = 2,inf"]
    )
    def test_non_finite_config_value_exit_code(self, tmp_path, capsys, line):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"n = 3000\nbeta_grid = 0.01\ns_grid = 2\ntrials = 1\n{line}\n")
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        assert main(["sweep", "--config", str(cfg), "--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid configuration:")
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("variant = name=broken w=2 a=1", "a must list exactly w code efficiencies"),
            ("beta_grid = 0.01, 0.7", "beta must be in (0, 0.5]"),
            ("s_grid = 2, -1", "s must be positive and finite"),
        ],
    )
    def test_value_no_session_can_use_exit_code(self, tmp_path, capsys, line, reason):
        # checked for every variant at every grid point before any run: a
        # sweep with one such value would lose one side of the pairing
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "n = 3000\nbeta_grid = 0.01\ns_grid = 2\ntrials = 2\n"
            f"variant = name=baseline w=1 a=1\n{line}\n"
        )
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        assert main(["sweep", "--config", str(cfg), "--csv", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: variant ") and reason in err
        assert out.read_text() == "old\n"

    def test_grid_without_a_valid_session_exit_code(self, tmp_path, capsys):
        # n = 0, and L_P >= L_S at s = beta = 0.01: run_point skips every variant
        for grid in ("n = 0\nbeta_grid = 0.01\ns_grid = 2\n",
                     "n = 3000\nbeta_grid = 0.01\ns_grid = 0.01\n"):
            cfg = tmp_path / "grid.cfg"
            cfg.write_text(grid + "trials = 1\n")
            out = tmp_path / "x.csv"
            out.write_text("old\n")
            assert main(["sweep", "--config", str(cfg), "--csv", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == "invalid configuration: no grid point forms a valid session"
            assert out.read_text() == "old\n"


class TestBoundsCommand:
    def test_bounds_csv(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(
            ["bounds", "--s-grid", "1,2", "--w-grid", "1,2", "--a", "1", "--c", "3", "--csv", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 4
        r11 = next(r for r in rows if r["s"] == "1.0" and r["w"] == "1")
        assert float(r11["r"]) == 36.0

    def test_bounds_to_stdout(self, capsys):
        rc = main(["bounds", "--s-grid", "2", "--w-grid", "2", "--a", "3.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "s,w,a,c,r,coef_I,coef_II,coef_III"
        assert "28.5" in out

    def test_unparsable_grid_exit_code(self, capsys):
        rc = main(["bounds", "--s-grid", "1,x"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration:") and captured.out == ""

    def test_out_of_range_parameter_exit_code(self, capsys):
        # module_coefficients requires w >= 1 and a >= 1
        for args in (["--w-grid", "0"], ["--a", "0.5"]):
            rc = main(["bounds", *args])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("invalid configuration:") and captured.out == ""

    @pytest.mark.parametrize(
        "args", [["--s-grid", "nan"], ["--s-grid", "1,inf"], ["--a", "nan"], ["--c", "inf"]]
    )
    def test_non_finite_parameter_exit_code(self, args, capsys):
        rc = main(["bounds", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration:") and captured.out == ""

    def test_unwritable_csv_exit_code(self, tmp_path, capsys):
        rc = main(["bounds", "--csv", str(tmp_path / "nodir" / "b.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration:") and captured.out == ""
