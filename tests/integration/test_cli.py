"""The owl-detect command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults_match_paper_spirit(self):
        args = build_parser().parse_args(["aes"])
        assert args.confidence == 0.95
        assert args.test == "ks"

    def test_unknown_workload_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-workload"])

    def test_invalid_test_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["aes", "--test", "chi2"])


class TestExecution:
    def test_list_prints_workloads(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("aes", "rsa", "nvjpeg-encode", "torch-relu",
                     "serialize", "dummy"):
            assert name in out

    def test_no_workload_lists(self, capsys):
        assert main([]) == 0
        assert "aes" in capsys.readouterr().out

    def test_leaky_workload_exits_nonzero(self, capsys):
        code = main(["rsa", "--fixed-runs", "10", "--random-runs", "10"])
        out = capsys.readouterr().out
        assert code == 1
        assert "control-flow leaks" in out
        assert "rsa_modexp_kernel" in out

    def test_clean_workload_exits_zero(self, capsys):
        code = main(["rsa-ct", "--fixed-runs", "5", "--random-runs", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical traces" in out

    def test_welch_mode_runs(self, capsys):
        code = main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
                     "--test", "welch"])
        assert code in (0, 1)


class TestRetiredFlags:
    @pytest.mark.parametrize("argv", [["aes", "--no-columnar"],
                                      ["run", "aes", "--no-columnar"]])
    def test_no_columnar_is_a_usage_error(self, argv, capsys):
        """Devices emit memory only as batches: the per-event switch is
        gone, and argparse rejects it like any unknown option."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--no-columnar" in capsys.readouterr().err


class TestCohortFlag:
    def test_cohort_defaults_on(self):
        args = build_parser().parse_args(["aes"])
        assert not args.no_cohort

    def test_no_cohort_verdict_identical(self, capsys):
        """The per-warp reference loop reaches the same verdict and prints
        the same report as the default cohort engine."""
        argv = ["rsa", "--fixed-runs", "8", "--random-runs", "8", "--json"]
        cohort_code = main(argv)
        cohort_out = capsys.readouterr().out
        reference_code = main(argv + ["--no-cohort"])
        reference_out = capsys.readouterr().out
        assert cohort_code == reference_code
        assert cohort_out == reference_out
