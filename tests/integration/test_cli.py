"""The owl-detect command-line interface."""

import pytest

from repro.cli import (
    EXIT_UNAVAILABLE,
    _config_from_args,
    build_parser,
    build_subcommand_parser,
    main,
)
from repro.core import OwlConfig


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

    @pytest.mark.parametrize("argv", [["aes", "--no-replica-batch"],
                                      ["run", "aes", "--no-replica-batch"]])
    def test_no_replica_batch_is_a_usage_error(self, argv, capsys):
        """``--no-cohort`` is the one reference-recorder switch; the
        per-run recording switch is gone."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--no-replica-batch" in capsys.readouterr().err


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


class TestCampaignOptions:
    """``owl run`` and ``owl submit`` declare the campaign options once."""

    @pytest.mark.parametrize("tail", [
        ["--fixed-runs", "7", "--random-runs", "9", "--confidence", "0.99",
         "--test", "welch", "--analyzer", "both", "--mi-bias", "jackknife",
         "--mi-min-bits", "0.25", "--seed", "5", "--granularity", "64",
         "--quantify", "--all-representatives"],
        ["--adaptive", "--adaptive-rounds", "16,32",
         "--adaptive-alpha-spend", "0.7", "--analyzer", "mi"],
    ], ids=["analysis", "adaptive"])
    def test_run_and_submit_configure_the_same_fields(self, tail,
                                                      monkeypatch, capsys):
        from repro.service.client import ServiceClient
        submitted = {}

        def capture(client, workload, *, config=None):
            submitted.update(config)
            raise ConnectionRefusedError("submission captured")

        monkeypatch.setattr(ServiceClient, "submit", capture)
        assert main(["submit", "aes", "--connect", "http://127.0.0.1:9",
                     *tail]) == EXIT_UNAVAILABLE
        assert "submission captured" in capsys.readouterr().err
        parser = build_subcommand_parser()
        config = _config_from_args(parser,
                                   parser.parse_args(["run", "aes", *tail]))
        assert submitted and OwlConfig(**submitted) == config
