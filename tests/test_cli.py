"""Tests for the ``brepartition`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _build_parser, _make_index, main
from repro.datasets import load_dataset


class TestInfo:
    def test_info_lists_datasets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("audio", "fonts", "deep", "sift", "normal", "uniform"):
            assert name in out
        assert "itakura_saito" in out

    def test_info_shows_paper_scale(self, capsys):
        main(["info"])
        out = capsys.readouterr().out
        assert "11164866" in out  # sift's paper-scale n


class TestSearch:
    @pytest.mark.parametrize("method", ["bp", "vaf", "bbt", "scan"])
    def test_search_methods(self, capsys, method):
        code = main(
            [
                "search",
                "uniform",
                "--method",
                method,
                "--n",
                "300",
                "--k",
                "5",
                "--queries",
                "3",
                "--partitions",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "io_pages" in out
        assert method.upper() in out

    @pytest.mark.parametrize("method", ["bp", "scan"])
    def test_search_batch_mode(self, capsys, method):
        code = main(
            [
                "search",
                "uniform",
                "--method",
                method,
                "--n",
                "300",
                "--k",
                "5",
                "--queries",
                "6",
                "--partitions",
                "2",
                "--batch",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "io_pages" in out
        assert "batch mode: B=3" in out
        # six queries in chunks of three; the scan has no Plan to prove one
        covered = "0 of 2" if method == "scan" else "of 2"
        assert "covered batches (every live row refined): " in out
        assert covered in out.split("covered batches")[1].splitlines()[0]

    def test_search_batch_rejects_non_positive(self, capsys):
        code = main(
            [
                "search",
                "uniform",
                "--method",
                "bp",
                "--n",
                "300",
                "--k",
                "5",
                "--queries",
                "3",
                "--partitions",
                "2",
                "--batch",
                "0",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--batch must be >= 1" in err

    def test_search_batch_unsupported_method_falls_back(self, capsys):
        code = main(
            [
                "search",
                "uniform",
                "--method",
                "vaf",
                "--n",
                "300",
                "--k",
                "5",
                "--queries",
                "3",
                "--batch",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no batch engine" in out

    def test_search_abp(self, capsys):
        code = main(
            [
                "search",
                "normal",
                "--method",
                "abp",
                "--n",
                "300",
                "--k",
                "5",
                "--queries",
                "2",
                "--partitions",
                "2",
                "--probability",
                "0.8",
            ]
        )
        assert code == 0
        assert "ABP" in capsys.readouterr().out

    @pytest.mark.parametrize("method,point_filter", [("abp", True), ("bp", False)])
    def test_make_index_keeps_each_methods_point_filter_default(
        self, method, point_filter
    ):
        # ABP documents a leaf-exact default (point_filter=True) that the
        # explicit CLI config must not override; BP stays cluster-granular
        args = _build_parser().parse_args(
            ["search", "normal", "--method", method, "--partitions", "2"]
        )
        dataset = load_dataset("normal", n=50, n_queries=1, seed=0)
        index = _make_index(args, dataset)
        assert index.config.point_filter is point_filter

    def test_search_keeps_fanout_and_kernel_flags_without_batch(self, capsys):
        # search runs the batch pipeline at B=1, shard fan-out and
        # kernel dispatch included, so neither flag needs --batch
        code = main(
            [
                "search",
                "fonts",
                "--n",
                "300",
                "--queries",
                "3",
                "--shards",
                "2",
                "--shard-workers",
                "2",
                "--refine-kernel",
                "sparse",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ignoring" not in out
        assert "2 fan-out worker(s)" in out

    def test_search_reports_partitions(self, capsys):
        main(
            [
                "search",
                "uniform",
                "--n",
                "300",
                "--k",
                "3",
                "--queries",
                "2",
                "--partitions",
                "3",
            ]
        )
        assert "M=3" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "imagenet"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "normal", "--method", "faiss"])


class TestServeBench:
    def test_runs_both_arms(self, capsys):
        code = main(
            ["serve-bench", "fonts", "--n", "200", "--clients", "8", "--requests", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-request (B=1)" in out
        assert "micro-batched (B<=64)" in out
        assert "micro-batching speedup:" in out

    def test_iops_is_not_an_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", "fonts", "--iops", "100"])
        assert exc.value.code == 2

    def test_replication_beyond_shards_rejected(self, capsys):
        code = main(
            ["serve-bench", "fonts", "--replication-factor", "2", "--shards", "1"]
        )
        assert code == 2
        assert "exceeds --shards 1" in capsys.readouterr().err


class TestExperiment:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
