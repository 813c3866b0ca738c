"""The run_all command-line driver."""

import os

import pytest

from repro.experiments.run_all import main


class TestCli:
    def test_speedups_experiment(self, capsys):
        assert main(
            [
                "--only", "speedups",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Projected speedup" in out
        assert "bisort" in out

    def test_multiple_only_flags(self, capsys):
        assert main(
            [
                "--only", "table1",
                "--only", "speedups",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Projected speedup" in out

    def test_summary_line_on_success(self, capsys):
        assert main(
            [
                "--only", "table1",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "run_all: 1/1 experiments ok" in err
        assert "cache hits" in err

    def test_cache_dir_holds_every_artifact(self, tmp_path, monkeypatch):
        # L1-filter sidecars, their job records and the Olden trace memo
        # follow --cache-dir (nothing lands in ./.repro-cache), and the
        # environment is restored for later in-process callers.
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cache_dir = tmp_path / "mycache"
        assert main(
            [
                "--only", "table2",
                "--workloads", "mst",
                "--scale", "0.02",
                "--cache-dir", str(cache_dir), "--quiet",
            ]
        ) == 0
        assert list(cache_dir.glob("*/*.l1f.npz"))
        assert list(cache_dir.glob("*/traces/olden-mst-*.npz"))
        assert not (workdir / ".repro-cache").exists()
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "nonsense"])

    def test_unknown_workload_fails_with_nonzero_exit(self, capsys):
        assert main(
            ["--only", "table1", "--workloads", "nope", "--no-cache", "--quiet"]
        ) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err

    def test_profile_flag_dumps_per_job_stats(self, capsys, tmp_path):
        import pstats

        runlog = tmp_path / "events.jsonl"
        assert main(
            [
                "--only", "table2",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
                "--runlog", str(runlog),
                "--profile",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "[profile]" in err
        dumps = list((tmp_path / "profiles").glob("table2-bisort-*.prof"))
        assert len(dumps) == 1
        # the dump is a loadable cProfile stats file
        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls > 0

    def test_profile_with_obs_dir(self, capsys, tmp_path):
        obs = tmp_path / "obs"
        assert main(
            [
                "--only", "table2",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
                "--obs", str(obs),
                "--profile",
            ]
        ) == 0
        assert list((obs / "profiles").glob("*.prof"))


class TestPopulationCli:
    """``run_all --population``: the only command-line entry into the
    variant sweep."""

    def test_forked_population_shares_one_record(self, capsys, tmp_path):
        assert main(
            [
                "--population",
                "--workloads", "mst",
                "--scale", "0.05",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        first_column = [
            line.split("|")[0].strip() for line in out.splitlines() if "|" in line
        ]
        assert first_column == ["variant", "baseline", "migration", "no-l2-filter"]
        # the coordinator loaded the record once; both forked workers
        # inherited it for all three variant jobs
        assert "record loads: 1 (sources: 3× inherited" in out

    @pytest.mark.parametrize(
        "extra",
        [["--only", "table2"], ["--server", "http://127.0.0.1:9"]],
        ids=["only", "server"],
    )
    def test_population_refuses_only_and_server(self, extra):
        with pytest.raises(SystemExit) as excinfo:
            main(["--population", *extra])
        assert excinfo.value.code == 2
