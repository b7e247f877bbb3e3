import datetime as dt
import json
import re

import numpy as np
import pytest

from conftest import FIXTURE_CSV
from demandcast import (
    CandidateSet,
    RankedResults,
    SarimaFit,
    SarimaParams,
    SarimaSpec,
    StepwiseConfig,
    StudyReport,
    __version__,
    load_fit,
)
from demandcast.cli import main

FIX = str(FIXTURE_CSV)


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("DEMANDCAST_OUT", raising=False)


def run(*argv: str) -> int:
    return main(list(argv))


class TestParsing:
    def test_no_command_prints_usage(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("ingest", "--frobnicate") == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert run("train") == 1

    def test_version_action(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "demandcast" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--input", FIX, "--spec", "oops"),
            ("fit", "--input", FIX, "--split", "count:-3", "--spec", "1,0,0"),
            ("fit", "--input", FIX, "--season", "0", "--spec", "1,0,0"),
            ("search", "--input", FIX, "--jobs", "0", "--spec", "1,0,0"),
            ("search", "--input", FIX, "--grid", "everything"),
        ],
    )
    def test_bad_values_exit_one(self, argv, tmp_path):
        assert run(*argv, "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command, flags in [
                ("ingest", ("split", "season", "seed", "format", "jobs")),
                ("diagnose", ("split", "seed", "format", "jobs")),
                ("fit", ("format", "jobs")),
                ("report", ("format",)),
                ("forecast", ("split", "season", "seed", "format", "jobs")),
            ]
            for flag in flags
        ],
    )
    def test_flag_of_a_setting_the_command_does_not_read(self, command, flag, capsys, tmp_path):
        value = {"split": "count:9", "season": "30", "seed": "3", "format": "csv", "jobs": "4"}[flag]
        out = tmp_path / "out"
        # a spec makes fit and report otherwise valid, so only the flag is at fault
        spec = ("--spec", "1,0,0") if command in ("fit", "report") else ()
        assert run(command, "--input", FIX, "--out-dir", str(out), *spec, f"--{flag}", value) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_each_command_lists_only_the_flags_it_reads(self, capsys):
        common = {"--input", "--out-dir", "--impute", "--config", "--print-config"}
        expected = {
            "ingest": set(),
            "diagnose": {"--season"},
            "fit": {"--split", "--season", "--seed", "--spec", "--allow-nonconverged"},
            "search": {"--split", "--season", "--seed", "--format", "--jobs", "--grid", "--spec"},
            "report": {"--split", "--season", "--seed", "--jobs", "--grid", "--spec"},
            "forecast": {"--horizon", "--model"},
        }
        for command, flags in expected.items():
            with pytest.raises(SystemExit):
                run(command, "--help")
            listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
            assert listed - {"--help"} == common | flags, command

    def test_missing_input_flag(self, capsys, tmp_path):
        assert run("ingest", "--out-dir", str(tmp_path)) == 1
        assert "--input" in capsys.readouterr().err

    def test_missing_input_file(self, capsys, tmp_path):
        assert run("ingest", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)) == 2
        assert "not found" in capsys.readouterr().err

    def test_directory_input_exits_two(self, capsys, tmp_path):
        assert run("ingest", "--input", str(tmp_path), "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("input error: cannot read input file")
        assert not (tmp_path / "out").exists()


class TestPrintConfig:
    def test_prints_sorted_effective_config(self, capsys, tmp_path):
        assert run(
            "fit", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--seed", "3", "--print-config",
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == sorted(out)
        assert "seed=3" in out
        assert "spec=(1,0,0)" in out
        assert "command=fit" in out
        assert any(line.startswith("version=") for line in out)

    def test_flag_beats_config_file_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "season": 14}))
        assert run(
            "search", "--input", FIX, "--out-dir", str(tmp_path),
            "--config", str(cfg), "--seed", "6", "--print-config",
        ) == 0
        out = capsys.readouterr().out
        assert "seed=6" in out       # flag wins
        assert "season=14" in out    # file beats default
        assert "jobs=1" in out       # untouched default

    def test_config_file_can_set_every_key(self, capsys, tmp_path):
        settings = {
            "input": FIX, "out_dir": str(tmp_path), "split": "frac:0.25", "season": 14,
            "grid": "arima-table", "spec": ["1,0,0", "0,1,1"], "impute": "interp", "seed": 9,
            "format": "csv", "jobs": 3, "horizon": 10, "model": "m.txt", "allow_nonconverged": True,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        assert run("report", "--config", str(cfg), "--print-config") == 0
        assert capsys.readouterr().out.splitlines() == [
            "allow_nonconverged=true", "command=report", "format=csv", "grid=arima-table",
            "horizon=10", "impute=interp", f"input={FIX}", "jobs=3", "model=m.txt",
            f"out_dir={tmp_path}", "season=14", "seed=9", "spec=(1,0,0);(0,1,1)",
            "split=frac:0.25", f"version={__version__}",
        ]

    def test_out_dir_falls_back_to_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DEMANDCAST_OUT", "/tmp/envout")
        assert run("ingest", "--input", FIX, "--print-config") == 0
        assert "out_dir=/tmp/envout" in capsys.readouterr().out

    def test_config_file_errors(self, tmp_path):
        missing = tmp_path / "none.json"
        assert run("ingest", "--input", FIX, "--config", str(missing)) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run("ingest", "--input", FIX, "--config", str(bad)) == 2
        unknown = tmp_path / "unk.json"
        unknown.write_text(json.dumps({"speed": 3}))
        assert run("ingest", "--input", FIX, "--config", str(unknown)) == 1

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("search", {"format": "html"}),
            ("report", {"impute": "linear"}),
            ("report", {"grid": "everything"}),
            ("search", {"jobs": 0}),
            ("fit", {"season": "weekly", "spec": "1,0,0"}),
            ("fit", {"allow_nonconverged": "yes", "spec": "1,0,0"}),
            ("report", {"spec": 5}),
            ("fit", {"split": 60, "spec": "1,0,0"}),
        ],
        ids=["format", "impute", "grid", "jobs", "season", "allow_nonconverged", "spec", "split"],
    )
    def test_config_file_values_are_checked_like_flags(self, command, settings, capsys,
                                                       tmp_path, monkeypatch):
        import demandcast.cli as cli_mod

        def no_fitting(*args, **kwargs):
            raise AssertionError("a model was fitted before the settings were checked")

        for name in ("fit", "evaluate_grid", "run_study", "_stepwise_holdout"):
            monkeypatch.setattr(cli_mod, name, no_fitting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "out"
        assert run(command, "--input", FIX, "--out-dir", str(out), "--config", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_config_file_can_supply_specs(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": ["1,0,0", "0,1,1"], "input": FIX}))
        assert run("report", "--config", str(cfg), "--print-config",
                   "--out-dir", str(tmp_path)) == 0
        assert "spec=(1,0,0);(0,1,1)" in capsys.readouterr().out


class TestIngest:
    def test_writes_all_datasets_and_gap_report(self, capsys, tmp_path):
        out = tmp_path / "nested" / "out"
        assert run("ingest", "--input", FIX, "--out-dir", str(out)) == 0
        gap = (out / "gap_report.txt").read_text().splitlines()
        assert gap[0] == "calendar_days=420"
        assert gap[1] == "observed_days=406"
        assert gap[2] == "missing_days=14"
        assert len(gap) == 3 + 14
        dt.date.fromisoformat(gap[3])  # gap dates are ISO
        for name, rows in [("dropna", 406), ("mean", 420), ("median", 420),
                           ("mode", 420), ("interp", 420)]:
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "date,max_demand_mw"
            assert len(lines) == rows + 1
        stdout = capsys.readouterr().out
        assert "missing days: 14" in stdout

    def test_single_strategy_selection(self, tmp_path):
        assert run("ingest", "--input", FIX, "--out-dir", str(tmp_path), "--impute", "mean") == 0
        assert (tmp_path / "mean.csv").exists()
        assert not (tmp_path / "interp.csv").exists()

    def test_drop_strategy_reports_dropped_not_imputed(self, capsys, tmp_path):
        assert run("ingest", "--input", FIX, "--out-dir", str(tmp_path), "--impute", "drop") == 0
        stdout = capsys.readouterr().out
        assert "14 dropped" in stdout
        assert "imputed" not in stdout

    def test_non_utf8_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "binary.csv"
        bad.write_bytes(b"dat\xd4\xfe\x80e,max demand\n")
        assert run("ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_cr_only_line_endings_are_read(self, capsys, tmp_path):
        src = tmp_path / "cr.csv"
        src.write_bytes(b"date,max demand\r01/01/2020,5\r02/01/2020,6\r")
        assert run("ingest", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 0
        assert "calendar days: 2" in capsys.readouterr().out
        assert (tmp_path / "o" / "interp.csv").read_text().splitlines()[1:] == [
            "2020-01-01,5", "2020-01-02,6"
        ]

    def test_oversized_cell_exits_2(self, capsys, tmp_path):
        src = tmp_path / "big.csv"
        src.write_text('date,max demand\n01/01/2020,"' + "x" * 200_000 + '"\n')
        assert run("ingest", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("input error: row 2: field larger than field limit")


class TestDiagnose:
    def test_writes_adf_and_correlogram_tables(self, capsys, tmp_path):
        assert run(
            "diagnose", "--input", FIX, "--out-dir", str(tmp_path), "--impute", "interp"
        ) == 0
        adf = (tmp_path / "interp_adf.csv").read_text().splitlines()
        assert adf[0] == "diff_order,statistic,p_value,used_lags,n_effective,regression,p_underflow"
        assert len(adf) == 4
        assert [line.split(",")[0] for line in adf[1:]] == ["0", "1", "2"]
        corr = (tmp_path / "interp_correlogram.csv").read_text().splitlines()
        assert corr[0] == "diff_order,lag,acf,pacf,band"
        # 40 lags for the level and the first difference
        assert len(corr) == 1 + 80
        stdout = capsys.readouterr().out
        assert "== interp ==" in stdout
        assert "recommended differencing" in stdout
        assert "seasonal strength" in stdout
        assert "over-differencing risk: d=2" in stdout

    def test_runs_each_unit_root_test_once(self, capsys, tmp_path, adf_calls):
        assert run("diagnose", "--input", FIX, "--out-dir", str(tmp_path), "--impute", "all") == 0
        # d = 0, 1, 2 on each of the five datasets; the recommendation reuses them
        assert adf_calls == [406, 405, 404] + [420, 419, 418] * 4
        assert capsys.readouterr().out.count("recommended differencing: d=") == 5

    def test_short_series_exits_three(self, capsys, tmp_path):
        src = tmp_path / "short.csv"
        rows = ["date,max demand"] + [
            f"2020-01-{day:02d},{100 + day}" for day in range(1, 16)
        ]
        src.write_text("\n".join(rows) + "\n")
        assert run("diagnose", "--input", str(src), "--out-dir", str(tmp_path)) == 3
        assert "data insufficiency" in capsys.readouterr().err


class TestFit:
    def test_fit_writes_model_and_metrics(self, capsys, tmp_path):
        assert run(
            "fit", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--impute", "interp", "--split", "count:60",
        ) == 0
        stdout = capsys.readouterr().out
        assert "train MAPE (one-step):" in stdout
        assert "test MAPE (dynamic):" in stdout
        loaded, meta = load_fit(tmp_path / "model.txt")
        assert loaded.spec == SarimaSpec(1, 0, 0)
        assert meta["dataset"] == "interp"
        assert meta["split"] == "count:60"

    def test_default_dataset_is_dropna(self, tmp_path):
        assert run(
            "fit", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "0,1,0", "--split", "count:60",
        ) == 0
        _, meta = load_fit(tmp_path / "model.txt")
        assert meta["dataset"] == "dropna"

    def test_date_split_on_dropna_follows_the_calendar(self, capsys, tmp_path):
        # dropna ends on the fixture's last observed day, 2020-02-24
        assert run(
            "fit", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--split", "date:2020-01-31",
        ) == 0
        assert "on dropna (train 382 days, test 24 days)" in capsys.readouterr().out

    def test_spec_is_mandatory_and_single(self, tmp_path):
        base = ("fit", "--input", FIX, "--out-dir", str(tmp_path), "--split", "count:60")
        assert run(*base) == 1
        assert run(*base, "--spec", "1,0,0", "--spec", "2,0,0") == 1

    def test_nonconverged_fit_exits_four(self, capsys, tmp_path, monkeypatch):
        import demandcast.cli as cli_mod

        def fake_fit(spec, train, seed=0):
            return SarimaFit(
                spec=spec, params=SarimaParams(ar=(0.5,)), loglik=-1.0, aic=8.0,
                bic=10.0, n_obs=len(train), converged=False,
                residuals=np.zeros(len(train)),
            )

        monkeypatch.setattr(cli_mod, "fit", fake_fit)
        base = (
            "fit", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--split", "count:60",
        )
        assert run(*base) == 4
        assert "--allow-nonconverged" in capsys.readouterr().err
        assert run(*base, "--allow-nonconverged") == 0
        assert "converged=false" in capsys.readouterr().out


class TestSearch:
    def test_explicit_specs(self, capsys, tmp_path):
        assert run(
            "search", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--spec", "0,1,1",
            "--impute", "interp", "--split", "count:60",
        ) == 0
        stdout = capsys.readouterr().out
        assert "| Models | Order | test_MAPE | train_MAPE | AIC | BIC |" in stdout
        results = (tmp_path / "interp_results.csv").read_text().splitlines()
        assert len(results) == 3
        assert (tmp_path / "interp_results.md").exists()

    def test_csv_stdout_format(self, capsys, tmp_path):
        assert run(
            "search", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "0,1,0", "--impute", "mean", "--split", "count:60",
            "--format", "csv",
        ) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("dataset,grid,models,order,")

    def test_stepwise_search_on_nonseasonal_data(self, capsys, tmp_path):
        # season 1 disables the seasonal moves, keeping the climb short
        assert run(
            "search", "--input", FIX, "--out-dir", str(tmp_path),
            "--impute", "mean", "--split", "count:60", "--season", "1",
        ) == 0
        stdout = capsys.readouterr().out
        assert "stepwise winner on mean:" in stdout
        assert "holdout test MAPE:" in stdout
        assert (tmp_path / "mean_results.csv").exists()


class TestReport:
    def test_explicit_grid_full_study(self, capsys, tmp_path):
        assert run(
            "report", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--spec", "0,0,1", "--split", "count:60",
        ) == 0
        stdout = capsys.readouterr().out
        assert "best holdout accuracy:" in stdout
        for name in ("report.md", "report.csv", "dropna_results.csv", "mean_results.csv",
                     "median_results.csv", "mode_results.csv", "interp_results.csv"):
            assert (tmp_path / name).exists(), name
        md = (tmp_path / "report.md").read_text()
        for dataset in ("dropna", "mean", "median", "mode", "interp"):
            assert f"## {dataset} (explicit)" in md

    def test_impute_picks_the_datasets_of_a_grid_study(self, tmp_path):
        assert run(
            "report", "--input", FIX, "--out-dir", str(tmp_path), "--impute", "mean",
            "--spec", "1,0,0", "--split", "count:60",
        ) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mean_results.csv", "report.csv", "report.md"]
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("mean,explicit,")

    def test_stepwise_grid_reports_each_winner_on_the_holdout(self, capsys, tmp_path):
        # season 1 disables the seasonal moves, keeping the climb short
        assert run(
            "report", "--input", FIX, "--out-dir", str(tmp_path), "--grid", "stepwise",
            "--impute", "mean", "--split", "count:60", "--season", "1",
        ) == 0
        assert "best holdout accuracy:" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mean_results.csv", "report.csv", "report.md"]
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("mean,stepwise,auto-arima,")
        assert "## mean (stepwise)" in (tmp_path / "report.md").read_text()
        # one dataset, so its results file holds the same rows as the report
        assert (tmp_path / "mean_results.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()

    def test_stepwise_study_keeps_a_dataset_whose_search_fits_nothing(self, tmp_path):
        # count:404 leaves dropna 2 training days, too few for any candidate
        with pytest.warns(UserWarning, match="differencing recommendation failed"):
            assert run(
                "report", "--input", FIX, "--out-dir", str(tmp_path), "--grid", "stepwise",
                "--season", "1", "--split", "count:404",
            ) == 0
        section = (tmp_path / "report.md").read_text().split("## dropna (stepwise)\n", 1)[1].split("\n## ")[0]
        assert section.lstrip().startswith("All candidate fits failed on this dataset:")
        assert "InsufficientDataError" in section

    def test_stepwise_study_runs_in_one_pool_and_matches_serial(self, tmp_path, pool_sizes):
        # the header and the first 160 days keep five stepwise searches to a few seconds
        short = tmp_path / "short.csv"
        short.write_text("".join(FIXTURE_CSV.read_text().splitlines(keepends=True)[:161]))
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert run(
                "report", "--input", str(short), "--out-dir", str(out), "--grid", "stepwise",
                "--season", "1", "--split", "count:30", "--jobs", jobs,
            ) == 0
            written[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
        # five stepwise searches, one per dataset, in one pool of two workers
        assert pool_sizes == [2]
        datasets = ("dropna", "mean", "median", "mode", "interp")
        assert sorted(written["1"]) == sorted(["report.md", "report.csv", *(f"{d}_results.csv" for d in datasets)])
        assert written["2"] == written["1"]


class TestFixedGrids:
    def test_report_and_search_pass_the_fixed_grids(self, tmp_path, monkeypatch):
        import demandcast.cli as cli_mod

        seen = []

        def fake_run_study(records, split_spec, grids, seed=0, jobs=1, strategies=()):
            seen.append([(g.name, len(g.specs)) if isinstance(g, CandidateSet) else g for g in grids])
            return StudyReport(tables=(), split=split_spec, seed=seed)

        def fake_evaluate_grid(series, split_spec, candidates, seed=0, jobs=1):
            seen.append([(candidates.name, len(candidates.specs))])
            return RankedResults(rows=(), ranking_key="test_mape")

        monkeypatch.setattr(cli_mod, "run_study", fake_run_study)
        monkeypatch.setattr(cli_mod, "evaluate_grid", fake_evaluate_grid)
        base = ("--input", FIX, "--out-dir", str(tmp_path), "--split", "count:60")
        assert run("report", *base) == 0
        assert run("search", *base, "--grid", "sarima-table") == 0
        assert run("report", *base, "--grid", "stepwise", "--season", "1") == 0
        assert seen == [
            [("arima-table", 14), ("sarima-table", 11)],
            [("sarima-table", 11)],
            [StepwiseConfig(s=1)],
        ]


class TestForecast:
    def seed_model(self, tmp_path) -> None:
        assert run(
            "fit", "--input", FIX, "--out-dir", str(tmp_path),
            "--spec", "1,0,0", "--impute", "interp", "--split", "count:60",
        ) == 0

    def test_forecast_continues_the_series(self, capsys, tmp_path):
        self.seed_model(tmp_path)
        capsys.readouterr()
        assert run(
            "forecast", "--input", FIX, "--out-dir", str(tmp_path), "--horizon", "5"
        ) == 0
        stdout = capsys.readouterr().out
        assert "from interp, horizon 5" in stdout  # dataset restored from metadata
        lines = (tmp_path / "forecast.csv").read_text().splitlines()
        assert lines[0] == "date,point,lower95,upper95"
        assert len(lines) == 6
        first = lines[1].split(",")
        # fixture spans 420 days from 2019-01-01, so forecasts start 2020-02-25
        assert first[0] == "2020-02-25"
        point, lo, hi = float(first[1]), float(first[2]), float(first[3])
        assert lo < point < hi

    def test_default_dropna_forecast_continues_the_calendar(self, capsys, tmp_path):
        # dropna ends on the last observed day, so its forecasts start the day after
        assert run("fit", "--input", FIX, "--out-dir", str(tmp_path), "--spec", "0,0,0,1,1,1,7") == 0
        assert run("forecast", "--input", FIX, "--out-dir", str(tmp_path), "--horizon", "3") == 0
        assert "from dropna, horizon 3" in capsys.readouterr().out
        lines = (tmp_path / "forecast.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2020-02-25", "2020-02-26", "2020-02-27"]

    def test_missing_model_exits_two(self, tmp_path):
        assert run("forecast", "--input", FIX, "--out-dir", str(tmp_path)) == 2

    def test_non_stationary_model_exits_two(self, capsys, tmp_path):
        self.seed_model(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text(re.sub(r"ar\.1=\S+", "ar.1=1.5", model.read_text()))
        capsys.readouterr()
        assert run("forecast", "--input", FIX, "--out-dir", str(tmp_path), "--model", str(model)) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "model.txt" in err and "not stationary" in err

    @pytest.mark.parametrize("label", ["bogus", "all"])
    def test_unknown_dataset_label_exits_two_unless_impute_overrides(self, capsys, tmp_path, label):
        self.seed_model(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text(model.read_text().replace("meta.dataset=interp", f"meta.dataset={label}"))
        capsys.readouterr()
        base = ("forecast", "--input", FIX, "--out-dir", str(tmp_path), "--model", str(model))
        assert run(*base) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "model.txt" in err and repr(label) in err
        assert run(*base, "--impute", "mean") == 0
        assert "from mean" in capsys.readouterr().out

    def test_explicit_model_path_and_impute_override(self, capsys, tmp_path):
        self.seed_model(tmp_path)
        capsys.readouterr()
        assert run(
            "forecast", "--input", FIX, "--out-dir", str(tmp_path),
            "--model", str(tmp_path / "model.txt"), "--impute", "mean",
        ) == 0
        assert "from mean" in capsys.readouterr().out
