"""Tests for the command-line interface."""

import pytest

from repro.cli import CONFIG_FACTORIES, build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for cmd in ("list", "fig11"):
            args = parser.parse_args([cmd])
            assert callable(args.func)

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.config == "vsb"
        assert args.mix == "mix0"
        assert args.accesses == 1500

    def test_fig12_mixes_option(self):
        args = build_parser().parse_args(
            ["fig12", "--mixes", "mix1,mix2", "--accesses", "100"])
        assert args.mixes == "mix1,mix2"

    def test_unknown_config_rejected(self):
        for config in ("zzz", "pcm-palp", "pcm-palp-vsb"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--config", config])

    @pytest.mark.parametrize("argv", [["stats"], ["trace"], ["fig4"],
                                      ["cells", "fig12"]],
                             ids=lambda argv: argv[0])
    def test_jobs_only_on_grid_commands(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--jobs", "2"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFactories:
    def test_every_factory_builds(self):
        for name, factory in CONFIG_FACTORIES.items():
            assert factory().name


class TestExecution:
    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "vsb" in out and "mix8" in out and "fig12" in out

    def test_fig11(self, capsys):
        main(["fig11"])
        out = capsys.readouterr().out
        assert "DDB+EWLR+RAP" in out
        assert "MASA8" in out

    def test_run_small(self, capsys):
        main(["run", "--config", "ddr4", "--mix", "mix6",
              "--accesses", "120"])
        out = capsys.readouterr().out
        assert "row-hit rate" in out
        assert "IPC per core" in out

    def test_run_prints_effort_and_digest(self, capsys):
        from repro.sim.simulator import run_traces
        from repro.workloads.mixes import mix_traces
        main(["run", "--config", "ddr4", "--mix", "mix6",
              "--accesses", "120"])
        lines = capsys.readouterr().out.splitlines()
        effort = [line for line in lines if line.startswith("effort:")]
        assert len(effort) == 1
        for field in ("peeks/command", "candidates built/command",
                      "examined/peek", "loop "):
            assert field in effort[0]
        expected = run_traces(CONFIG_FACTORIES["ddr4"](),
                              mix_traces("mix6", 120)).digest()
        assert effort[0].endswith(f"digest {expected}")

    @pytest.mark.parametrize("flags", [
        ["--config", "ddr4"], ["--mix", "mix5"], ["--refresh", "16Gb"],
        ["--refresh-policy", "darp"]], ids=lambda flags: flags[0])
    def test_spec_run_rejects_cell_flags(self, flags):
        with pytest.raises(SystemExit) as err:
            main(["run", "fig16", *flags, "--mixes", "mix0",
                  "--accesses", "100"])
        message = str(err.value.code)
        assert message == (f"repro run: error: {flags[0]} does not "
                           f"apply to a SPEC run")

    @pytest.mark.parametrize("flags", [["--mixes", "mix0"],
                                       ["--jobs", "1"]],
                             ids=lambda flags: flags[0])
    def test_cell_run_rejects_grid_flags(self, flags):
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", "ddr4", *flags, "--accesses", "100"])
        message = str(err.value.code)
        assert message == (f"repro run: error: {flags[0]} does not "
                           f"apply to a single-cell run")

    def test_fig4_small(self, capsys):
        main(["fig4", "--accesses", "300"])
        out = capsys.readouterr().out
        assert "planes" in out

    def test_fig12_tiny(self, capsys):
        """A figure command prints its table, then the run report line:
        every cell simulated on an empty store, none on a rerun."""
        main(["fig12", "--mixes", "mix6", "--accesses", "200"])
        out = capsys.readouterr().out
        assert "GMEAN" in out
        assert "Ideal32" in out
        cells = 8 + 4  # the Fig. 12 configs on mix6, then its alone runs
        assert out.splitlines()[-1] == \
            f"cells={cells} memory_hits=0 store_hits=0 submitted={cells}"
        main(["fig12", "--mixes", "mix6", "--accesses", "200"])
        assert capsys.readouterr().out.splitlines()[-1] == \
            f"cells={cells} memory_hits=0 store_hits={cells} submitted=0"

    def test_gc_frees_entries_of_older_formats(self, capsys):
        """After the upgrade to entry format v9, a v8 and a v7 entry are
        misses, and the first ``repro gc`` frees both; the next run
        re-simulates those two cells alone."""
        import os

        from repro.sim.specs import ExperimentSettings, fig16_spec
        from repro.sim.store import ResultStore
        from tests.sim.entries import as_v7, as_v8, read_bytes, write_bytes

        run = ["run", "fig16", "--mixes", "mix0", "--accesses", "100"]
        main(run)
        store = ResultStore()
        cells = fig16_spec(ExperimentSettings(
            accesses_per_core=100, mixes=("mix0",))).expand()[1:]
        paths = [store.path_for(cell.store_key()) for cell in cells]
        write_bytes(paths[0], as_v7(read_bytes(paths[0]),
                                    cells[0].config.energy))
        write_bytes(paths[1], as_v8(read_bytes(paths[1])))
        for cell in cells:
            assert not store.contains(cell.store_key(), cell.config.energy)
        capsys.readouterr()
        main(["gc"])
        assert "removed 2 (" in capsys.readouterr().out
        assert not any(os.path.exists(path) for path in paths)
        main(run)
        assert capsys.readouterr().out.splitlines()[-1] == \
            "cells=3 memory_hits=0 store_hits=1 submitted=2"

    def test_bad_mix_exits(self):
        with pytest.raises(SystemExit):
            main(["fig12", "--mixes", "nope", "--accesses", "100"])

    @pytest.mark.parametrize("command", ["run", "cells"])
    def test_unknown_spec_is_a_one_line_error(self, command):
        with pytest.raises(SystemExit) as err:
            main([command, "fig99"])
        message = str(err.value.code)
        assert "\n" not in message
        assert message.startswith(f"repro {command}: error:")
        assert "fig12" in message and "figref" in message

    @pytest.mark.parametrize("command", ["run", "cells"])
    def test_bad_spec_file_is_a_one_line_error(self, command, tmp_path):
        path = tmp_path / "spec.json"
        for typo, config in (
                ("refresh_densty", '"refresh_densty": "16Gb"'),
                ("drain_hi", '"overrides": [["queue", {"drain_hi": 3}]]'),
                ("darpp", '"overrides": [["refresh_density", "8Gb"], '
                          '["refresh_policy", "darpp"]]')):
            path.write_text('{"name": "s", "configs": [{"preset": "vsb", '
                            + config + '}], "mixes": ["mix0"]}')
            with pytest.raises(SystemExit) as err:
                main([command, str(path)])
            message = str(err.value.code)
            assert "\n" not in message and typo in message

    def test_unwritable_store_fails_before_simulating(
            self, tmp_path, monkeypatch):
        """A cache under a regular file cannot hold results: ``run``
        stops with one line naming the directory before any cell runs
        (a regular file blocks a directory even for root, where a
        ``chmod`` would not)."""
        import repro.sim.runner as runner
        blocker = tmp_path / "regular"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        grids = []
        monkeypatch.setattr(runner, "run_grid",
                            lambda *args, **kwargs: grids.append(args))
        with pytest.raises(SystemExit) as err:
            main(["run", "fig16", "--mixes", "mix0", "--accesses", "100"])
        message = str(err.value.code)
        assert "\n" not in message
        assert message.startswith("repro run: error:")
        assert str(blocker / "cache" / "store") in message
        assert grids == []


class TestObservability:
    def test_stats_table_sums(self, capsys):
        main(["stats", "--config", "vsb", "--mix", "mix0",
              "--accesses", "200"])
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "queue_empty" in out and "bank_busy" in out

    def test_stats_per_bank_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "stats.json"
        csv_path = tmp_path / "stats.csv"
        main(["stats", "--config", "ddr4", "--mix", "mix1",
              "--accesses", "150", "--per-bank",
              "--json", str(json_path), "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert "rowhit" in out  # the per-bank header
        import json as json_mod
        data = json_mod.loads(json_path.read_text())
        assert sum(data["buckets_ps"].values()) == data["wall_ps"]
        assert csv_path.read_text().startswith("channel,bucket,ps")

    def test_trace_jsonl_to_stdout(self, capsys):
        main(["trace", "--config", "ddr4", "--mix", "mix0",
              "--accesses", "100", "--limit", "5"])
        out = capsys.readouterr().out
        import json as json_mod
        lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(lines) == 5
        event = json_mod.loads(lines[0])
        assert {"time_ps", "kind", "stall"} <= set(event)

    def test_trace_csv_to_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        main(["trace", "--config", "vsb", "--mix", "mix0",
              "--accesses", "100", "--format", "csv",
              "--output", str(path)])
        header = path.read_text().splitlines()[0]
        assert header.startswith("time_ps,channel,bank")

    def test_fig12_emit_stats_sidecars(self, capsys, tmp_path):
        main(["fig12", "--mixes", "mix6", "--accesses", "150",
              "--emit-stats", str(tmp_path)])
        out = capsys.readouterr().out
        assert "GMEAN" in out
        sidecars = sorted(tmp_path.glob("fig12__*__mix6.json"))
        assert len(sidecars) == 8  # one per Fig. 12 configuration
        import json as json_mod
        for sidecar in sidecars:
            data = json_mod.loads(sidecar.read_text())
            assert sum(data["buckets_ps"].values()) == data["wall_ps"]
