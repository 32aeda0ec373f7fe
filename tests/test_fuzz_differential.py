"""The differential schedule fuzzer (``tools/fuzz_schedules.py``).

A handful of fixed seeds run the full oracle stack in-suite (CI runs a
larger smoke separately); the harness internals -- case drawing,
corrupted-log detection, minimization, repro printout -- are tested
directly so a fuzzer bug cannot silently turn the tool into a no-op.
"""

import importlib.util
import io
import pathlib
import sys

import pytest

from repro.dram.validation import CommandRecord, TimingViolation, validate_log

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_fuzzer():
    spec = importlib.util.spec_from_file_location(
        "fuzz_schedules", REPO / "tools" / "fuzz_schedules.py")
    module = importlib.util.module_from_spec(spec)
    # Register before exec: the tool's dataclasses resolve their
    # (string) annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fuzz = _load_fuzzer()


class TestCaseDrawing:
    def test_draws_are_deterministic(self):
        assert fuzz.draw_case(12) == fuzz.draw_case(12)
        assert fuzz.build_traces(fuzz.draw_case(12))[0].entries == \
            fuzz.build_traces(fuzz.draw_case(12))[0].entries

    def test_seeds_round_robin_all_presets(self):
        from repro.sim import config as cfgs
        presets = cfgs.all_presets()
        assert len(presets) == 18
        assert [p.backend for p in presets[:17]] == ["dram"] * 17
        names = {fuzz.draw_case(seed).config_name
                 for seed in range(len(presets))}
        assert names == {p.name for p in presets}

    def test_overrides_pin_the_drawn_shape(self):
        case = fuzz.draw_case(5, cores=2, accesses=50)
        assert case.cores == 2
        assert case.accesses == 50


class TestOracles:
    @pytest.mark.parametrize("seed", [0, 3, 7, 13])
    def test_fixed_seeds_pass_clean(self, seed):
        case = fuzz.draw_case(seed, accesses=80)
        assert fuzz.check_case(case) is None

    def test_validator_wired_in_catches_corrupted_log(self):
        """The same validate_log the fuzzer calls rejects a 5-ACT burst."""
        case = fuzz.draw_case(0, cores=1, accesses=30)
        config = fuzz.build_config(case)
        timing = config.timing()
        assert timing.tFAW > 0
        log = [CommandRecord("ACT", i * timing.tRRD, i, 0, (0, 0), 1)
               for i in range(5)]
        with pytest.raises(TimingViolation, match="tFAW"):
            validate_log(log, timing, config.bus_policy)


class TestMinimizer:
    def test_shrinks_while_failure_reproduces(self):
        case = fuzz.Case(seed=1, config_name="DDR4",
                         cores=4, accesses=160)
        # A synthetic failure that any case with >= 40 accesses and
        # >= 2 cores still exhibits.
        minimized = fuzz.minimize(
            case, lambda c: ("boom" if c.accesses >= 40 and c.cores >= 2
                             else None))
        assert minimized.accesses == 40
        assert minimized.cores == 2

    def test_keeps_unshrinkable_case(self):
        case = fuzz.Case(seed=1, config_name="DDR4",
                         cores=1, accesses=160)
        minimized = fuzz.minimize(
            case, lambda c: "boom" if c.accesses == 160 else None)
        assert minimized == case

    def test_repro_command_replays_the_case(self):
        case = fuzz.Case(seed=9, config_name="BG32",
                         cores=3, accesses=44)
        command = case.repro_command()
        assert "--start 9" in command
        assert "--cores 3" in command
        assert "--accesses 44" in command
        assert "tools/fuzz_schedules.py" in command


class TestHarness:
    def test_run_seeds_reports_clean(self):
        out = io.StringIO()
        failures = fuzz.run_seeds(0, 2, accesses=60, out=out)
        assert failures == 0
        assert "ok" in out.getvalue()

    def test_failure_prints_minimized_repro(self, monkeypatch):
        out = io.StringIO()
        # Force every oracle call to fail so the minimizer and the
        # repro printout run without needing a real scheduler bug.
        monkeypatch.setattr(
            fuzz, "check_case",
            lambda case, presets=None: "forced")
        failures = fuzz.run_seeds(4, 1, out=out)
        assert failures == 1
        text = out.getvalue()
        assert "FAIL" in text
        assert "--start 4 --seeds 1" in text

    def test_simulator_exception_fails_its_seed_only(self, monkeypatch):
        """An exception from the simulator is that seed's failure: it
        is reported with its type and message, minimized and printed
        with its repro command, and the later seeds still run."""
        def illegal_act(config, traces, incremental, observe):
            raise ValueError("ACT at 7 violates act_allowed=9")

        monkeypatch.setattr(fuzz, "_run", illegal_act)
        out = io.StringIO()
        assert fuzz.run_seeds(0, 3, accesses=40, out=out) == 3
        text = out.getvalue()
        for seed in (0, 1, 2):
            assert f"seed {seed:4d} FAIL" in text
            assert f"--start {seed} --seeds 1" in text
        assert "ValueError: ACT at 7 violates act_allowed=9" in text
        assert text.count("minimized to cores=1 accesses=10") == 3

    def test_main_config_filter_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            fuzz.main(["--config", "no-such-config"])

    def test_main_single_seed(self, capsys):
        assert fuzz.main(["--seeds", "1", "--accesses", "40"]) == 0
        assert "all 1 seeds clean" in capsys.readouterr().out
