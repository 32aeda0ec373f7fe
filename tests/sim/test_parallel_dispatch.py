"""Cost-aware grid dispatch, the warm pool, and trace-memo eviction.

:func:`repro.sim.parallel.run_grid` must not pay pool startup for grids
too small to amortise it (the parallel-overhead cliff): below the
estimated-cost threshold it runs serially even when workers were
requested, and grids that do go parallel share one warm executor across
calls instead of re-forking per figure.
"""

import pytest

import repro.sim.parallel as parallel
from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.parallel import SimJob, _job_cost, run_grid


def _job(accesses=50, mix="mix0", benchmark=None, seed=0):
    return SimJob(config=cfgs.ddr4_baseline(), accesses=accesses,
                  fragmentation=0.1, seed=seed,
                  core_config=CoreConfig(), mix=mix,
                  benchmark=benchmark)


class _PoolMustNotStart:
    def map(self, fn, jobs, chunksize=1):  # pragma: no cover
        raise AssertionError("grid took the pool path")


class _RecordingPool:
    def __init__(self):
        self.calls = 0

    def map(self, fn, jobs, chunksize=1):
        self.calls += 1
        return [fn(job) for job in jobs]


class TestCostGate:
    def test_job_cost_scales_with_cores(self):
        assert _job_cost(_job(accesses=100)) == 400  # 4-core mix
        assert _job_cost(_job(accesses=100, mix=None,
                              benchmark="mcf")) == 100

    def test_small_grid_stays_serial(self, monkeypatch):
        # A 3-job grid with --jobs 4: below the cost threshold, the
        # pool must never start (the cliff this PR fixes).
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: _PoolMustNotStart())
        results = run_grid([_job(seed=s) for s in range(3)], workers=4)
        assert len(results) == 3

    def test_forced_parallel_path(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_GRID_MIN_COST", 0)
        pool = _RecordingPool()
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: pool)
        jobs = [_job(seed=s) for s in range(2)]
        results = run_grid(jobs, workers=2)
        assert pool.calls == 1
        serial = run_grid(jobs, workers=1)
        assert [r.digest() for r in results] == \
            [r.digest() for r in serial]

    def test_forced_serial_path(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_GRID_MIN_COST", 1 << 40)
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: _PoolMustNotStart())
        big = [_job(accesses=400, seed=s) for s in range(6)]
        assert len(run_grid(big, workers=4)) == 6


class TestWarmPool:
    def teardown_method(self):
        parallel._shutdown_warm_pool()

    def test_pool_reused_across_calls(self):
        a = parallel._warm_executor(2)
        b = parallel._warm_executor(2)
        assert a is b

    def test_pool_refreshed_when_width_changes(self):
        a = parallel._warm_executor(2)
        b = parallel._warm_executor(3)
        assert a is not b


class TestTraceMemo:
    def test_oldest_half_eviction(self, monkeypatch):
        monkeypatch.setattr(parallel, "TRACE_MEMO_CAPACITY", 4)
        monkeypatch.setattr(parallel, "_trace_memo", {})
        for seed in range(6):
            parallel._job_traces(_job(accesses=8, mix=None,
                                      benchmark="mcf", seed=seed))
        memo_keys = list(parallel._trace_memo)
        assert len(memo_keys) <= 4
        # The oldest entries were swept; the newest survive.
        assert all(key[4] != 0 for key in memo_keys)
        assert any(key[4] == 5 for key in memo_keys)

    def test_memo_hit_returns_same_object(self, monkeypatch):
        monkeypatch.setattr(parallel, "_trace_memo", {})
        job = _job(accesses=8)
        assert parallel._job_traces(job) is parallel._job_traces(job)
