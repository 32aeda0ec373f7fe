"""Suite-wide fixtures: keep tests hermetic.

The experiment pipeline persists every grid cell's result in the
content-addressed store under ``REPRO_CACHE_DIR`` (default
``.repro_cache/``).  Tests must neither read a developer's stale store
nor leave files behind, so every test -- and every subprocess it
starts, such as ``tests/test_examples.py`` -- runs against a throwaway
cache directory.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
