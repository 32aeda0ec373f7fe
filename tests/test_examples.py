"""Every script under ``examples/`` runs to completion at small scale.

Each runs in a fresh interpreter with ``src`` on ``PYTHONPATH`` and the
suite's throwaway ``REPRO_CACHE_DIR`` (set by ``tests/conftest.py``),
so the examples cannot drift from the library API unnoticed.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = [
    ("quickstart.py", "150"),
    ("area_explorer.py",),
    ("custom_workload.py", "150"),
    ("gddr5_extension.py", "150"),
    ("mix_speedup.py", "mix0", "150"),
    ("frequency_scaling.py", "150", "mix0"),
]


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda argv: argv[0])
def test_example_runs(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = os.path.join(ROOT, "examples", argv[0])
    proc = subprocess.run([sys.executable, script, *argv[1:]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
