"""Pluggable memory-technology backends (see :mod:`.base`).

Importing this package registers the two shipped technologies --
``dram`` (DDR4) and ``gddr5`` -- so
``get_backend("dram")`` works as soon as anything imports
``repro.dram.backends``.
"""

from repro.dram.backends.base import (
    MemoryTechBackend,
    TimingRule,
    TimingTerm,
    backend_names,
    get_backend,
    register_backend,
    rule,
)
from repro.dram.backends.dram import DRAM_BACKEND
from repro.dram.backends.gddr5 import GDDR5_BACKEND

__all__ = [
    "MemoryTechBackend",
    "TimingRule",
    "TimingTerm",
    "backend_names",
    "get_backend",
    "register_backend",
    "rule",
    "DRAM_BACKEND",
    "GDDR5_BACKEND",
]
