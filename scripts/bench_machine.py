"""The machine record that each scripts/bench_*.py writes into its
BENCH_*.json."""
from __future__ import annotations

import os
import platform

import numpy


def machine() -> dict:
    """CPU model, core count, Python and numpy versions, and platform."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}
