"""Set-up probe: import the CLI, build the scenario and its embedded system,
then print ``ready``.

Usage: python3 perfbench/setup_probe.py SCENARIO

Every ``vdvcarleman`` call pays this before any work; the benchmark times
the probe from process start to the ``ready`` line.
"""
import sys

import vdvcarleman.cli  # noqa: F401  (what ``python -m vdvcarleman`` imports)
from vdvcarleman.carleman import build_vandevusse
from vdvcarleman.experiments import load_scenario

if __name__ == "__main__":
    build_vandevusse(load_scenario(f"builtin:{sys.argv[1]}").params)
    print("ready", flush=True)
