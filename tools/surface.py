"""Print the size of satx's surface: source lines and the options count.

    python3 tools/surface.py

The options count is what a user or caller can set or name, computed
from this checkout's ``src``:

- the config keys: top level, input, output, symmetry, and cloud (the
  cloud kinds' keys with ``kind``, ``hemisphere`` and a merge part's);
- the fields of ``JobConfig`` and of ``OptimizationConfig``;
- the names in ``satx.__all__``.

A simplification reports both figures before and after.
"""

from __future__ import annotations

import glob
import os
import sys
from dataclasses import fields

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import satx  # noqa: E402
from satx import config  # noqa: E402
from satx.optimizer import OptimizationConfig  # noqa: E402


def source_lines() -> tuple:
    """(line count, file count) of the Python files under ``src``."""
    paths = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    total = 0
    for path in paths:
        with open(path) as handle:
            total += sum(1 for _ in handle)
    return total, len(paths)


def config_keys() -> dict:
    """Config key count per section."""
    return {
        "top": len(config._TOP_KEYS),
        "input": len(set().union(*config._INPUT_KEYS.values())),
        "output": len(set().union(*config._OUTPUT_KEYS.values())),
        "symmetry": len(config._SYM_KEYS),
        "cloud": len(set().union(*config._CLOUD_KEYS.values())
                     | {"kind", "hemisphere"} | config._PART_KEYS),
    }


def main() -> None:
    lines, files = source_lines()
    keys = config_keys()
    counts = {
        "config keys": sum(keys.values()),
        "JobConfig fields": len(fields(config.JobConfig)),
        "OptimizationConfig fields": len(fields(OptimizationConfig)),
        "satx.__all__": len(satx.__all__),
    }
    print(f"src lines {lines} ({files} files)")
    print(f"options {sum(counts.values())}")
    for name, count in counts.items():
        print(f"  {name} {count}")
    print("  config keys: " + ", ".join(f"{k} {n}" for k, n in keys.items()))


if __name__ == "__main__":
    main()
