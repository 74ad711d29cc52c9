import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "tools" / "surface.py"


def test_surface_script_reports_consistent_counts():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("src lines ")
    options = int(lines[1].removeprefix("options "))
    counts = {line.strip().rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
              for line in lines[2:6]}
    assert list(counts) == ["config keys", "JobConfig fields",
                            "OptimizationConfig fields", "satx.__all__"]
    assert options == sum(counts.values())
    sections = lines[6].removeprefix("  config keys: ").split(", ")
    assert sum(int(s.split()[1]) for s in sections) == counts["config keys"]
