"""The demos' standard output, pinned by sha256, and the README's library
quick start, run as written.

Demo 02 prints a timing column, so its pin masks that column first.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_graphs_and_sampling.py":
        "fed512ea290405f04f6c19ed5f7d16a2d555941571283fb9a1b53f1e3196184f",
    "03_gale_hemispheres.py":
        "49c9921c29a2e2381b1026f89ebf9be89d3b3e3a655df8fc34ce0cfd18a18498",
    "04_borsuk_witness.py":
        "c00e0acb730fab2ac590441f3b163180dbc18ac2930866d6205060d5542ab009",
    "05_theorem_bounds.py":
        "e4b5ea66d2fefcded17b0e1c82b77626495468de07dcabd5fafd97b1611e21f1",
    "06_random_chi_experiment.py":
        "ea5595f525d1db1947b45d71b0713ee96a3ab3becc4897ed01bfb94f3cee7e9e",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_pinned(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]


def test_demo_02_stdout_pinned_with_its_times_masked():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "02_exact_coloring.py")],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    # the 24 grid rows each carry one "0.55s"-style time; all else is exact
    masked, times = re.subn(rb"\d+\.\d\ds", b"<time>", proc.stdout)
    assert times == 24
    assert hashlib.sha256(masked).hexdigest() == (
        "686a1d14eb7a642c785622f822f72c9a67d140708300479c45ae75fdd566aed8"
    )


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
