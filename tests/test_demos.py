"""Every script under demos/ runs to completion against this source tree."""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apexobs

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    src = Path(apexobs.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_block():
    # the fenced ``>>>`` block under "## Library", without its closing fence,
    # which doctest would read as the last example's expected output
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner(verbose=False)
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
    assert len(test.examples) >= 8
