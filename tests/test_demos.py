"""The narrative demos run to completion.

`06_svg_gallery.py` is left out: it rewrites the committed SVGs in
`demos/output/`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_classical_lantern.py",
    "02_pencils_and_pants.py",
    "03_braid_oracle.py",
    "04_orderings.py",
    "05_daisies.py",
)


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_zero(script):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
