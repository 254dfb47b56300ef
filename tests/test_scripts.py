"""The experiment scripts run to completion and print their known results.

Each script runs as a subprocess with the package on PYTHONPATH, as the
README shows; timings in parentheses are stripped before the output is
compared, so everything else it prints is pinned.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RIGIDITY = """\
dim H2(A;A) = 0; rigidity verified: True
sample 0: flattened through order 3 with 0 nonzero eliminating maps
sample 1: flattened through order 3 with 3 nonzero eliminating maps
  phi_1 = [-3/2, -3/2]; [3/2, -1/2]
  phi_2 = [0, 3]; [-4, -3]
  phi_3 = [1, -3]; [-1/2, 1]
sample 2: flattened through order 3 with 3 nonzero eliminating maps
  phi_1 = [1, -2]; [-3/2, 0]
  phi_2 = [9/2, -1]; [-2, 3]
  phi_3 = [2, 1/2]; [-5/2, 1/2]
sample 3: flattened through order 3 with 3 nonzero eliminating maps
  phi_1 = [-3/2, 1]; [-2, 2]
  phi_2 = [9/4, -1]; [2, 5/2]
  phi_3 = [3/2, -3/2]; [-15/2, 7/2]
sample 4: flattened through order 3 with 3 nonzero eliminating maps
  phi_1 = [-3, -3/2]; [0, -1/2]
  phi_2 = [10, 25/4]; [2, 7/4]
  phi_3 = [-3, 1]; [-4, -27/4]
"""

SURVEY = """\
dim 2 over F2: 58 verified tables out of 256 candidates
dim 2 over F3: 273 verified tables out of 6561 candidates
rational lifts surviving re-verification: 217
cohomology profile over the regular representation:
  (Z2, B2, H2) = (4, 2, 2): 8 tables
  (Z2, B2, H2) = (4, 3, 1): 24 tables
  (Z2, B2, H2) = (4, 4, 0): 100 tables
  (Z2, B2, H2) = (5, 3, 2): 76 tables
  (Z2, B2, H2) = (6, 2, 4): 8 tables
  (Z2, B2, H2) = (8, 0, 8): 1 tables
tables with H2 = 0 (rigid): 100
"""


@pytest.mark.parametrize("script, expected", [
    ("rigidity_demo.py", RIGIDITY),
    ("survey_corpus.py", SURVEY),
])
def test_script_output(script, expected):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.sub(r" \(\d+\.\d+s\)", "", done.stdout) == expected
