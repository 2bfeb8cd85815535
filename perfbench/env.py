"""Process set-up shared by the benchmark's entry points; import it first.

Pins BLAS/OpenMP to one thread before numpy is imported (with default
threads the ATAE forward swings between 5 and 24 ms from run to run) and
puts the checkout's ``src`` first on ``sys.path`` so the benchmark always
measures the code next to it, never an installed copy.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"  # generated inputs and outputs; removed after each run
sys.path.insert(0, str(ROOT / "src"))
