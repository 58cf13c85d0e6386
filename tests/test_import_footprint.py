"""``import swapnas`` loads nothing beyond the standard library but numpy.

The benchmark's ``setup_s`` times a fresh interpreter that imports the
package, so every module the import pulls in is start-up cost.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import swapnas
after = {name.partition(".")[0] for name in sys.modules}
print(" ".join(sorted(after - before - set(sys.stdlib_module_names))))
"""


def test_import_adds_only_numpy_beyond_the_standard_library(tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert set(probe.stdout.split()) <= {"numpy", "swapnas"}
    assert "swapnas" in probe.stdout.split()
