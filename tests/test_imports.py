"""The package's runtime dependencies: the standard library and numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import sys
before = set(sys.modules)
import cechkit, cechkit.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_import_loads_only_numpy_beyond_the_standard_library():
    # A fresh interpreter, so modules the test run has loaded do not hide
    # an import; what site loaded before `import cechkit` is not counted.
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert set(out.split()) == {"cechkit", "numpy"}
