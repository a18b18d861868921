import doctest
import os
import subprocess
import sys
from pathlib import Path

import isomon


def test_import_isomon_loads_only_the_algebra():
    # the harness, and with it numpy and multiprocessing, loads with the
    # ``isomon`` command or ``isomon.harness``, never with the package root
    heavy = ("numpy", "multiprocessing", "isomon.harness", "isomon.cli")
    code = f"import sys, isomon; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(isomon.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_readme_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
