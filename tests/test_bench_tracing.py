"""The bench tracer (``bench/tracing.py``) rebinds boxlab's functions by name, so
deleting or renaming a traced name, such as ``evaluation.iou`` or
``average_precision``, breaks traced bench runs. This suite is the one that
collects ``tests/``, so the check runs here too.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_package_sources():
    # A fresh interpreter: install rebinds names in every loaded boxlab module.
    code = (
        "import pathlib, boxlab, tracing\n"
        f"assert pathlib.Path(boxlab.__file__).parent == pathlib.Path({str(ROOT / 'src' / 'boxlab')!r})\n"
        "tracing.install(tracing.Tracer())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
