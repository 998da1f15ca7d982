import os
import subprocess
import sys
from pathlib import Path

import fvc


def test_import_does_not_load_scipy_signal():
    # importing scipy.signal costs about a second and tens of MB at start-up
    src = str(Path(fvc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, fvc; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"
