"""numpy is the only runtime dependency: importing every voxcodec module in a
fresh interpreter loads no top-level package outside the standard library,
numpy and voxcodec itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import voxcodec

# modules loaded before voxcodec (site hooks, editable-install finders) are
# the interpreter's, not voxcodec's, and are left out
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import voxcodec
names = sorted(m.name for m in pkgutil.iter_modules(voxcodec.__path__))
for name in names:
    importlib.import_module("voxcodec." + name)
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps({"modules": names,
                  "outside": sorted(loaded - set(sys.stdlib_module_names))}))
"""


def test_every_module_loads_only_numpy_outside_the_standard_library():
    src = str(Path(voxcodec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    report = json.loads(proc.stdout)
    assert {"cli", "codec", "entropy", "rangecoder", "weights"} <= set(report["modules"])
    assert set(report["outside"]) == {"numpy", "voxcodec"}
