"""Every name the package and its modules export resolves, and importing the
package pulls in nothing beyond numpy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mbb_sdp


def test_every_exported_name_resolves():
    modules = [mbb_sdp] + [
        importlib.import_module(f"mbb_sdp.{info.name}")
        for info in pkgutil.iter_modules(mbb_sdp.__path__)
        if info.name != "__main__"  # running it starts the CLI
    ]
    assert len(modules) > 1
    for module in modules:
        exported = getattr(module, "__all__", None)
        assert exported, f"{module.__name__} has no __all__"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test session loaded do not count
    package_root = str(Path(mbb_sdp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = "import sys, mbb_sdp, mbb_sdp.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
