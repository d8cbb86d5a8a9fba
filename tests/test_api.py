"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

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
