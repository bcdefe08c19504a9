"""The package namespace."""

from __future__ import annotations

import importlib
import pkgutil

import padicpowers


def test_package_exports_every_submodule_name():
    # cli is the command-line frontend, not part of the library
    for info in pkgutil.iter_modules(padicpowers.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"padicpowers.{info.name}")
        missing = set(getattr(module, "__all__", ())) - set(padicpowers.__all__)
        assert not missing, f"{info.name}: {sorted(missing)}"
