"""The public names: each module's ``__all__`` and what the package re-exports."""

import importlib
import pkgutil
import types

import pytest

import spikegrad

MODULES = [importlib.import_module(f"spikegrad.{info.name}") for info in pkgutil.iter_modules(spikegrad.__path__)]
LISTING_MODULES = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", LISTING_MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_only_listed_names():
    listed = {name for module in LISTING_MODULES for name in module.__all__}
    exported = {
        name
        for name, value in vars(spikegrad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - listed) == []


# the modules the package re-exports; config, gradcheck and cli stay behind their module names
RE_EXPORTED = ("neuron", "surrogate", "codec", "objectives", "bptt", "online", "spikeprop", "plasticity", "events", "tasks")


@pytest.mark.parametrize("name", RE_EXPORTED)
def test_package_exports_every_listed_name(name):
    module = importlib.import_module(f"spikegrad.{name}")
    assert [n for n in module.__all__ if getattr(spikegrad, n, None) is not getattr(module, n)] == []
