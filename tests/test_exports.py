"""Every module's public surface resolves, so a stale ``__all__`` entry fails here."""
import importlib
import pkgutil

import pytest

import twistor_spectra

MODULES = ["twistor_spectra"] + [f"twistor_spectra.{m.name}"
                                 for m in pkgutil.iter_modules(twistor_spectra.__path__)]


def test_every_module_is_listed():
    assert {"twistor_spectra.exact", "twistor_spectra.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
