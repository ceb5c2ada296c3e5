"""Every name in a cole_lab module's __all__ resolves, so trimming an API
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import cole_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cole_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"cole_lab.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"cole_lab.{name}.__all__ names {missing}"
