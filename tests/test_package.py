import importlib

import sectordra

MODULES = ("specfun", "modal", "fields", "oracle", "sar", "design")


def test_package_exports_every_module_name():
    # each module's __all__ is the one list of its public names, and the
    # package re-exports every one of them, each once
    names = ["__version__"]
    for name in MODULES:
        module = importlib.import_module(f"sectordra.{name}")
        for public in module.__all__:
            assert getattr(sectordra, public) is getattr(module, public)
        names += module.__all__
    assert sorted(sectordra.__all__) == sorted(names) == sorted(set(names))
    assert isinstance(sectordra.__version__, str)
