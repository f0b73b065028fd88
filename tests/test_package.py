"""The package's exported names."""

from __future__ import annotations

import types

import onersim


def test_star_import_exports_every_public_name_once():
    # every name the package imports for its users, and __version__; no
    # subpackage and no helper of the package's own module
    namespace: dict = {}
    exec("from onersim import *", namespace)
    namespace.pop("__builtins__")
    public = {
        name for name, value in vars(onersim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(namespace) == public | {"__version__"}
    assert len(onersim.__all__) == len(set(onersim.__all__))
    assert {"propagate", "effective_nqi_series", "SpinSystem", "NUCLEI"} <= set(namespace)
    assert not {"qdyn", "efg", "oner", "spin", "constants"} & set(namespace)
