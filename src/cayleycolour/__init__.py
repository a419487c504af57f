"""Colouring rules on Cayley balls: constructive solvers and exact density audits."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The package module `name`, compiled and executed on its first
    attribute read rather than now (the standard library's `LazyLoader`).

    A module already in `sys.modules`, imported or lazy, is returned as it
    is: `importlib.util.find_spec` would read its `__spec__` and so load it.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module
