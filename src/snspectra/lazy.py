"""numpy, loaded on first use.

The explicit-graph modules (``perms``, ``spectrum``, ``bounds``,
``families``, ``search``) take ``np`` from here.  Importing it costs a
module object and no numpy: numpy runs the first time an attribute of
``np`` is read, so the commands that stay on the exact character routes
(``derangements``, ``chartable``, ``table``, ``hoffman``, ``spectrum``
without ``--verify``, ``wopt``) never load it.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _numpy_on_first_use() -> ModuleType:
    """numpy as ``importlib.util.LazyLoader`` defers it, or numpy itself when
    something has imported it already, so that the process holds one copy."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy_on_first_use()
