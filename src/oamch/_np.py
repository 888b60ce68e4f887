"""numpy, loaded on first use.

The closed-form layer (`probe`, `ch`, config parsing, `--help`) is pure
`math`/`cmath`; only the array paths (the scan, the quadrature oracles and
the Monte Carlo sampler) need numpy.  The modules take `np` from here, so
importing them does not load numpy: the module is created at import and
executed on its first attribute access.
"""

from __future__ import annotations

import importlib.util
import sys


def _numpy():
    """numpy when it is already imported, else a module that loads on first use."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _numpy()
