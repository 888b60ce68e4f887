"""numpy, loaded on first use.

The closed-form layer (`probe`, `ch`, `scan`, config parsing, `--help`) is
pure `math`/`cmath`, and `mc` draws its counts with the stdlib sampler in
`_pcg64`; only the quadrature oracles, and so `validate`, need numpy.  The
modules take `np` from here, so importing them neither loads numpy nor
looks for it: `np` is an empty module that finds numpy and executes it
into itself on its first missing attribute, and only then raises
`ModuleNotFoundError` if numpy is absent.
"""

from __future__ import annotations

import importlib.util
import sys
import types


class _Numpy(types.ModuleType):
    """numpy's module object before numpy has run."""

    def __getattr__(self, name: str):
        if sys.modules.get("numpy") is self:
            del sys.modules["numpy"]  # so that find_spec searches the path
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        vars(self).update(vars(importlib.util.module_from_spec(spec)))
        self.__class__ = types.ModuleType
        sys.modules["numpy"] = self
        try:
            spec.loader.exec_module(self)
        except BaseException:
            del sys.modules["numpy"]
            raise
        return getattr(self, name)


def _numpy():
    """numpy when it is already imported, else a module that loads it on first use."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    module = _Numpy("numpy")
    # a later `import numpy` then finds this module; a None entry that blocks
    # numpy stays, and find_spec then reports numpy missing
    sys.modules.setdefault("numpy", module)
    return module


np = _numpy()
