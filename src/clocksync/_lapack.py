"""``ztbtrs`` from scipy's compiled LAPACK wrapper, loaded without the
``scipy.linalg`` package, whose init imports scipy's array API layer
and with it ``numpy.testing``, ``numpy.f2py``, ``numpy.ma`` and
``numpy.polynomial``, none of which the engine uses.  The wrapper is
loaded under its own name, so a later ``import scipy.linalg`` finds the
same module.  Imported on a command's first stepped chunk; the import
lock loads it once when two threads get there together.
"""

import importlib.machinery
import importlib.util
import os

import scipy  # runs a packaged build's distributor init (BLAS set-up)


def _flapack():
    path = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    [path])
    if spec is None:
        raise ImportError(f"scipy's LAPACK wrapper {path}/_flapack* is "
                          "missing")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ztbtrs = _flapack().ztbtrs
