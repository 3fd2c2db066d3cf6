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
    stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK wrapper {stem}* is missing")


ztbtrs = _flapack().ztbtrs
