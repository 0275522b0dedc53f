"""The ``scipy.special`` ufuncs, each bound on the first lookup of its name.

``special.gammaln`` and the like are the scipy objects themselves, stored in
this module's globals at the first lookup.  ``gammaln``, ``log_ndtr``,
``erfcx`` and ``ndtr`` are ufuncs of scipy's compiled xsf extension
``scipy.special._special_ufuncs``, which is loaded alone and registered in
``sys.modules``, so a later ``import scipy.special`` reuses it; the package
``__init__`` (array_api_compat and every lazy numpy submodule, about 24 MB
and 0.2 s) runs only for a name the extension lacks, ``ndtri`` and
``ndtri_exp``, or where the extension is not found.
"""

import os
import sys
import threading
from importlib import machinery, util

_XSF = "scipy.special._special_ufuncs"
_LOAD = threading.Lock()


def _xsf():
    """The xsf extension module, loaded once, or None where it is not found."""
    with _LOAD:
        if _XSF not in sys.modules:
            scipy = util.find_spec("scipy")  # a top-level name: imports nothing
            if scipy is None or not scipy.submodule_search_locations:
                return None
            where = os.path.join(scipy.submodule_search_locations[0], "special")
            loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
            spec = machinery.FileFinder(where, loaders).find_spec(_XSF)
            if spec is None:
                return None
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_XSF] = module
        return sys.modules[_XSF]


def __getattr__(name: str):
    if name.startswith("__"):  # dunder probes (__all__, __path__, ...) load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_xsf(), name, None)
    if value is None:
        import scipy.special

        value = getattr(scipy.special, name)
    globals()[name] = value
    return value
