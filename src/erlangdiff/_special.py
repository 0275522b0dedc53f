"""The ``scipy.special`` ufuncs, imported on the first lookup of a name.

``special.gammaln`` and the like are the scipy objects themselves.  The
first lookup imports ``scipy.special`` and stores the ufunc in this module's
globals, so every later lookup is a plain attribute read; a command that
never evaluates a special function never imports scipy.
"""


def __getattr__(name: str):
    if name.startswith("__"):  # dunder probes (__all__, __path__, ...) load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    value = globals()[name] = getattr(scipy.special, name)
    return value
