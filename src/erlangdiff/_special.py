"""The special functions: scipy's xsf ufuncs, and the normal quantiles.

``gammaln``, ``log_ndtr``, ``erfcx`` and ``ndtr`` are the ``scipy.special``
objects themselves, bound on the first lookup of each name and stored in
this module's globals.  They are ufuncs of scipy's compiled xsf extension
``scipy.special._special_ufuncs``, which is loaded alone and registered in
``sys.modules``, so a later ``import scipy.special`` reuses it.  The package
``__init__`` (array_api_compat and every lazy numpy submodule, about 24 MB
and 0.2 s) runs only where the extension is not found.  A caller that
imports ``scipy.special`` after any command finds no package attribute
``_special_ufuncs``, since the import system sets it only when it loads the
submodule itself; ``from scipy.special import _special_ufuncs`` works.

``ndtri`` and ``ndtri_exp``, which the extension lacks, are transcribed from
Cephes ``ndtri.c`` (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, 1989) and scipy's ``ndtri_exp``, with their constants and their
order of operations.  Their logarithms come from libm through ``math.log``,
as in the compiled code, so they return ``scipy.special``'s bits.
"""

import math
import os
import sys
import threading
from importlib import machinery, util

import numpy as np

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
    module = _xsf()
    if module is None:
        import scipy.special as module
    value = getattr(module, name)
    globals()[name] = value
    return value


_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# each Q table omits its leading coefficient, 1 (Cephes p1evl)
# ndtri(1/2 + y) = sqrt(2 pi) (y + y^3 P0(y^2)/Q0(y^2)) for |y| <= 3/8
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# the tail correction z P(z)/Q(z), z = 1/x, x = sqrt(-2 log p): P1/Q1 for
# 2 <= x < 8 (exp(-32) < p <= exp(-2)), P2/Q2 for 8 <= x
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_LOG1M_EXP_M2 = math.log1p(-math.exp(-2.0))  # log(1 - exp(-2))


def _polevl(x, coef, monic=False):
    """Horner's rule, highest power first; ``monic`` puts a leading
    coefficient of 1 before ``coef`` (Cephes ``p1evl``, else ``polevl``)."""
    out = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _log(a):
    """Elementwise libm log of a 1-d array (``np.log`` can differ in the last
    bit)."""
    return np.fromiter(map(math.log, memoryview(a)), float, a.size)


def _tail(x):
    """x - log(x)/x - z P(z)/Q(z), z = 1/x, for an array x = sqrt(-2 log p)
    >= 2: minus the normal quantile of p <= exp(-2)."""
    z = 1.0 / x
    near = z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True)
    far = z * _polevl(z, _P2) / _polevl(z, _Q2, monic=True)
    return (x - _log(x) / x) - np.where(x < 8.0, near, far)


def ndtri(p):
    """The standard normal quantile of p, elementwise: -inf at 0, inf at 1,
    nan outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    out = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    inside = (p > 0.0) & (p < 1.0)
    upper = inside & (p > 1.0 - _EXP_M2)
    y = np.where(upper, 1.0 - p, p)
    mid = inside & (y > _EXP_M2)
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0, monic=True))) * _S2PI
    tail = inside & ~mid
    t = _tail(np.sqrt(-2.0 * _log(y[tail])))
    out[tail] = np.where(upper[tail], t, -t)
    return out[()]


def ndtri_exp(y: float) -> float:
    """The x with log Phi(x) = y, a scalar y <= 0; nan above 0."""
    if y < -sys.float_info.max:
        return -math.inf
    if y < -2.0:
        if y >= -0.5 * sys.float_info.max:
            x = math.sqrt(-2.0 * y)
        else:
            x = math.sqrt(2.0) * math.sqrt(-y)
        return -float(_tail(np.array([x]))[0])
    if y > 0.0:  # ndtri(-expm1(y)) is nan, and math.expm1 can overflow
        return math.nan
    if y > _LOG1M_EXP_M2:
        return -float(ndtri(-math.expm1(y)))
    return float(ndtri(math.exp(y)))
