"""Relations that hold between scenarios, whatever the exact values.

With alpha = mu (M/M/infinity) the chain is Poisson(R) and the diffusion
law N(0, 1) at every n, so nothing may depend on n and the moments and the
density's supremum are the closed forms in ``oracles``.  Every layer
works per unit mu, so a set (lam, mu, n, alpha) prints the bits of its twin
(lam/mu, 1, n, alpha/mu), each ratio rounded once.
"""

import pytest

import oracles
from erlangdiff import report
from erlangdiff.ctmc import moment as chain_moment
from erlangdiff.ctmc import stationary_pmf
from erlangdiff.diffusion import density_sup_check
from erlangdiff.diffusion import moment as diff_moment
from erlangdiff.metrics import Scenario, mean_error
from erlangdiff.model import ModelParams


@pytest.mark.parametrize(
    "lam, ns",
    [(1e-3, (1, 2, 5)), (0.1, (1, 2, 5)), (12.0, range(1, 201))],
    ids=["lam1e-3", "lam0.1", "lam12"],
)
def test_alpha_equal_to_mu_does_not_depend_on_n(lam, ns):
    first = Scenario(ModelParams(lam=lam, mu=1.0, n=1, alpha=1.0))
    # the Poisson(R) chain's third and fourth scaled central moments
    higher = ((3, lam**-0.5, 0.0), (4, 3.0 + 1.0 / lam, 3.0))
    for n in ns:
        params = ModelParams(lam=lam, mu=1.0, n=n, alpha=1.0)
        s = Scenario(params, moment_order=2)
        dist, d = s.dist, s.density
        assert s.d_w == pytest.approx(first.d_w, rel=0.0, abs=5e-14)
        assert s.d_k == pytest.approx(first.d_k, rel=0.0, abs=5e-14)
        assert mean_error(dist, d) == pytest.approx(0.0, abs=5e-14)
        sup = density_sup_check(d).observed
        assert sup == pytest.approx(oracles.MMINF_DENSITY_SUP, rel=1e-15, abs=0.0)
        for m, want in enumerate(oracles.MMINF_MOMENTS, start=1):
            assert chain_moment(dist, m, absolute=False) == pytest.approx(want, abs=5e-14)
            assert diff_moment(d, m) == pytest.approx(want, abs=5e-14)
        dist4 = stationary_pmf(params, moment_order=4)
        for m, chain, normal in higher:
            assert chain_moment(dist4, m, absolute=False) == pytest.approx(chain, rel=5e-14)
            assert diff_moment(d, m) == pytest.approx(normal, abs=5e-14)


def _bits(params: ModelParams) -> list:
    """The distance row without its rate columns and every verify row,
    floats by ``float.hex``."""
    row = report.run_distance(params)[0]
    out = [
        float(v).hex() if isinstance(v, float) else v
        for k, v in row.items()
        if k not in ("lam", "mu", "alpha")
    ]
    for suite, checks in report.run_verify(params)["suites"]:
        out += [(suite, ch.name, float(ch.observed).hex(), float(ch.bound).hex()) for ch in checks]
        out += [ch.satisfied for ch in checks]
    return out


@pytest.mark.parametrize(
    "lam, mu, n, alpha",
    [(12.0 * c, c, 5, 2.0 * c) for c in (2.0, 0.5, 3.0, 1e3, 1e-200)]
    + [(3.4, 0.7, 5, 0.3), (3.4, 0.7, 5, 0.0)],
)
def test_rate_scaling_keeps_every_bit(lam, mu, n, alpha):
    twin = ModelParams(lam=lam / mu, mu=1.0, n=n, alpha=alpha / mu)
    assert _bits(ModelParams(lam=lam, mu=mu, n=n, alpha=alpha)) == _bits(twin)
