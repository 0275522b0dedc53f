import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    SPOT_SETS,
    density_for,
    full_grid_pmf,
    pmf_for,
    small_window_params,
    window_params,
)
from erlangdiff import ctmc, metrics
from erlangdiff.ctmc import stationary_pmf
from erlangdiff.diffusion import DiffusionDensity, _ExpPiece, _GaussPiece, build_density
from erlangdiff.ctmc import moment as chain_moment
from erlangdiff.diffusion import moment as diff_moment
from erlangdiff.metrics import (
    Scenario,
    _cdf_antiderivative,
    kolmogorov_distance,
    mean_error,
    moment_error,
    universality_sweep,
    wasserstein_distance,
)
from erlangdiff.model import ModelParams, derive

C_HEAVY = ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0)


class TestKolmogorov:
    def test_erlang_c_bound(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        dk = kolmogorov_distance(dist, density_for(C_HEAVY))
        assert dk <= 188.0 * dist.derived.delta

    def test_erlang_a_finite_ratio(self):
        params = ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0)
        dist = pmf_for(params, 1e-14)
        dk = kolmogorov_distance(dist, density_for(params))
        assert 0.0 < dk < 1.0
        assert np.isfinite(dk / dist.derived.delta)


class TestCellsAcrossKink:
    """A cell that straddles the kink -zeta, where the density changes piece."""

    CASES = [
        ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0),
        ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.5),
        ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
    ]

    @pytest.mark.parametrize("params", CASES)
    def test_cdf_antiderivative(self, params):
        d = density_for(params)
        j = d.switch_point
        u, v = np.array([j - 1.0]), np.array([j + 0.2])
        got = _cdf_antiderivative(d, u, v, np.asarray(d.cdf(u)))[0]
        law = oracles.Law(params)
        oracle = oracles.quad(law.cdf, u[0], v[0], [j], epsabs=0.0, epsrel=1e-13, limit=200)
        assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("params", CASES)
    def test_survival_antiderivative(self, params):
        d = density_for(params)
        j = d.switch_point
        u, v = np.array([j - 1.0]), np.array([j + 0.2])
        got = _cdf_antiderivative(d, u, v, None, np.asarray(d.sf(v)))[0]
        law = oracles.Law(params)
        oracle = oracles.quad(law.sf, u[0], v[0], [j], epsabs=0.0, epsrel=1e-13, limit=200)
        assert -got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("params", CASES)
    def test_inverse_sf(self, params):
        d = density_for(params)
        j = d.switch_point
        u, v = np.full(2, j - 1.0), np.full(2, j + 0.2)
        want = np.array([j - 0.5, j + 0.1])
        t = d.invert_in_cells(u, v, np.asarray(d.sf(v)), np.asarray(d.sf(want)), survival=True)
        assert t == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("params", CASES)
    def test_inverse_cdf(self, params):
        d = density_for(params)
        j = d.switch_point
        u, v = np.full(2, j - 1.0), np.full(2, j + 0.2)
        want = np.array([j - 0.5, j + 0.1])  # one crossing on each side of -zeta
        t = d.invert_in_cells(u, v, np.asarray(d.cdf(u)), np.asarray(d.cdf(want)))
        assert t == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("params", CASES)
    def test_inverse_sf_bisects_where_the_closed_form_misses(self, params, monkeypatch):
        # no input has been seen to reach it: each reflected piece's closed
        # form lands below its cell, so the survival side bisects as the
        # CDF side does
        d = density_for(params)
        j = d.switch_point
        u, v = np.full(2, j - 1.0), np.full(2, j + 0.2)
        level = np.asarray(d.sf(np.array([j - 0.5, j + 0.1])))
        for piece in (_GaussPiece, _ExpPiece):
            monkeypatch.setattr(piece, "invert", lambda self, start, mass: start - 1.0)
        t = d.invert_in_cells(u, v, np.asarray(d.sf(v)), level, survival=True)
        assert np.all((u <= t) & (t <= v))
        assert np.all(np.abs(np.asarray(d.sf(t)) - level) <= 4.0 * np.spacing(level))


def _bisect_200(d, lo, hi, level, survival):
    """The reference: 200 rounds, whether or not a round moves a bracket."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = (d.sf(-mid) if survival else d.cdf(mid)) < level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestBisection:
    @pytest.mark.parametrize(
        "params", [*TestCellsAcrossKink.CASES, ModelParams(lam=0.99, mu=1.0, n=1, alpha=0.0)]
    )
    @pytest.mark.parametrize("survival", [False, True])
    def test_stopping_keeps_the_bits_of_200_rounds(self, params, survival):
        # once a round moves no bracket every later round maps it to
        # itself; seeded brackets of widths 1e-8 to 3, levels inside them
        d = density_for(params)
        rng = np.random.default_rng(3031)
        lo = rng.uniform(*d.tail_points(1e-10), size=200)
        hi = lo + 10.0 ** rng.uniform(-8.0, 0.5, size=200)
        t = lo + rng.uniform(size=200) * (hi - lo)
        if survival:  # brackets in the reflected frame, on -t
            lo, hi, t = -hi, -lo, -t
        level = np.asarray(d.sf(-t) if survival else d.cdf(t))
        got = d._bisect(lo, hi, level, survival)
        assert [x.hex() for x in got] == [x.hex() for x in _bisect_200(d, lo, hi, level, survival)]


class TestWasserstein:
    def test_erlang_c_bound(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        dw = wasserstein_distance(dist, density_for(C_HEAVY))
        assert dw <= 205.0 * dist.derived.delta

    def test_mean_gap_is_lower_bound(self):
        # h(x) = x is 1-Lipschitz, so |E X~ - E Y| <= d_W
        for pars in SPOT_SETS:
            params = ModelParams(*pars)
            dist = pmf_for(params, 1e-14)
            d = density_for(params)
            gap = abs(chain_moment(dist, 1, absolute=False) - diff_moment(d, 1))
            assert gap <= wasserstein_distance(dist, d) * (1 + 1e-12) + 1e-12


class TestLightLoad:
    """The flat cells of light load are about 1/sqrt(R) wide, and the chain
    levels round to 1 below R = 1e-16."""

    @pytest.mark.parametrize(
        "lam", [1e-5, 1e-8, 1e-12, 1e-15, 1e-16, 1e-20, 1e-24, 1e-28, 1e-31, 1e-32]
    )
    def test_wasserstein_matches_mm1_oracle(self, lam):
        d_w = Scenario(ModelParams(lam=lam, mu=1.0, n=1)).d_w
        assert d_w == pytest.approx(float(oracles.mm1_wasserstein(lam)), rel=1e-15, abs=0.0)

    def test_cdf_form_above_survival_delta(self):
        # delta = 31.6 keeps the CDF form, which loses about 2.2e-16 delta per cell
        d_w = Scenario(ModelParams(lam=1e-3, mu=1.0, n=1)).d_w
        assert d_w == pytest.approx(float(oracles.mm1_wasserstein(1e-3)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("lam", [1e-33, 1e-40, 1e-300])
    def test_wasserstein_limit(self, lam, n):
        # the chain sits at x_0 = -sqrt(R) up to mass about R at 1/sqrt(R)
        # and beyond, and the diffusion law is N(0, 1) up to a mass far below
        # 1e-300: d_W = E|Y| = sqrt(2/pi) up to about sqrt(R) <= 1e-16
        d_w = Scenario(ModelParams(lam=lam, mu=1.0, n=n), moment_order=1).d_w
        assert d_w == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15, abs=0.0)


class _DropAtKMax:
    """The chain's own CDF values, except that it reads 0 at x(k_max)."""

    def __init__(self, dist):
        self._dist = dist

    def cdf(self, t):
        return np.where(np.asarray(t) >= self._dist.x_max, 0.0, self._dist.cdf(t))


class TestWindowedDistances:
    """The window's merged flat cell against the full grid's cell-by-cell sum."""

    @staticmethod
    def _pair(params):
        dist = stationary_pmf(params, 1e-12)
        ref = full_grid_pmf(params, 1e-12)
        d = build_density(dist.derived)
        return dist, ref, d

    @settings(max_examples=30, deadline=None)
    @given(params=window_params())
    def test_match_full_grid(self, params):
        dist, ref, d = self._pair(params)
        assert wasserstein_distance(dist, d) == pytest.approx(
            wasserstein_distance(ref, d), rel=1e-9, abs=1e-15
        )
        assert kolmogorov_distance(dist, d) == pytest.approx(
            kolmogorov_distance(ref, d), rel=1e-9, abs=1e-15
        )

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=100.0, mu=1.0, n=250, alpha=1.0),
            ModelParams(lam=100.0, mu=1.0, n=260, alpha=0.5),
        ],
    )
    def test_kink_inside_flat_cell(self, params):
        # the mass ends below n while k_max lies above it, so the flat cell
        # is split at the density's kink x_n = -zeta
        dist, ref, d = self._pair(params)
        assert dist.k_top < params.n < dist.k_max
        assert wasserstein_distance(dist, d) == pytest.approx(
            wasserstein_distance(ref, d), rel=1e-12
        )
        assert kolmogorov_distance(dist, d) == pytest.approx(
            kolmogorov_distance(ref, d), rel=1e-12
        )

    def test_k_max_is_a_kolmogorov_candidate(self):
        # past the window the chain CDF stays at its last value; against a
        # stand-in that matches it on the window and reads 0 at k_max, the
        # gap at that end point (the last CDF value) exceeds every window
        # candidate (one state's mass at most)
        dist = stationary_pmf(ModelParams(lam=4900.0, mu=1.0, n=5000, alpha=0.0), 1e-12)
        last = np.cumsum(dist.pmf)[-1]
        assert dist.k_top < dist.k_max and np.max(dist.pmf) < last
        assert kolmogorov_distance(dist, _DropAtKMax(dist)) == last


class TestBlocks:
    # the distances walk the window ctmc._BLOCK cells at a time; with a small
    # odd block, block edges fall all over the window
    @settings(max_examples=30, deadline=None)
    @given(params=small_window_params(), block=st.integers(1, 20).map(lambda i: 2 * i + 1))
    # k_top < n < k_max: the flat stretch past the window splits at -zeta
    @example(params=ModelParams(lam=100.0, mu=1.0, n=250, alpha=1.0), block=3)
    # a long exponential tail: crossing cells fall back to _bisect
    @example(params=ModelParams(lam=0.98, mu=1.0, n=1, alpha=0.0), block=5)
    # light load (delta = 316 > 100): 7 states in survival form, 3 blocks
    @example(params=ModelParams(lam=1e-5, mu=1.0, n=1, alpha=0.0), block=3)
    # k_top == k_max: no flat stretch, the last state ends the last block
    @example(params=ModelParams(lam=20.0, mu=1.0, n=25, alpha=0.0), block=7)
    def test_blocks_keep_every_bit(self, params, block):
        # the standalone distances and the one-pass pair that distance and
        # sweep print agree, with one block and with many
        dist, d = pmf_for(params), density_for(params)

        def distances():
            cols = Scenario(params, 1e-12).distance_columns()
            pair = [cols["d_w"], cols["d_k"]]
            return [wasserstein_distance(dist, d), kolmogorov_distance(dist, d), *pair]

        one_block = [v.hex() for v in distances()]
        assert one_block[:2] == one_block[2:]
        assert dist.k_top - dist.k_min + 1 < ctmc._BLOCK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_BLOCK", block)
            blocks = [v.hex() for v in distances()]
        assert blocks == one_block

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=99.9, mu=1.0, n=100, alpha=0.0),
            # k_top < n < k_max: the two flat-stretch cells join the last block
            ModelParams(lam=1e6, mu=1.0, n=1_014_000, alpha=1.0),
        ],
    )
    def test_long_double_chain_keeps_every_bit(self, params, monkeypatch):
        # past 20,000 cells the areas are summed in long double, chained
        # from block to block; whole-buffer blocks of any size keep the bits
        dist, d = stationary_pmf(params, 1e-12), build_density(derive(params))
        assert dist.k_top - dist.k_min + 1 > 20_000
        d_w = []
        for block in (8192, 65_536):
            monkeypatch.setattr(ctmc, "_BLOCK", block)
            d_w.append(wasserstein_distance(dist, d).hex())
        assert d_w[0] == d_w[1]

    def test_bisects_only_the_cells_that_need_it(self, monkeypatch):
        # 158 cells cross the diffusion CDF at this load, and the closed-form
        # piece inverse rounds outside its cell in 8 of them
        sizes = []
        bisect = DiffusionDensity._bisect

        def counting(d, lo, hi, level, survival):
            sizes.append(np.size(lo))
            return bisect(d, lo, hi, level, survival)

        monkeypatch.setattr(DiffusionDensity, "_bisect", counting)
        s = Scenario(ModelParams(lam=0.99, mu=1.0, n=1, alpha=0.0))
        assert math.isfinite(s.d_w)
        assert sum(sizes) == 8

    def test_bisection_stops_once_the_brackets_collapse(self, monkeypatch):
        # the 8 cells' brackets stop moving within 45 rounds (one F_Y read
        # each), where 200 always ran, and d_W keeps its bits
        rounds, inside = [], [False]
        bisect, cdf = DiffusionDensity._bisect, DiffusionDensity.cdf

        def counting(d, *args):
            rounds.append(0)
            inside[0] = True
            t = bisect(d, *args)
            inside[0] = False
            return t

        def counted(d, x):
            if inside[0]:
                rounds[-1] += 1
            return cdf(d, x)

        monkeypatch.setattr(DiffusionDensity, "_bisect", counting)
        monkeypatch.setattr(DiffusionDensity, "cdf", counted)
        s = Scenario(ModelParams(lam=0.99, mu=1.0, n=1, alpha=0.0))
        assert s.d_w.hex() == "0x1.d011188a4b0f3p-2"
        assert len(rounds) == 1 and rounds[0] <= 45

    def test_each_cell_is_integrated_once(self, monkeypatch):
        # one cell in six crosses F_Y here: a crossing cell is integrated as
        # its two parts either side of the crossing, never whole, and every
        # other cell once
        cells, crossing, spans = [0], set(), []
        areas, invert = metrics._cell_areas, DiffusionDensity.invert_in_cells
        antiderivative = metrics._cdf_antiderivative

        def counted_areas(d, edges, *args):
            cells[0] += edges.size - 1
            return areas(d, edges, *args)

        def inverted(d, u, v, *args):
            crossing.update(zip(u, v))
            return invert(d, u, v, *args)

        def integrated(d, u, v, *args):
            spans.extend(zip(u, v))
            return antiderivative(d, u, v, *args)

        monkeypatch.setattr(metrics, "_cell_areas", counted_areas)
        monkeypatch.setattr(DiffusionDensity, "invert_in_cells", inverted)
        monkeypatch.setattr(metrics, "_cdf_antiderivative", integrated)
        s = Scenario(ModelParams(lam=3e4, mu=1.0, n=30_100, alpha=1.0))
        assert math.isfinite(s.d_w)
        assert len(crossing) > 0.15 * cells[0]
        assert len(spans) == cells[0] + len(crossing)
        assert not crossing.intersection(spans)


class TestMemory:
    def test_distances_hold_no_window_array(self, monkeypatch):
        # 259,907 states, 63 blocks: the distances build x (with its right
        # edge), the pmf and the running CDF per walk block and sum the cell
        # areas per block, so the peak is a few blocks of scratch (26.1
        # block arrays here), whatever the window length; one window-length
        # array alone (2.1 MB) would break the bound
        s = Scenario(ModelParams(lam=3054430.197, mu=1.0, n=3055375, alpha=0.0))
        dist = s.dist
        s.density
        size = dist.k_top - dist.k_min + 1
        block = 4096
        monkeypatch.setattr(ctmc, "_BLOCK", block)
        tracemalloc.start()
        try:
            s.distance_columns()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 50 * block
        assert peak <= 8 * 28 * block
        assert "pmf" not in dist.__dict__ and "x" not in dist.__dict__


class TestMeanError:
    @pytest.mark.parametrize(
        "lam,n,expected,tol",
        [
            (4.9, 5, 0.28, 0.01),
            (499.0, 500, 0.32, 0.01),
            (3.0, 5, 0.10, 0.01),
        ],
    )
    def test_printed_rows(self, lam, n, expected, tol):
        params = ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0)
        dist = pmf_for(params, 1e-14, 1)
        assert mean_error(dist, density_for(params)) == pytest.approx(expected, abs=tol)

    def test_quality_driven_row_is_tiny(self):
        params = ModelParams(lam=300.0, mu=1.0, n=500, alpha=0.0)
        dist = pmf_for(params, 1e-14, 1)
        assert mean_error(dist, density_for(params)) < 1e-12

    def test_matches_scaled_difference(self):
        params = C_HEAVY
        dist = pmf_for(params, 1e-14, 1)
        d = density_for(params)
        scaled = abs(chain_moment(dist, 1, absolute=False) - diff_moment(d, 1))
        assert mean_error(dist, d) == pytest.approx(
            math.sqrt(dist.derived.R) * scaled, rel=1e-10
        )


class TestMomentError:
    def test_table3_row(self):
        params = ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0)
        dist = pmf_for(params, 1e-14, 2)
        rep = moment_error(dist, density_for(params), 2)
        assert rep["diff_m"] == pytest.approx(1.59, rel=0.02)
        assert rep["zeta_scaled"] == pytest.approx(7.10e-2, rel=0.02)

    def test_tenth_moment_row(self):
        params = ModelParams(lam=490.0, mu=1.0, n=500, alpha=0.0)
        dist = pmf_for(params, 1e-14, 10)
        rep = moment_error(dist, density_for(params), 10)
        assert rep["diff_m"] == pytest.approx(7.01e8, rel=0.05)

    def test_first_moment_consistency(self):
        params = C_HEAVY
        dist = pmf_for(params, 1e-14, 1)
        d = density_for(params)
        rep = moment_error(dist, d, 1)
        assert rep["diff_m"] == pytest.approx(
            mean_error(dist, d) / math.sqrt(dist.derived.R), rel=1e-10
        )
        assert rep["zeta_scaled"] == pytest.approx(rep["diff_m"], rel=1e-14)


class TestDistanceReport:
    @pytest.mark.parametrize("pars", SPOT_SETS)
    def test_dwdk_relation(self, pars):
        cols = Scenario(ModelParams(*pars)).distance_columns()
        assert cols["dwdk_ok"]
        assert cols["d_w"] >= 0.0
        assert 0.0 <= cols["d_k"] <= 1.0

    def test_deep_overload_stays_finite(self):
        # junction 200 scaled units left of the mode: the left piece carries
        # ~exp(-2000) of mass (the bisection fallback is covered by TestBlocks)
        cols = Scenario(ModelParams(lam=1200.0, mu=1.0, n=500, alpha=0.1), 1e-12).distance_columns()
        assert np.isfinite(cols["d_w"]) and np.isfinite(cols["d_k"])
        assert cols["dwdk_ok"]

    def test_bounds_only_for_erlang_c(self):
        cols_c = Scenario(C_HEAVY).distance_columns()
        assert cols_c["bound_w"] == pytest.approx(205.0 * cols_c["delta"])
        cols_a = Scenario(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0)).distance_columns()
        assert cols_a["bound_w"] is None and cols_a["bound_k"] is None


class TestUniversalitySweep:
    def test_qed_erlang_c(self):
        rows = universality_sweep("qed", [4.0, 25.0, 100.0, 400.0], 1.0)
        assert [r["R"] for r in rows] == [4.0, 25.0, 100.0, 400.0]
        assert all(r["dw_over_delta"] <= 205.0 for r in rows)
        assert all(r["within_bounds"] for r in rows)

    def test_nds_erlang_c(self):
        rows = universality_sweep("nds", [4.0, 25.0, 100.0, 400.0], 1.0)
        assert all(r["dk_over_delta"] <= 188.0 for r in rows)

    def test_qd_erlang_a_recorded(self):
        rows = universality_sweep("qd", [4.0, 16.0, 64.0], 0.5, alpha_over_mu=1.0)
        ratios = [r["dw_over_delta"] for r in rows]
        assert all(np.isfinite(ratios))
        assert max(ratios) < 205.0  # bounded well under the Erlang-C constant

    def test_staffing_formulas(self):
        rows = universality_sweep("qd", [10.0], 0.5)
        assert rows[0]["n"] == 15
        rows = universality_sweep("qed", [100.0], 2.0)
        assert rows[0]["n"] == 120
        rows = universality_sweep("nds", [10.0], 1.5)
        assert rows[0]["n"] == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            universality_sweep("foo", [4.0], 1.0)
        with pytest.raises(ValueError):
            universality_sweep("qed", [4.0], 0.0)

    def test_erlang_c_needs_n_above_r(self):
        # n = ceil(4 + 4e-20) = 4: the slack rounds away, and Erlang-C needs n > R
        with pytest.raises(ValueError, match="staffs n=4 <= R=4.0; Erlang-C requires n > R"):
            universality_sweep("qd", [4.0], 1e-20)

    @pytest.mark.parametrize(
        "sizes, beta, value",
        [([math.inf], 1.0, "inf"), ([4.0, math.nan], 1.0, "nan"), ([4.0], math.inf, "inf"),
         ([4.0], math.nan, "nan"), ([4.0, -1.0], 1.0, "-1.0")],
    )
    def test_non_finite_or_negative_inputs_named(self, sizes, beta, value):
        with pytest.raises(ValueError, match=f"finite and positive, got {value}$"):
            universality_sweep("qed", sizes, beta)
