"""Intensity models, hazard and survival transforms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimflow import (
    ConfigurationError,
    ConstantIntensity,
    GridRangeError,
    IntensityPath,
    LogOUIntensity,
    PiecewiseConstantIntensity,
    TimeGrid,
    simulate_intensity_path,
)
from claimflow.grids import DEFAULT_STEP
from claimflow.intensity import (
    _SPAN,
    _hazard_chunk_rows,
    draw_hazard_chunks,
    trapezoid_hazard,
)
#: Paths per part of ``draw_hazard_chunks`` on the yearly daily grid (179).
_CHUNK = _hazard_chunk_rows(TimeGrid.regular(1.0))


def _path(model, t_end=2.0, step=DEFAULT_STEP, seed=0):
    return simulate_intensity_path(model, TimeGrid.regular(t_end, step=step), seed=seed)


def test_constant_hazard_values():
    path = _path(ConstantIntensity(1.0))
    assert path.hazard(0.0) == 0.0
    assert path.hazard(2.0) == pytest.approx(2.0, abs=1e-12)
    assert path.survival(1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert path.survival(0.0) == 1.0


def test_piecewise_hazard_exact_integral():
    # rate 1 on [0, 1), rate 3 afterwards: the exact integral to t = 2 is 4.
    model = PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(1.0, 3.0))
    path = _path(model)
    # One trapezoid cell straddles the jump, so the grid value carries a
    # step-sized bias; a 16x finer grid shrinks it accordingly.
    assert path.hazard(2.0) == pytest.approx(4.0, abs=1.5 * DEFAULT_STEP)
    fine = _path(model, step=DEFAULT_STEP / 16)
    assert fine.hazard(2.0) == pytest.approx(4.0, abs=1.5 * DEFAULT_STEP / 16)
    assert path.survival(2.0) == pytest.approx(math.exp(-4.0), abs=1.5 * DEFAULT_STEP)


def test_piecewise_validation():
    with pytest.raises(ConfigurationError):
        PiecewiseConstantIntensity(breakpoints=(1.0, 0.5), rates=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigurationError):
        PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(1.0,))
    with pytest.raises(ConfigurationError):
        PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(1.0, -2.0))


def test_out_of_range_queries():
    path = _path(ConstantIntensity(1.0))
    with pytest.raises(GridRangeError):
        path.hazard(2.5)
    with pytest.raises(GridRangeError):
        path.survival(-0.1)


def test_deterministic_models_ignore_seed():
    grid = TimeGrid.regular(1.0, step=0.25)
    a = simulate_intensity_path(ConstantIntensity(0.5), grid, seed=1)
    b = simulate_intensity_path(ConstantIntensity(0.5), grid, seed=2)
    assert np.array_equal(a.mu, np.full(5, 0.5))
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.gamma, b.gamma)


def test_paths_compare_by_identity_and_are_read_only():
    # Two paths on one grid with different rates are different values; a
    # path's arrays are copies that cannot be written, so nothing derived
    # from them (the pricing memo) can go stale.
    grid = TimeGrid.regular(1.0, step=0.25)
    mu = np.full(5, 0.5)
    slow = simulate_intensity_path(ConstantIntensity(0.5), grid)
    fast = simulate_intensity_path(ConstantIntensity(2.0), grid)
    assert slow != fast and slow == slow
    assert len({slow, fast}) == 2
    path = IntensityPath(grid=grid, mu=mu, gamma=trapezoid_hazard(grid, mu))
    for values in (path.mu, path.gamma):
        with pytest.raises(ValueError):
            values[1] = 7.0
    mu[1] = 7.0
    assert path.mu[1] == 0.5


def test_log_ou_positive_and_seed_sensitive():
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    grid = TimeGrid.regular(1.0)
    seen_diff = 0
    reference = simulate_intensity_path(model, grid, seed=0)
    for seed in range(1, 1000):
        path = simulate_intensity_path(model, grid, seed=seed)
        assert np.all(path.mu > 0.0)
        if not np.array_equal(path.mu, reference.mu):
            seen_diff += 1
    assert seen_diff == 999


def test_log_ou_bitwise_reproducible():
    model = LogOUIntensity(mean_rev=1.0, long_run_log_level=0.2, vol=0.4, init=0.8)
    grid = TimeGrid.regular(1.0)
    a = simulate_intensity_path(model, grid, seed=7)
    b = simulate_intensity_path(model, grid, seed=7)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.gamma, b.gamma)


def test_log_ou_parameter_validation():
    with pytest.raises(ConfigurationError):
        LogOUIntensity(mean_rev=-1.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    with pytest.raises(ConfigurationError):
        LogOUIntensity(mean_rev=1.0, long_run_log_level=0.0, vol=-0.5, init=1.0)
    with pytest.raises(ConfigurationError):
        LogOUIntensity(mean_rev=1.0, long_run_log_level=0.0, vol=0.5, init=0.0)
    model = LogOUIntensity(mean_rev=1.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    with pytest.raises(ConfigurationError, match="stochastic intensity needs a random generator"):
        model.values(TimeGrid.regular(1.0))


def _path_major_log_levels(model, grid, normals):
    """The sequential path-major recursion, step by step: the reference."""
    decay, innov = model.step_params(grid.step)
    n_paths, n_cells = normals.shape
    x = np.empty((n_paths, n_cells + 1))
    x[:, 0] = np.log(model.init)
    b = model.long_run_log_level
    for k in range(n_cells):
        x[:, k + 1] = b + (x[:, k] - b) * decay + innov * normals[:, k]
    return x


def _assert_rounding_close(x, reference):
    # The scan and the recursion round differently.  Each level is a sum
    # of at most n_cells scaled steps, so the two differ by at most
    # n_cells * eps times the largest level, to first order (Higham 2002,
    # Accuracy and Stability of Numerical Algorithms, sec. 4.2).  On the
    # log scale this is the relative difference of the rates.
    assert x.shape == reference.shape
    assert np.array_equal(x[:, 0], reference[:, 0])
    tolerance = reference.shape[1] * np.finfo(float).eps * (1.0 + np.max(np.abs(reference)))
    assert np.max(np.abs(x - reference)) <= tolerance


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_MODELS = [
    LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
    LogOUIntensity(mean_rev=0.0, long_run_log_level=-0.7, vol=0.5, init=2.5),
]


@pytest.mark.parametrize("model", _MODELS, ids=["mean-reverting", "driftless"])
@pytest.mark.parametrize("rows", ["1", "chunk-1", "chunk", "chunk+1", "5000"])
def test_hazard_chunks_match_path_major_reference(model, rows):
    # The scan gives the sequential recursion's levels to rounding;
    # test_drawn_hazard_chunks_equal_one_normals_draw checks the streamed
    # rate and hazard against one call of the scan bit for bit.
    grid = TimeGrid.regular(1.0)
    assert 1 < _CHUNK < 5000
    n_paths = {"1": 1, "chunk-1": _CHUNK - 1, "chunk": _CHUNK, "chunk+1": _CHUNK + 1, "5000": 5000}[rows]
    normals = np.random.default_rng(n_paths).standard_normal((n_paths, grid.n_cells))
    _assert_rounding_close(model.log_level_paths(grid, normals), _path_major_log_levels(model, grid, normals))


_SCAN_CASES = {
    # 2,740 e-folds over the year: the scan runs in blocks of 129 steps.
    "multi-block": LogOUIntensity(mean_rev=1000.0, long_run_log_level=0.3, vol=0.5, init=1.7),
    # 2,740 e-folds per step: no step carries the previous level.
    "width-0": LogOUIntensity(mean_rev=1e6, long_run_log_level=0.3, vol=0.5, init=1.7),
    # 548 e-folds per step, where the decay factor is still a normal float.
    "width-0-normal-decay": LogOUIntensity(mean_rev=2e5, long_run_log_level=0.3, vol=0.5, init=1.7),
    "driftless": LogOUIntensity(mean_rev=0.0, long_run_log_level=0.3, vol=0.5, init=1.7),
    "vol-0": LogOUIntensity(mean_rev=2.0, long_run_log_level=0.7, vol=0.0, init=0.2),
    "vol-0-multi-block": LogOUIntensity(mean_rev=1000.0, long_run_log_level=0.7, vol=0.0, init=0.2),
}


@pytest.mark.parametrize("case", list(_SCAN_CASES))
def test_scan_matches_sequential_recursion(case):
    # Every branch of the scan against the recursion, with numpy warnings
    # raised as errors (pytest's filterwarnings): no scale factor or scaled
    # level overflows or underflows.
    model = _SCAN_CASES[case]
    grid = TimeGrid.regular(1.0)
    rate = model.mean_rev * grid.step
    width = {"multi-block": 129, "width-0": 0, "width-0-normal-decay": 0}.get(case)
    if width is not None:
        assert (rate * grid.n_cells > _SPAN) and int(_SPAN / rate) == width
    normals = np.random.default_rng(3).standard_normal((300, grid.n_cells))
    x = model.log_level_paths(grid, normals)
    _assert_rounding_close(x, _path_major_log_levels(model, grid, normals))
    if width == 0:
        innov = model.step_params(grid.step)[1]
        assert np.array_equal(x[:, 1:], innov * normals + model.long_run_log_level)


@pytest.mark.parametrize("model", _MODELS, ids=["mean-reverting", "driftless"])
@pytest.mark.parametrize("rows", ["1", "chunk-1", "chunk", "2chunk", "2chunk+5"])
def test_drawn_levels_equal_one_normals_draw(model, rows):
    # Normals drawn a few paths at a time into the levels give the rate of
    # one (paths, cells) draw fed to log_level_paths, bit for bit, in parts
    # of at most _CHUNK paths, and leave the generator where the one draw
    # leaves it.
    grid = TimeGrid.regular(1.0)
    n_paths = {"1": 1, "chunk-1": _CHUNK - 1, "chunk": _CHUNK, "2chunk": 2 * _CHUNK,
               "2chunk+5": 2 * _CHUNK + 5}[rows]
    one, streamed = np.random.default_rng(5), np.random.default_rng(5)
    mu = np.exp(model.log_level_paths(grid, one.standard_normal((n_paths, grid.n_cells))))
    seen = np.zeros(n_paths, dtype=int)
    for part, mu_part, _ in draw_hazard_chunks(model, grid, streamed, n_paths):
        assert part.stop - part.start <= _CHUNK
        assert _same_bits(mu_part, mu[part])
        seen[part] += 1
    assert np.all(seen == 1)
    assert streamed.random() == one.random()


@pytest.mark.parametrize("n_paths", [1, 1023, 1024, 2143, 5000])
@pytest.mark.parametrize("source", ["drawn", "normals"])
def test_drawn_hazard_chunks_equal_one_normals_draw(n_paths, source):
    # Levels drawn a few paths at a time, or read from the normals a
    # correlated deflator keeps, give the rate and hazard of one
    # log_level_paths call on one (paths, cells) draw bit for bit, in
    # consecutive parts of at most _CHUNK paths, and leave the generator
    # where that one draw leaves it.
    grid = TimeGrid.regular(1.0)
    for model in _MODELS:
        one = np.random.default_rng(5)
        normals = one.standard_normal((n_paths, grid.n_cells))
        mu = np.exp(model.log_level_paths(grid, normals))
        gamma = trapezoid_hazard(grid, mu)
        streamed = np.random.default_rng(5)
        chunks = draw_hazard_chunks(model, grid, streamed, n_paths,
                                    normals=None if source == "drawn" else normals)
        end = 0
        for part, mu_part, gamma_part in chunks:
            assert part.start == end and 0 < part.stop - part.start <= _CHUNK
            assert _same_bits(mu_part, mu[part])
            assert _same_bits(gamma_part, gamma[part])
            end = part.stop
        assert end == n_paths
        if source == "drawn":
            assert streamed.random() == one.random()
        else:
            assert streamed.random() == np.random.default_rng(5).random()


def test_trapezoid_order_on_smooth_rate():
    # Frozen (zero-vol) exponential-OU rate is smooth, so halving the step
    # divides the hazard error by about four.
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=math.log(2.0), vol=0.0, init=1.0)
    a, b, x0 = 2.0, math.log(2.0), 0.0

    def mu_exact(t):
        return math.exp(b + (x0 - b) * math.exp(-a * t))

    # Reference integral by very fine trapezoid.
    tt = np.linspace(0.0, 1.0, 200_001)
    exact = np.trapezoid([mu_exact(u) for u in tt], tt)

    errs = []
    for divisor in (1, 2):
        path = _path(model, t_end=1.0, step=DEFAULT_STEP / divisor)
        errs.append(abs(path.hazard(1.0) - exact))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    u=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
def test_hazard_survival_consistency(mu, t, u):
    path = _path(ConstantIntensity(mu), t_end=2.0, step=1 / 64)
    lo, hi = sorted((t, u))
    assert path.hazard(hi) >= path.hazard(lo) - 1e-15
    assert path.survival(hi) <= path.survival(lo) + 1e-15
    assert path.survival(t) == pytest.approx(math.exp(-path.hazard(t)), rel=1e-12)
    assert 0.0 < path.survival(t) <= 1.0
