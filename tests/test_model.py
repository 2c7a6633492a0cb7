import math

import numpy as np
import pytest

from mrbsde.model import (DRIVER_KINDS, LIPSCHITZ, QUADRATIC,
                          QUADRATIC_DRIVER_KINDS, DriverSpec, LossSpec, ModeError,
                          ResistanceSpec, ScenarioSpec, brownian_terminal,
                          hl_constant, linear_shift_loss, linear_y_driver,
                          quadratic_z_driver, scaled_tanh_terminal,
                          sine_perturbed_loss, validate_assumptions, zero_driver)
from mrbsde.paths import make_grid
from mrbsde.scenarios import get, registry


def _plain_scenario(driver, loss=None):
    return ScenarioSpec(name="probe", horizon=1.0, brownian_dim=1,
                        terminal=brownian_terminal(), driver=driver,
                        resistance=ResistanceSpec("zero"),
                        loss=loss or linear_shift_loss())


def test_zero_driver_probes_vanish():
    report = validate_assumptions(_plain_scenario(zero_driver()), probes=64, seed=0)
    assert report.worst("driver_lipschitz") == 0.0
    assert report.passed


def test_running_sup_saturates_lipschitz_bound():
    res = ResistanceSpec("running_sup")
    grid = make_grid(1.0, 4)
    y = np.zeros(5)
    ybar = np.full(5, 0.5)
    gap = np.abs(res.apply(grid, y) - res.apply(grid, ybar))
    assert np.allclose(gap[1:], 0.5)   # equals the sup distance: ratio one


def test_scaled_integral_is_adapted_and_lipschitz():
    res = ResistanceSpec("scaled_integral")
    grid = make_grid(2.0, 8)
    rng = np.random.default_rng(5)
    k = rng.uniform(-1, 1, 9)
    g = res.apply(grid, k)
    assert g[0] == 0.0
    pert = k.copy()
    pert[5:] += 3.0
    assert np.array_equal(res.apply(grid, pert)[:5], g[:5])
    other = rng.uniform(-1, 1, 9)
    gap = np.abs(g - res.apply(grid, other))
    sup = np.maximum.accumulate(np.abs(k - other))
    assert np.all(gap <= sup + 1e-15)


def test_sine_perturbed_slopes_within_bilipschitz_band():
    loss = sine_perturbed_loss(0.5)
    y = np.linspace(-12.0, 12.0, 4001)
    vals = loss.evaluate(0.3, y)
    slopes = np.diff(vals) / np.diff(y)
    assert slopes.min() >= 0.5 - 1e-6
    assert slopes.max() <= 1.5 + 1e-6


def test_hl_constant_values():
    assert hl_constant(linear_shift_loss(c0=0.1)) == 1.0
    assert hl_constant(sine_perturbed_loss(0.5)) == pytest.approx(3.0, abs=1e-12)
    loss = LossSpec(kind="linear_shift", params=(0.0, 0.0, 0.0),
                    lip_lower=0.7, lip_upper=0.7)
    assert hl_constant(loss) == 1.0


def test_loss_constructor_rejects_bad_constants():
    with pytest.raises(ValueError):
        LossSpec(kind="linear_shift", params=(0.0, 0.0, 0.0),
                 lip_lower=0.0, lip_upper=1.0)
    with pytest.raises(ValueError):
        sine_perturbed_loss(1.2)
    # the linear family's constants have no range check that a NaN would fail
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            linear_shift_loss(c0=bad)
        with pytest.raises(ValueError, match="finite"):
            linear_shift_loss(amp=1.0, omega=bad)


def test_mode_contradiction_rejected():
    with pytest.raises(ModeError):
        DriverSpec(kind="quadratic_z", mode=LIPSCHITZ, lam=1.0,
                   params=(0.1, 0.2, 10.0, 0.1))


def test_quadratic_mode_requires_bounds():
    with pytest.raises(ValueError):
        DriverSpec(kind="zero", mode=QUADRATIC, lam=0.5)
    # lam = 0 would leave the ball radius and both horizons undefined
    with pytest.raises(ValueError, match="lam > 0"):
        DriverSpec(kind="zero", mode=QUADRATIC, lam=0.0, zero_bound=1.0)
    drv = DriverSpec(kind="zero", mode=QUADRATIC, lam=0.5, zero_bound=1.0)
    with pytest.raises(ModeError):
        _plain_scenario(drv)   # unbounded terminal in quadratic mode


# one driver per family, every parameter nonzero so every term is live
AFFINE_PROBE_PARAMS = {"zero": (), "constant": (0.7,), "linear_y": (-0.6,),
                       "linear_mean": (0.5,), "mean_resist": (0.4, -0.9),
                       "quadratic_z": (0.3, 0.2, 5.0, 0.1)}


@pytest.mark.parametrize("kind", DRIVER_KINDS)
def test_every_driver_is_affine_in_y(kind):
    # the deflated solve's closed-form implicit node step relies on
    # f(t, y1, ...) - f(t, y0, ...) = y_slope (y1 - y0)
    quadratic = kind in QUADRATIC_DRIVER_KINDS
    drv = DriverSpec(kind=kind, mode=QUADRATIC if quadratic else LIPSCHITZ,
                     lam=1.0, zero_bound=1.0 if quadratic else None,
                     params=AFFINE_PROBE_PARAMS[kind])
    rng = np.random.default_rng(17)
    m, d = 64, 2
    for _ in range(20):
        t, ybar, g = rng.uniform(0.0, 1.0), rng.normal(), rng.normal()
        z, zbar = rng.normal(size=(m, d)), rng.normal(size=d)
        y0, y1 = rng.normal(scale=3.0, size=(2, m))
        gap = (drv.evaluate(t, y1, ybar, z, zbar, g)
               - drv.evaluate(t, y0, ybar, z, zbar, g))
        assert np.max(np.abs(gap - drv.y_slope * (y1 - y0))) <= 1e-12


def test_scenario_spec_guards():
    with pytest.raises(ValueError):
        ScenarioSpec(name="bad", horizon=-1.0, brownian_dim=1,
                     terminal=brownian_terminal(), driver=zero_driver(),
                     resistance=ResistanceSpec("zero"), loss=linear_shift_loss())
    with pytest.raises(ValueError):
        ScenarioSpec(name="bad", horizon=1.0, brownian_dim=0,
                     terminal=brownian_terminal(), driver=zero_driver(),
                     resistance=ResistanceSpec("zero"), loss=linear_shift_loss())
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ScenarioSpec(name="bad", horizon=bad, brownian_dim=1,
                         terminal=brownian_terminal(), driver=zero_driver(),
                         resistance=ResistanceSpec("zero"), loss=linear_shift_loss())
        with pytest.raises(ValueError, match="finite"):
            linear_y_driver(bad)
        with pytest.raises(ValueError, match="finite"):
            quadratic_z_driver(a=0.1, gamma=0.2, z_cap=bad, b=0.0, zero_bound=1.0)
        with pytest.raises(ValueError, match="finite"):
            scaled_tanh_terminal(bad)


def test_probes_must_be_positive():
    with pytest.raises(ValueError):
        validate_assumptions(_plain_scenario(zero_driver()), probes=0, seed=0)


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_every_builtin_scenario_validates(entry):
    report = validate_assumptions(entry.spec, probes=300, seed=0)
    for check in report.checks:
        assert check.passed, f"{entry.name}: {check.name} ratio {check.worst_ratio}"
        if math.isfinite(check.worst_ratio):
            assert check.worst_ratio <= 1.0 + 1e-9


def test_linear_y_driver_probe_saturates():
    spec = _plain_scenario(linear_y_driver(0.4))
    report = validate_assumptions(spec, probes=200, seed=3)
    assert report.passed
    assert report.worst("driver_lipschitz") <= 1.0 + 1e-12


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_hl_constant_at_least_one(beta):
    # construction enforces lip_lower <= lip_upper, so the ratio is >= 1
    assert hl_constant(sine_perturbed_loss(beta)) >= 1.0


def test_quadratic_probe_capped_driver():
    drv = quadratic_z_driver(a=0.05, gamma=0.1, z_cap=1e3, b=0.02, zero_bound=1.0)
    spec = ScenarioSpec(name="q", horizon=0.5, brownian_dim=2,
                        terminal=get("D_quadratic").spec.terminal,
                        driver=drv, resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss(c0=-0.5))
    report = validate_assumptions(spec, probes=400, seed=11)
    assert report.passed
