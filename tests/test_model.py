import dataclasses
import math

import numpy as np
import pytest

from mrbsde.model import (DRIVER_KINDS, DriverSpec, LossSpec, ModeError,
                          ResistanceSpec, ScenarioSpec, TerminalSpec, brownian_terminal,
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


def test_loss_constructor_rejects_bad_constants():
    with pytest.raises(ValueError):
        sine_perturbed_loss(1.2)
    # the linear family's constants have no range check that a NaN would fail
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            linear_shift_loss(c0=bad)
        with pytest.raises(ValueError, match="finite"):
            linear_shift_loss(amp=1.0, omega=bad)


def test_quadratic_mode_requires_bounds():
    params = (0.1, 0.2, 10.0, 0.1)
    with pytest.raises(ValueError, match="requires zero_bound"):
        DriverSpec(kind="quadratic_z", params=params)
    # lam = 0 would leave the ball radius and both horizons undefined
    with pytest.raises(ValueError, match="quadratic_z needs lam"):
        DriverSpec(kind="quadratic_z", zero_bound=1.0, params=(0.0, 0.0, 10.0, 0.0))
    drv = DriverSpec(kind="quadratic_z", zero_bound=1.0, params=params)
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
    drv = DriverSpec(kind=kind, zero_bound=1.0 if kind == "quadratic_z" else None,
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
    # beta in (0, 1) gives 0 < lip_lower < lip_upper, so the ratio is >= 1
    assert hl_constant(sine_perturbed_loss(beta)) >= 1.0


def test_quadratic_probe_capped_driver():
    drv = quadratic_z_driver(a=0.05, gamma=0.1, z_cap=1e3, b=0.02, zero_bound=1.0)
    spec = ScenarioSpec(name="q", horizon=0.5, brownian_dim=2,
                        terminal=get("D_quadratic").spec.terminal,
                        driver=drv, resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss(c0=-0.5))
    report = validate_assumptions(spec, probes=400, seed=11)
    assert report.passed


DERIVED = ("mode", "lam", "growth_const", "lip_lower", "lip_upper",
           "positive_above", "bound")


def test_spec_constants_are_read_only_properties():
    # a spec stores only what a caller chooses; its constants are derived
    specs = (DriverSpec, LossSpec, TerminalSpec)
    fields = {f.name for spec in specs for f in dataclasses.fields(spec)}
    assert fields.isdisjoint(DERIVED)
    props = {name: vars(spec)[name] for spec in specs for name in DERIVED
             if name in vars(spec)}
    assert sorted(props) == sorted(DERIVED)
    assert all(isinstance(p, property) and p.fset is None for p in props.values())


@pytest.mark.parametrize("spec,expected", [
    (zero_driver(), ("lipschitz", 0.0)),
    (DriverSpec(kind="constant", params=(-3.0,)), ("lipschitz", 0.0)),
    (linear_y_driver(-0.6), ("lipschitz", 0.6)),
    (DriverSpec(kind="mean_resist", params=(0.2, -0.7)), ("lipschitz", 0.7)),
    (quadratic_z_driver(a=0.1, gamma=-0.5, z_cap=9.0, b=0.2, zero_bound=1),
     ("quadratic", 0.25)),
    (quadratic_z_driver(a=0.1, gamma=0.1, z_cap=9.0, b=-0.3, zero_bound=1),
     ("quadratic", 0.3)),
], ids=["zero", "constant", "linear_y", "mean_resist", "quadratic-gamma",
        "quadratic-b"])
def test_driver_mode_and_lam_follow_kind_and_params(spec, expected):
    assert (spec.mode, spec.lam) == expected


@pytest.mark.parametrize("loss,expected", [
    (linear_shift_loss(c0=2, amp=-1, omega=3), (1.0, 1.0, 3.0, 3.0)),
    (linear_shift_loss(c0=-0.2, amp=0.3), (1.0, 1.0, 0.5, 1.0)),
    (sine_perturbed_loss(0.25), (0.75, 1.25, 0.25, 1.0)),
], ids=["linear-peak", "linear-small", "sine"])
def test_loss_constants_follow_kind_and_params(loss, expected):
    derived = (loss.lip_lower, loss.lip_upper, loss.positive_above, loss.growth_const)
    assert derived == expected
    assert all(type(c) is float for c in derived)


def test_terminal_bound_and_directly_built_specs():
    assert scaled_tanh_terminal(-2).bound == 2.0
    assert type(scaled_tanh_terminal(2).bound) is float
    assert brownian_terminal().bound is None
    # a spec built directly is checked as its builder's is
    with pytest.raises(ValueError, match="sine_perturbed needs 0 < beta < 1"):
        LossSpec(kind="sine_perturbed", params=(1.0,))
    drv = quadratic_z_driver(a=0, gamma=1, z_cap=1, b=0, zero_bound=2, alpha=0)
    assert (type(drv.zero_bound), type(drv.alpha)) == (float, float)


@pytest.mark.parametrize("build, message", [
    (lambda: DriverSpec(kind="linear_y"), "driver kind 'linear_y' takes 1 params, got 0"),
    (lambda: DriverSpec(kind="zero", params=(1.0,)), "driver kind 'zero' takes 0"),
    (lambda: LossSpec(kind="sine_perturbed"), "loss kind 'sine_perturbed' takes 1"),
    (lambda: LossSpec(kind="linear_shift", params=(0.2,)), "loss kind 'linear_shift' takes 3"),
    (lambda: TerminalSpec(kind="scaled_tanh"), "terminal kind 'scaled_tanh' takes 1"),
], ids=["linear_y", "zero", "sine_perturbed", "linear_shift", "scaled_tanh"])
def test_spec_refuses_a_params_count_other_than_its_kinds(build, message):
    with pytest.raises(ValueError, match=message):
        build()
