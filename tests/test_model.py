import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrbsde.model import (DRIVER_KINDS, LOSS_KINDS, PASS_RATIO, RESISTANCE_KINDS,
                          DriverSpec, LossSpec, ModeError, ResistanceSpec,
                          ScenarioSpec, TerminalSpec, brownian_terminal, hl_constant,
                          linear_shift_loss, linear_y_driver, quadratic_z_driver,
                          scaled_tanh_terminal, sine_perturbed_loss,
                          validate_assumptions, zero_driver)
from mrbsde.paths import make_grid
from mrbsde.scenarios import get, registry


def _plain_scenario(driver, loss=None):
    return ScenarioSpec(name="probe", horizon=1.0, brownian_dim=1,
                        terminal=brownian_terminal(), driver=driver,
                        resistance=ResistanceSpec("zero"),
                        loss=loss or linear_shift_loss())


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
# the y-free part of each Lipschitz family's f at those params
Y_FREE = {"zero": lambda ybar, g: 0.0, "constant": lambda ybar, g: 0.7,
          "linear_y": lambda ybar, g: 0.0, "linear_mean": lambda ybar, g: 0.5 * ybar,
          "mean_resist": lambda ybar, g: 0.4 * ybar - 0.9 * g}


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
        if kind in Y_FREE:
            # f = y_slope y + scalar(t, ybar, g): the scalar sweeps read both parts
            assert np.array_equal(drv.evaluate(t, y0, ybar, z, zbar, g),
                                  drv.y_slope * y0 + drv.scalar(t, ybar, g))
            assert drv.scalar(t, ybar, g) == Y_FREE[kind](ybar, g)


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


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_every_builtin_scenario_validates(entry):
    # each built-in terminal meets E[l(T, xi)] >= 0, A's with equality
    assert validate_assumptions(entry.spec, seed=0) <= PASS_RATIO


@pytest.mark.parametrize("seed", [566, 716])
def test_terminal_met_with_equality_validates_at_every_seed(seed):
    # A's terminal-and-loss pair is odd in B_T: on independent draws its
    # sample mean falls 3 standard errors below 0 at these seeds
    assert validate_assumptions(get("A_sine_constraint").spec, seed) <= PASS_RATIO


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_hl_constant_at_least_one(beta):
    # beta in (0, 1) gives 0 < lip_lower < lip_upper, so the ratio is >= 1
    assert hl_constant(sine_perturbed_loss(beta)) >= 1.0


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
    drv = quadratic_z_driver(a=0, gamma=1, z_cap=1, b=0, zero_bound=2)
    assert type(drv.zero_bound) is float


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


@pytest.mark.parametrize("spec", [DriverSpec, LossSpec, TerminalSpec])
def test_spec_refuses_an_unknown_kind(spec):
    # the config builders refuse an unknown kind first; a spec built directly
    # refuses it too
    owner = spec.__name__.removesuffix("Spec").lower()
    with pytest.raises(ValueError, match=f"unknown {owner} kind 'bogus'"):
        spec(kind="bogus")


# Property tests of the standing assumptions. Every constant is a formula of
# a spec's kind and params, so each assumption is checked here over every
# kind it applies to and params across their valid ranges. Each side of an
# inequality is compared with a slack of a few ulps of the magnitudes it was
# formed from, so rounding at large params cannot fail a true inequality,
# plus a few of the smallest subnormal, the absolute error of a rounding that
# underflows, so a subnormal param cannot fail one either.

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal
LIPSCHITZ_DRIVER_KINDS = [k for k in DRIVER_KINDS if k != "quadratic_z"]
PARAM = st.floats(-1e6, 1e6)


@st.composite
def quadratic_drivers(draw):
    a, gamma, b = draw(PARAM), draw(PARAM), draw(PARAM)
    assume(max(abs(a), abs(gamma), abs(b)) > 0.0)
    cap = draw(st.floats(0, 1e6) | st.floats(1e6, 1e12))
    return quadratic_z_driver(a=a, gamma=gamma, z_cap=cap, b=b,
                              zero_bound=draw(st.floats(0, 1e6)))


@st.composite
def driver_arg_pairs(draw):
    """Argument tuples u and v of (y, ybar, z, zbar, g), z and zbar in R^d,
    with v's slots from v's draw or, in turn, only one slot from it: a bound
    is tightest where a single argument moves."""
    d = draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3)
    vec = st.lists(coord, min_size=d, max_size=d).map(np.array)
    args = st.tuples(coord, coord, vec, vec, coord)
    u, v = draw(args), draw(args)
    return u, [v] + [u[:j] + (v[j],) + u[j + 1:] for j in range(len(u))]


def _driver_gap(drv, t, u, v):
    """|f(t, u) - f(t, v)| and its rounding slack: a few ulps of lam times
    every term's magnitude, |z|^2 included for the quadratic family, and as
    many smallest subnormals for the roundings that underflow."""
    f1, f2 = (float(drv.evaluate(t, np.array([y]), yb, z[None, :], zb, g)[0])
              for y, yb, z, zb, g in (u, v))
    size = sum(abs(y) + abs(yb) + np.linalg.norm(z) * (1.0 + np.linalg.norm(z))
               + np.linalg.norm(zb) + abs(g) for y, yb, z, zb, g in (u, v))
    return abs(f1 - f2), 8 * (len(u[2]) + 2) * (EPS * drv.lam * size + TINY)


@pytest.mark.parametrize("kind", LIPSCHITZ_DRIVER_KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_driver_lipschitz(kind, data):
    drv = DriverSpec(kind=kind, params=data.draw(st.tuples(*[PARAM] * DRIVER_KINDS[kind])))
    t, (u, vs) = data.draw(st.floats(0, 10)), data.draw(driver_arg_pairs())
    for v in vs:
        gap, slack = _driver_gap(drv, t, u, v)
        dist = sum(np.linalg.norm(np.subtract(a, b)) for a, b in zip(u, v))
        assert gap <= drv.lam * dist + slack


def test_driver_lipschitz_at_a_subnormal_slope():
    # a * 0.5 - a * 0.25 and a * 0.25 round to different multiples of the
    # smallest subnormal, where a relative slack is 0
    drv = linear_y_driver(2.225073858507e-311)
    z = np.zeros(1)
    gap, slack = _driver_gap(drv, 0.0, (0.25, 0.0, z, z, 0.0), (0.5, 0.0, z, z, 0.0))
    assert gap <= drv.lam * 0.25 + slack


@given(quadratic_drivers(), st.floats(0, 10), driver_arg_pairs())
@example(quadratic_z_driver(a=0, gamma=1, z_cap=1e6, b=0, zero_bound=1), 0.0,
         ((0.0, 0.0, np.array([10.0]), np.zeros(1), 0.0),
          [(0.0, 0.0, np.array([9.0]), np.zeros(1), 0.0)]))   # 9.5 <= 10
@settings(max_examples=60, deadline=None)
def test_driver_quadratic_increment(drv, t, args):
    u, vs = args
    y, yb, z, zb, g = u
    for p, pb, q, qb, gb in vs:
        gap, slack = _driver_gap(drv, t, u, (p, pb, q, qb, gb))
        nz, nq = np.linalg.norm(z), np.linalg.norm(q)
        # the zbar factor (1 + |zbar|^alpha + |qbar|^alpha) at alpha = 0
        bound = drv.lam * (abs(y - p) + abs(yb - pb)
                           + (1.0 + nz + nq) * np.linalg.norm(z - q)
                           + 3.0 * np.linalg.norm(zb - qb)
                           + abs(g - gb))
        assert gap <= bound + slack


@given(quadratic_drivers(), st.floats(0, 10), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_driver_zero_bound(drv, t, d):
    f0 = drv.evaluate(t, np.zeros(1), 0.0, np.zeros((1, d)), np.zeros(d), 0.0)
    assert abs(float(f0[0])) <= drv.zero_bound


@st.composite
def k_paths(draw):
    """A resistance, a grid, two k-paths on it and a node i < n."""
    res = ResistanceSpec(draw(st.sampled_from(RESISTANCE_KINDS)))
    grid = make_grid(draw(st.floats(1e-3, 100)), draw(st.integers(1, 32)))
    path = st.lists(st.floats(-1e3, 1e3), min_size=grid.n + 1,
                    max_size=grid.n + 1).map(np.array)
    # a constant gap saturates the integral's bound at t = T
    gap = path | st.floats(-1e3, 1e3).map(lambda c: np.full(grid.n + 1, c))
    a = draw(path)
    return res, grid, a, a + draw(gap), draw(st.integers(0, grid.n - 1))


@given(st.sampled_from(RESISTANCE_KINDS), st.floats(1e-3, 100), st.integers(1, 32))
@settings(max_examples=20, deadline=None)
def test_resistance_zero(kind, T, n):
    assert np.all(ResistanceSpec(kind).apply(make_grid(T, n), np.zeros(n + 1)) == 0.0)


@given(k_paths())
@settings(max_examples=30, deadline=None)
def test_resistance_adapted(case):
    # replacing the path strictly after t_i leaves G up to t_i unchanged
    res, grid, a, b, i = case
    pert = np.concatenate([a[:i + 1], b[i + 1:]])
    assert np.array_equal(res.apply(grid, pert)[:i + 1], res.apply(grid, a)[:i + 1])


@given(k_paths())
@settings(max_examples=40, deadline=None)
def test_resistance_lipschitz(case):
    res, grid, a, b, _ = case
    gap = np.abs(res.apply(grid, a) - res.apply(grid, b))
    sup = np.maximum.accumulate(np.abs(a - b))
    slack = (grid.n + 3) * EPS * np.maximum.accumulate(np.abs(a) + np.abs(b))
    assert np.all(gap <= sup + slack)


def losses(kind):
    if kind == "sine_perturbed":
        return st.floats(0, 1, exclude_min=True, exclude_max=True).map(sine_perturbed_loss)
    shift = st.floats(-1, 1) | st.floats(-1e12, 1e12)
    return st.builds(linear_shift_loss, shift, shift, st.floats(-1e3, 1e3))


@st.composite
def loss_increments(draw, kind):
    """A loss, y1 <= y2, y2 - y1, l(t, y1), l(t, y2) and the rounding slack
    of l(t, y2) - l(t, y1)."""
    loss, t = draw(losses(kind)), draw(st.floats(0, 10))
    # the sine family's slope is extremal at multiples of pi
    y1 = draw(st.floats(-8, 8) | st.floats(-1e6, 1e6)
              | st.integers(-4, 4).map(lambda k: k * math.pi))
    y2 = y1 + draw(st.floats(1e-4, 1e-2) | st.floats(1e-4, 6) | st.floats(0, 20))
    l1, l2 = (float(loss.evaluate(t, np.array([y]))[0]) for y in (y1, y2))
    slack = 4 * EPS * (abs(y1) + abs(y2) + 2 * loss.positive_above)
    return loss, y1, y2, y2 - y1, l1, l2, slack


@pytest.mark.parametrize("kind", LOSS_KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_loss_strictly_increasing(kind, data):
    loss, _, _, dy, l1, l2, slack = data.draw(loss_increments(kind))
    # a step the loss resolves above its rounding must raise it
    assert l2 > l1 or loss.lip_lower * dy <= slack


@pytest.mark.parametrize("kind", LOSS_KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_loss_linear_growth(kind, data):
    loss, y1, y2, _, l1, l2, _ = data.draw(loss_increments(kind))
    for y, ly in ((y1, l1), (y2, l2)):
        assert abs(ly) <= loss.growth_const * (1.0 + abs(y)) * (1.0 + 4 * EPS)


@pytest.mark.parametrize("kind", LOSS_KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_loss_bilip_upper(kind, data):
    loss, _, _, dy, l1, l2, slack = data.draw(loss_increments(kind))
    assert l2 - l1 <= loss.lip_upper * dy + slack


@pytest.mark.parametrize("kind", LOSS_KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_loss_bilip_lower(kind, data):
    loss, _, _, dy, l1, l2, slack = data.draw(loss_increments(kind))
    assert loss.lip_lower * dy <= l2 - l1 + slack


@pytest.mark.parametrize("kind", LOSS_KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_loss_positive_tail(kind, data):
    loss, t = data.draw(losses(kind)), data.draw(st.floats(0, 10))
    beyond = data.draw(st.floats(0, 1) | st.floats(0, 1e6))
    y = np.nextafter(loss.positive_above, math.inf) + beyond
    assert float(loss.evaluate(t, np.array([y]))[0]) > 0.0


@given(st.floats(-1e300, 1e300), st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.floats(-1e300, 1e300), min_size=d, max_size=d),
                       min_size=1, max_size=16)))
@settings(max_examples=50, deadline=None)
def test_terminal_bound(scale, states):
    # scaled_tanh is the bounded terminal kind, the one quadratic mode admits
    terminal = scaled_tanh_terminal(scale)
    assert np.all(np.abs(terminal.evaluate(np.array(states))) <= terminal.bound)
