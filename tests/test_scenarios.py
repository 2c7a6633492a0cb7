import json
import math

import numpy as np
import pytest

from mrbsde.model import QUADRATIC, hl_constant
from mrbsde.picard import (quadratic_ball_floor, quadratic_contraction_horizon,
                           scenario_constants)
from mrbsde.scenarios import (get, registry, scenario_from_dict,
                              scenario_to_dict)


def test_registry_names():
    names = [e.name for e in registry()]
    assert names == ["A_sine_constraint", "B_meanfield_linear",
                     "C_resistance_lipschitz", "D_quadratic"]
    with pytest.raises(KeyError):
        get("nope")


def test_closed_form_a_is_flat_and_monotone():
    entry = get("A_sine_constraint")
    cf = entry.closed_form
    ts = np.linspace(0.0, 1.0, 501)
    k = np.array([cf["k"](t) for t in ts])
    assert k[0] == 0.0
    assert np.all(np.diff(k) >= -1e-15)
    # constraint value E[l(t, Y_t)] = mean_y(t) - 0.3 sin(pi t); zero wherever dk > 0
    constraint = np.array([cf["mean_y"](t) - 0.3 * math.sin(math.pi * t)
                           for t in ts])
    assert constraint.min() >= -1e-12
    dk = np.diff(k)
    assert float(np.dot(np.abs(constraint[1:]), dk)) <= 1e-12


def test_closed_form_b_solves_mean_equation():
    entry = get("B_meanfield_linear")
    cf, spec = entry.closed_form, entry.spec
    a, T = 0.5, spec.horizon
    ts = np.linspace(0.0, T, 101)
    m = np.array([cf["mean_y"](t) for t in ts])
    # m(t) = 1 + int_t^T a m(s) ds, checked by trapezoid quadrature
    for i in (0, 25, 50):
        integral = np.trapezoid(m[i:], ts[i:])
        assert m[i] == pytest.approx(1.0 + a * integral, abs=5e-5)
    assert all(cf["k"](t) == 0.0 for t in ts)
    assert m.min() > 0.0    # constraint never binds


def test_scenario_c_within_contraction_horizon():
    spec = get("C_resistance_lipschitz").spec
    constants = scenario_constants(spec)
    assert spec.horizon <= constants.delta_lipschitz


def test_scenario_d_horizon_is_contraction_horizon():
    spec = get("D_quadratic").spec
    assert spec.mode == QUADRATIC
    floor = quadratic_ball_floor(hl_constant(spec.loss), 1.0, spec.driver.lam)
    delta = quadratic_contraction_horizon(floor, hl_constant(spec.loss), 1.0,
                                          spec.driver.lam, 0.0)
    assert spec.horizon == delta == 2.0769956553165817e-06
    assert spec.horizon == scenario_constants(spec).delta_contraction
    assert spec.terminal.bound == 1.0


def test_scenario_from_dict_roundtrip():
    cfg = {
        "name": "inline_b",
        "T": 0.5,
        "d": 1,
        "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
        "driver": {"kind": "linear_mean", "params": {"a": 0.5}},
        "resistance": {"kind": "zero"},
        "loss": {"kind": "linear_shift", "params": {}},
    }
    spec = scenario_from_dict(cfg)
    assert spec.horizon == 0.5
    assert spec.driver.lam == 0.5
    assert spec.mode == "lipschitz"
    d = scenario_to_dict(spec)
    assert d["driver"]["kind"] == "linear_mean"


def test_scenario_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        scenario_from_dict({
            "T": 1.0,
            "terminal": {"kind": "brownian"},
            "driver": {"kind": "zero"},
            "loss": {"kind": "linear_shift", "params": {}},
            "bogus": 1,
        })
    with pytest.raises(ValueError, match="unknown kind"):
        scenario_from_dict({
            "T": 1.0,
            "terminal": {"kind": "et"},
            "driver": {"kind": "zero"},
            "loss": {"kind": "linear_shift", "params": {}},
        })
    # every builder takes its parameters by keyword, so an extra one is refused
    for section, entry in (("driver", {"kind": "zero"}),
                           ("driver", {"kind": "constant", "params": {"value": 1}}),
                           ("terminal", {"kind": "brownian"})):
        cfg = {"T": 1.0, "terminal": {"kind": "brownian"}, "driver": {"kind": "zero"},
               "loss": {"kind": "linear_shift", "params": {}}}
        cfg[section] = {**entry, "params": {**entry.get("params", {}), "bogus": 3}}
        with pytest.raises(TypeError, match="bogus"):
            scenario_from_dict(cfg)
    # no computation reads a zero-z bound, so a quadratic driver declares none
    quadratic = {"kind": "quadratic_z",
                 "params": {"a": 0.05, "gamma": 0.1, "z_cap": 1e3, "b": 0.02,
                            "zero_bound": 1.0, "zero_z_bound": 1.0}}
    with pytest.raises(TypeError, match="zero_z_bound"):
        scenario_from_dict({"T": 1.0, "terminal": {"kind": "scaled_tanh"},
                            "driver": quadratic,
                            "loss": {"kind": "linear_shift", "params": {}}})


def _inline(**changes):
    cfg = {"T": 0.5, "d": 1, "terminal": {"kind": "brownian"},
           "driver": {"kind": "zero"}, "loss": {"kind": "linear_shift", "params": {}}}
    return {**cfg, **changes}


@pytest.mark.parametrize("cfg, text", [
    (_inline(d=1.5), "scenario.d must be an integer, got 1.5"),
    (_inline(d="1"), "scenario.d must be a number, got '1'"),
    (_inline(T="0.5"), "scenario.T must be a number, got '0.5'"),
    (_inline(T=True), "scenario.T must be a number, got True"),
    (_inline(driver={"kind": "constant", "params": {"value": "1"}}),
     "driver.params.value must be a number, got '1'"),
    (_inline(driver={"kind": "constant", "params": {"value": True}}),
     "driver.params.value must be a number, got True"),
    (_inline(loss={"kind": "linear_shift", "params": {"c0": False}}),
     "loss.params.c0 must be a number, got False"),
    (_inline(loss={"kind": "linear_shift", "params": {"c0": None}}),
     "loss.params.c0 must be a number, got None"),
    (_inline(loss={"kind": "linear_shift", "params": [0.1]}),
     "loss.params must be an object"),
], ids=["d-fraction", "d-string", "T-string", "T-bool", "param-string",
        "param-bool", "param-false", "param-null", "params-list"])
def test_scenario_from_dict_rejects_non_numbers(cfg, text):
    with pytest.raises(ValueError) as err:
        scenario_from_dict(cfg)
    assert str(err.value) == text


def test_scenario_from_dict_reads_integral_numbers():
    spec = scenario_from_dict(_inline(T=1, d=2.0))
    assert spec.horizon == 1.0 and spec.brownian_dim == 2
    assert isinstance(spec.brownian_dim, int)


def _driver(kind, params, lam, mode="lipschitz", zero_bound=None):
    return {"kind": kind, "mode": mode, "lam": lam, "zero_bound": zero_bound,
            "params": params}


def _loss(kind, params, lip_lower=1.0, lip_upper=1.0):
    return {"kind": kind, "params": params, "growth_const": 1.0,
            "lip_lower": lip_lower, "lip_upper": lip_upper}


def _terminal(kind, params, bound=None):
    return {"kind": kind, "params": params, "bound": bound}


# scenario_to_dict of the built-in and benchmark scenarios, pinned: each
# scenario_hash, and so each provenance record, depends on these exact values
PINNED_MAPPINGS = {
    "A_sine_constraint": {
        "name": "A_sine_constraint", "T": 1.0, "d": 1,
        "terminal": _terminal("brownian", []),
        "driver": _driver("zero", [], 0.0),
        "resistance": {"kind": "zero"},
        "loss": _loss("linear_shift", [0.0, 0.3, 3.141592653589793])},
    "B_meanfield_linear": {
        "name": "B_meanfield_linear", "T": 0.5, "d": 1,
        "terminal": _terminal("brownian_shift", [1.0]),
        "driver": _driver("linear_mean", [0.5], 0.5),
        "resistance": {"kind": "zero"},
        "loss": _loss("linear_shift", [0.0, 0.0, 0.0])},
    "C_resistance_lipschitz": {
        "name": "C_resistance_lipschitz", "T": 0.01, "d": 1,
        "terminal": _terminal("brownian_shift", [1.0]),
        "driver": _driver("mean_resist", [0.2, -0.1], 0.2),
        "resistance": {"kind": "evaluation"},
        "loss": _loss("linear_shift", [0.0, 0.0, 0.0])},
    "D_quadratic": {
        "name": "D_quadratic", "T": 2.0769956553165817e-06, "d": 1,
        "terminal": _terminal("scaled_tanh", [1.0], bound=1.0),
        "driver": _driver("quadratic_z", [0.05, 0.1, 1000.0, 0.02], 0.05,
                          mode="quadratic", zero_bound=1.0),
        "resistance": {"kind": "zero"},
        "loss": _loss("linear_shift", [-0.5, 0.0, 0.0])},
    "meanfield_d3": {
        "name": "meanfield_d3", "T": 0.5, "d": 3,
        "terminal": _terminal("brownian_shift", [1.0]),
        "driver": _driver("linear_mean", [0.5], 0.5),
        "resistance": {"kind": "zero"},
        "loss": _loss("linear_shift", [0.0, 0.0, 0.0])},
    "stitch_sine": {
        "name": "stitch_sine", "T": 1.0, "d": 1,
        "terminal": _terminal("brownian_shift", [0.2]),
        "driver": _driver("constant", [-0.5], 0.0),
        "resistance": {"kind": "zero"},
        "loss": _loss("sine_perturbed", [0.5], lip_lower=0.5, lip_upper=1.5)},
}

# the inline scenarios of the benchmark workloads; the third runs A
WORKLOAD_SCENARIOS = [
    {"name": "meanfield_d3", "T": 0.5, "d": 3,
     "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
     "driver": {"kind": "linear_mean", "params": {"a": 0.5}},
     "resistance": {"kind": "zero"},
     "loss": {"kind": "linear_shift", "params": {"c0": 0.0}}},
    {"name": "stitch_sine", "T": 1.0, "d": 1,
     "terminal": {"kind": "brownian_shift", "params": {"c": 0.2}},
     "driver": {"kind": "constant", "params": {"value": -0.5}},
     "resistance": {"kind": "zero"},
     "loss": {"kind": "sine_perturbed", "params": {"beta": 0.5}}},
]


def test_canonical_mapping_is_pinned():
    # json text tells 1 from 1.0 and prints every float exactly, so the derived
    # constants equal the ones the specs stored, bit for bit
    specs = [e.spec for e in registry()]
    specs += [scenario_from_dict(cfg) for cfg in WORKLOAD_SCENARIOS]
    assert [s.name for s in specs] == list(PINNED_MAPPINGS)
    for spec in specs:
        assert (json.dumps(scenario_to_dict(spec), sort_keys=True)
                == json.dumps(PINNED_MAPPINGS[spec.name], sort_keys=True)), spec.name
