"""Built-in verification scenarios with documented closed forms.

A: pure noise with a sinusoidal constraint profile -- the reflection path has
   an explicit formula from the backward running supremum.
B: linear mean-field drift with a slack constraint -- the mean solves a scalar
   ODE and the reflection vanishes.
C: mean-field drift plus evaluation resistance on a short horizon -- no closed
   form, referenced against the exact lattice solver.
D: capped quadratic driver with bounded terminal value -- quadratic mode,
   horizon set to its own contraction horizon, lattice-referenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (ResistanceSpec, ScenarioSpec, brownian_shift_terminal,
                    brownian_terminal, constant_driver, hl_constant,
                    linear_mean_driver, linear_shift_loss, linear_y_driver,
                    mean_resist_driver, quadratic_z_driver,
                    scaled_tanh_terminal, sine_perturbed_loss, zero_driver)
from .picard import constants_report


@dataclass(frozen=True, eq=False)
class NamedScenario:
    name: str
    spec: ScenarioSpec
    closed_form: dict | None = None


def _scenario_a() -> NamedScenario:
    T = 1.0
    spec = ScenarioSpec(
        name="A_sine_constraint",
        horizon=T,
        brownian_dim=1,
        terminal=brownian_terminal(),
        driver=zero_driver(),
        resistance=ResistanceSpec("zero"),
        loss=linear_shift_loss(c0=0.0, amp=0.3, omega=math.pi / T),
    )

    def k_exact(t):
        if t <= T / 2.0:
            return 0.0
        return 0.3 * (1.0 - math.sin(math.pi * t / T))

    def mean_y_exact(t):
        # E[Y_t] equals the remaining reflection, sup_{t<=s<=T} 0.3 sin(pi s/T)
        if t <= T / 2.0:
            return 0.3
        return 0.3 * math.sin(math.pi * t / T)

    return NamedScenario(
        name=spec.name, spec=spec,
        closed_form={"k": k_exact, "mean_y": mean_y_exact})


def _scenario_b() -> NamedScenario:
    a, T = 0.5, 0.5
    spec = ScenarioSpec(
        name="B_meanfield_linear",
        horizon=T,
        brownian_dim=1,
        terminal=brownian_shift_terminal(1.0),
        driver=linear_mean_driver(a),
        resistance=ResistanceSpec("zero"),
        loss=linear_shift_loss(),
    )
    return NamedScenario(
        name=spec.name, spec=spec,
        closed_form={"k": lambda t: 0.0,
                     "mean_y": lambda t: math.exp(a * (T - t))})


def _scenario_c() -> NamedScenario:
    spec = ScenarioSpec(
        name="C_resistance_lipschitz",
        horizon=0.01,
        brownian_dim=1,
        terminal=brownian_shift_terminal(1.0),
        driver=mean_resist_driver(0.2, -0.1),
        resistance=ResistanceSpec("evaluation"),
        loss=linear_shift_loss(),
    )
    return NamedScenario(name=spec.name, spec=spec)


def _scenario_d() -> NamedScenario:
    driver = quadratic_z_driver(a=0.05, gamma=0.1, z_cap=1e3, b=0.02,
                                zero_bound=1.0)
    loss = linear_shift_loss(c0=-0.5)
    # pin the horizon to the scenario's own contraction horizon
    spec = ScenarioSpec(
        name="D_quadratic",
        horizon=constants_report(hl_constant(loss), 1.0, driver.lam).delta_contraction,
        brownian_dim=1,
        terminal=scaled_tanh_terminal(1.0),
        driver=driver,
        resistance=ResistanceSpec("zero"),
        loss=loss,
    )
    return NamedScenario(name=spec.name, spec=spec)


def registry() -> list[NamedScenario]:
    return [_scenario_a(), _scenario_b(), _scenario_c(), _scenario_d()]


def get(name: str) -> NamedScenario:
    for entry in registry():
        if entry.name == name:
            return entry
    raise KeyError(f"unknown scenario {name!r}; "
                   f"known: {[e.name for e in registry()]}")


# ---------------------------------------------------------------------------
# Inline scenario construction (JSON config support)
# ---------------------------------------------------------------------------

_LOSS_BUILDERS = {
    "linear_shift": linear_shift_loss,
    "sine_perturbed": sine_perturbed_loss,
}

_DRIVER_BUILDERS = {
    "zero": zero_driver,
    "constant": constant_driver,
    "linear_y": linear_y_driver,
    "linear_mean": linear_mean_driver,
    "mean_resist": mean_resist_driver,
    "quadratic_z": quadratic_z_driver,
}

_TERMINAL_BUILDERS = {
    "brownian": brownian_terminal,
    "brownian_shift": brownian_shift_terminal,
    "scaled_tanh": scaled_tanh_terminal,
}


def config_number(label: str, value, integer: bool = False):
    """`value` as a float, or an int where `integer`; refuses strings,
    booleans, integers beyond the float range and, where an integer is
    wanted, fractions."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    if not integer:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{label} is beyond the float range") from None
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _build(table, section: str, cfg: dict):
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind not in table:
        raise ValueError(f"{section}: unknown kind {kind!r} "
                         f"(expected one of {sorted(table)})")
    params = cfg.pop("params", {})
    if cfg:
        raise ValueError(f"{section}: unknown keys {sorted(cfg)}")
    if not isinstance(params, dict):
        raise ValueError(f"{section}.params must be an object")
    for key, value in params.items():
        config_number(f"{section}.params.{key}", value)
    return table[kind](**params)


def scenario_from_dict(cfg: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from a plain configuration mapping."""
    cfg = dict(cfg)
    try:
        name = cfg.pop("name", "inline")
        horizon = config_number("scenario.T", cfg.pop("T"))
        dim = config_number("scenario.d", cfg.pop("d", 1), integer=True)
        terminal = _build(_TERMINAL_BUILDERS, "terminal", cfg.pop("terminal"))
        driver = _build(_DRIVER_BUILDERS, "driver", cfg.pop("driver"))
        res_cfg = dict(cfg.pop("resistance", {"kind": "zero"}))
        resistance = ResistanceSpec(kind=res_cfg.pop("kind"))
        if res_cfg:
            raise ValueError(f"resistance: unknown keys {sorted(res_cfg)}")
        loss = _build(_LOSS_BUILDERS, "loss", cfg.pop("loss"))
    except KeyError as exc:
        raise ValueError(f"scenario config missing key {exc}") from exc
    if cfg:
        raise ValueError(f"scenario config has unknown keys {sorted(cfg)}")
    return ScenarioSpec(name=name, horizon=horizon, brownian_dim=dim,
                        terminal=terminal, driver=driver,
                        resistance=resistance, loss=loss)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Canonical mapping of a scenario (drives the provenance content hash).

    The constants it echoes are derived from each kind and its float-cast
    parameters, so a config that spells a number as a JSON integer maps, and
    hashes, as its float spelling."""
    return {
        "name": spec.name,
        "T": spec.horizon,
        "d": spec.brownian_dim,
        "terminal": {"kind": spec.terminal.kind, "params": list(spec.terminal.params),
                     "bound": spec.terminal.bound},
        "driver": {"kind": spec.driver.kind, "mode": spec.driver.mode,
                   "lam": spec.driver.lam, "zero_bound": spec.driver.zero_bound,
                   "params": list(spec.driver.params)},
        "resistance": {"kind": spec.resistance.kind},
        "loss": {"kind": spec.loss.kind, "params": list(spec.loss.params),
                 "growth_const": spec.loss.growth_const,
                 "lip_lower": spec.loss.lip_lower,
                 "lip_upper": spec.loss.lip_upper},
    }
