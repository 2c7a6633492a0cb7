"""Problem-instance types (terminal, driver, resistance, loss), whose
constants are derived from each kind and its parameters, and the sampled
margin of the terminal constraint."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LIPSCHITZ = "lipschitz"
QUADRATIC = "quadratic"

# kind -> the number of its params
LOSS_KINDS = {"linear_shift": 3, "sine_perturbed": 1}
# Lipschitz kind -> the terms of f its params multiply, in order: f is affine
# in y, E[y] ("ybar") and the resistance g, with a constant ("1")
AFFINE_TERMS = {"zero": (), "constant": ("1",), "linear_y": ("y",),
                "linear_mean": ("ybar",), "mean_resist": ("ybar", "g")}
DRIVER_KINDS = {**{kind: len(terms) for kind, terms in AFFINE_TERMS.items()}, "quadratic_z": 4}
RESISTANCE_KINDS = ("zero", "evaluation", "running_sup", "scaled_integral")
TERMINAL_KINDS = {"brownian": 0, "brownian_shift": 1, "scaled_tanh": 1}

PASS_RATIO = 1.0 + 1e-9
TERMINAL_DRAWS = 4096


class ModeError(ValueError):
    """A quadratic-mode driver paired with an unbounded terminal condition."""


def _require_kind(owner: str, kinds: dict, kind: str, params: tuple):
    """Refuse an unknown kind, and params of another count than the kind's."""
    if kind not in kinds:
        raise ValueError(f"unknown {owner} kind {kind!r}")
    if len(params) != kinds[kind]:
        raise ValueError(f"{owner} kind {kind!r} takes {kinds[kind]} params, "
                         f"got {len(params)}")


def _require_finite(owner: str, *values):
    """Refuse NaN and infinite numbers (None marks an undeclared one)."""
    if not all(math.isfinite(v) for v in values if v is not None):
        raise ValueError(f"{owner} needs finite numbers, got {values}")


class SolverError(RuntimeError):
    """Base of the errors a solve can stop with. `exit_code` is the command
    line's exit status for it: 1 a failed check, 2 no convergence, 3 a bad
    configuration."""

    exit_code = 2


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Running loss y -> l(t, y): strictly increasing, bi-Lipschitz, linear growth.

    Built-in families:
      linear_shift:   l(t, y) = y - (c0 + amp*sin(omega*t))
      sine_perturbed: l(t, y) = y + beta*sin(y), 0 < beta < 1
    Every constant is derived from the family and its parameters: the
    bi-Lipschitz pair `lip_lower` <= `lip_upper`, the linear growth constant
    and `positive_above`, a threshold with l(t, y) > 0 for y > threshold,
    which guarantees bracket expansion in the shift search terminates.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        _require_kind("loss", LOSS_KINDS, self.kind, self.params)
        _require_finite("loss", *self.params)
        if self.kind == "sine_perturbed" and not 0.0 < self.params[0] < 1.0:
            raise ValueError("sine_perturbed needs 0 < beta < 1")

    @property
    def lip_lower(self) -> float:
        return 1.0 - self.params[0] if self.kind == "sine_perturbed" else 1.0

    @property
    def lip_upper(self) -> float:
        return 1.0 + self.params[0] if self.kind == "sine_perturbed" else 1.0

    @property
    def positive_above(self) -> float:
        if self.kind == "linear_shift":
            c0, amp, _ = self.params
            return abs(c0) + abs(amp)
        return self.params[0]

    @property
    def growth_const(self) -> float:
        return max(1.0, self.positive_above) if self.kind == "linear_shift" else 1.0

    def shift(self, t: float) -> float:
        """Deterministic shift c(t) subtracted by the linear_shift family."""
        if self.kind == "linear_shift":
            c0, amp, omega = self.params
            return c0 + amp * math.sin(omega * t)
        return 0.0

    def evaluate(self, t: float, y, sin_y=None):
        """l(t, y) elementwise; the sine family uses `sin_y` for np.sin(y) when
        the caller already holds it."""
        y = np.asarray(y, dtype=float)
        if self.kind == "linear_shift":
            return y - self.shift(t)
        out = self.params[0] * (np.sin(y) if sin_y is None else sin_y)
        out += y     # y + beta sin y, formed in one array
        return out

    def shifted_mean(self, t: float, x: float, law) -> float:
        """E[l(t, x + X)] from the moments of the law of X, exactly for both
        families:

          linear_shift:   x + E[X] - c(t)
          sine_perturbed: x + E[X] + beta*(cos x E[sin X] + sin x E[cos X])

        `law` supplies E[X], E[sin X] and E[cos X] as `mean_atom`, `mean_sin`
        and `mean_cos`; only the moments a family needs are read.
        """
        if self.kind == "linear_shift":
            return x + law.mean_atom - self.shift(t)
        beta = self.params[0]
        return x + law.mean_atom + beta * (math.cos(x) * law.mean_sin
                                           + math.sin(x) * law.mean_cos)


def linear_shift_loss(c0: float = 0.0, amp: float = 0.0, omega: float = 0.0) -> LossSpec:
    return LossSpec(kind="linear_shift", params=(float(c0), float(amp), float(omega)))


def sine_perturbed_loss(beta: float) -> LossSpec:
    return LossSpec(kind="sine_perturbed", params=(float(beta),))


def hl_constant(loss: LossSpec) -> float:
    """Lipschitz constant of the shift operator on laws: lip_upper / lip_lower."""
    return loss.lip_upper / loss.lip_lower


@dataclass(frozen=True, eq=False)
class DriverSpec:
    """Generator f(t, y, ybar, z, zbar, g) of a built-in family.

    The family fixes the mode (quadratic exactly for `quadratic_z`) and its
    parameters fix `lam`, the Lipschitz constant (Lipschitz mode) or the
    structure constant of the quadratic increment bound (quadratic mode).
    The zbar term b|zbar| is Lipschitz, so the bound holds with the
    subquadratic exponent alpha = 0 of the zbar slot. `zero_bound` bounds
    |f(t,0,0,0,0,0)|. Quadratic mode needs `lam > 0` and `zero_bound`:
    the ball radius, the contraction horizon and the horizon-uniform bound are
    built from them. It also needs `z_cap >= 0` and `zero_bound >= 0`, so that
    f(t,0,0,0,0,0) = 0 lies within the bound. A Lipschitz kind's f is affine,
    y_slope * y + scalar(t, ybar, g), in the `coefficients` its params give,
    and `lam` is its largest absolute slope.
    """

    kind: str
    zero_bound: float | None = None
    params: tuple = ()

    def __post_init__(self):
        _require_kind("driver", DRIVER_KINDS, self.kind, self.params)
        _require_finite("driver", *self.params, self.zero_bound)
        if self.mode == QUADRATIC and not self.lam > 0.0:
            raise ValueError("quadratic_z needs lam = max(|a|, |gamma|/2, |b|) > 0")
        if self.mode == QUADRATIC and self.zero_bound is None:
            raise ValueError("quadratic mode requires zero_bound and lam > 0")
        if self.mode == QUADRATIC and min(self.params[2], self.zero_bound) < 0.0:
            raise ValueError("quadratic_z needs z_cap >= 0 and zero_bound >= 0, "
                             f"got z_cap = {self.params[2]}, zero_bound = {self.zero_bound}")

    @property
    def mode(self) -> str:
        return QUADRATIC if self.kind == "quadratic_z" else LIPSCHITZ

    @property
    def lam(self) -> float:
        if self.kind == "quadratic_z":
            a, gamma, _, b = self.params
            # halving is exact but for a subnormal gamma, where it rounds; round
            # it up there, so lam stays a bound and a nonzero gamma keeps lam > 0
            half = abs(gamma) / 2.0
            if 2.0 * half < abs(gamma):
                half = math.nextafter(half, math.inf)
            return max(abs(a), half, abs(b))
        c = self.coefficients
        return max(abs(c["y"]), abs(c["ybar"]), abs(c["g"]))

    @property
    def coefficients(self) -> dict:
        """A Lipschitz kind's coefficients of y, ybar, g and 1 in f, 0.0 if absent."""
        return {"y": 0.0, "ybar": 0.0, "g": 0.0, "1": 0.0,
                **dict(zip(AFFINE_TERMS[self.kind], self.params))}

    def scalar(self, t: float, ybar: float, g: float) -> float:
        """The y-free part of a Lipschitz kind's f at the mean ybar and resistance g."""
        c = self.coefficients
        return c["ybar"] * ybar + c["g"] * g + c["1"]

    @property
    def y_slope(self) -> float:
        """The coefficient of y in f. Every family is affine in y, so
        f(t, y1, ...) - f(t, y0, ...) = y_slope * (y1 - y0); the implicit node
        step of the deflated solve is solved in closed form on this."""
        return self.params[0] if self.mode == QUADRATIC else self.coefficients["y"]

    def evaluate(self, t: float, y, ybar: float, z, zbar, g: float):
        """Vectorized over the particle axis: y (m,), z (m, d); returns (m,)."""
        y = np.asarray(y, dtype=float)
        if self.mode == LIPSCHITZ:
            return self.y_slope * y + self.scalar(t, ybar, g)
        # quadratic_z: a*y + (gamma/2)*min(|z|^2, cap) + b*|zbar|
        a, gamma, cap, b = self.params
        z = np.asarray(z, dtype=float)
        zsq = np.minimum(np.sum(z * z, axis=-1), cap)
        return a * y + 0.5 * gamma * zsq + b * float(np.linalg.norm(zbar))


def zero_driver() -> DriverSpec:
    return DriverSpec(kind="zero")


def constant_driver(value: float) -> DriverSpec:
    return DriverSpec(kind="constant", params=(float(value),))


def linear_y_driver(a: float) -> DriverSpec:
    return DriverSpec(kind="linear_y", params=(float(a),))


def linear_mean_driver(a: float) -> DriverSpec:
    return DriverSpec(kind="linear_mean", params=(float(a),))


def mean_resist_driver(a: float, b: float) -> DriverSpec:
    return DriverSpec(kind="mean_resist", params=(float(a), float(b)))


def quadratic_z_driver(a: float, gamma: float, z_cap: float, b: float,
                       zero_bound: float) -> DriverSpec:
    return DriverSpec(kind="quadratic_z", zero_bound=float(zero_bound),
                      params=(float(a), float(gamma), float(z_cap), float(b)))


@dataclass(frozen=True, eq=False)
class ResistanceSpec:
    """Adapted, sup-norm-1-Lipschitz functional of the deterministic k-path."""

    kind: str

    def __post_init__(self):
        if self.kind not in RESISTANCE_KINDS:
            raise ValueError(f"unknown resistance kind {self.kind!r}")

    def apply(self, grid, k_path) -> np.ndarray:
        """Path t_i -> G_{t_i}(k) on the grid nodes.

        The integral family uses the left rule, matching the piecewise-constant
        interpretation of k between nodes.
        """
        k = np.asarray(k_path, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(k)
        if self.kind == "evaluation":
            return k.copy()
        if self.kind == "running_sup":
            return np.maximum.accumulate(np.abs(k))
        out = np.zeros_like(k)
        out[1:] = np.cumsum(k[:-1]) * grid.dt
        return out / max(grid.T, 1.0)


@dataclass(frozen=True, eq=False)
class TerminalSpec:
    """Terminal payoff g(B_T). Built-in families read the first Brownian
    coordinate."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        _require_kind("terminal", TERMINAL_KINDS, self.kind, self.params)
        _require_finite("terminal", *self.params)

    @property
    def bound(self) -> float | None:
        """The essential bound of g, used in quadratic mode (None: unbounded)."""
        return abs(self.params[0]) if self.kind == "scaled_tanh" else None

    def evaluate(self, terminal_state) -> np.ndarray:
        x = np.asarray(terminal_state, dtype=float)[..., 0]
        if self.kind == "brownian":
            return x.copy()
        if self.kind == "brownian_shift":
            return x + self.params[0]
        scale, = self.params
        return scale * np.tanh(x)


def brownian_terminal() -> TerminalSpec:
    return TerminalSpec(kind="brownian")


def brownian_shift_terminal(c: float) -> TerminalSpec:
    return TerminalSpec(kind="brownian_shift", params=(float(c),))


def scaled_tanh_terminal(scale: float = 1.0) -> TerminalSpec:
    return TerminalSpec(kind="scaled_tanh", params=(float(scale),))


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Full problem instance on [0, horizon] with d-dimensional noise."""

    name: str
    horizon: float
    brownian_dim: int
    terminal: TerminalSpec
    driver: DriverSpec
    resistance: ResistanceSpec
    loss: LossSpec

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be positive and finite")
        if self.brownian_dim < 1:
            raise ValueError("brownian_dim must be >= 1")
        if self.driver.mode == QUADRATIC and self.terminal.bound is None:
            raise ModeError("quadratic mode requires a bounded terminal condition")

    @property
    def mode(self) -> str:
        return self.driver.mode

    def effective_bound(self) -> float | None:
        """Common bound L for terminal and driver in quadratic mode."""
        if self.mode != QUADRATIC:
            return None
        return max(self.terminal.bound, self.driver.zero_bound)


def validate_assumptions(spec: ScenarioSpec, seed: int) -> float:
    """The margin of the terminal constraint E[l(T, xi)] >= 0 that the mean
    reflection starts from: max(0, -mean) / (3 se + 1e-12) of l(T, xi) on
    `TERMINAL_DRAWS` draws of B_T from `default_rng(seed)`, in antithetic
    pairs (x, 0.0 - x), so that an odd l(T, xi) reads its zero mean up to
    rounding. A ratio of at most `PASS_RATIO` passes.

    The other standing assumptions (the generator's growth, the Lipschitz
    resistance, the bi-Lipschitz loss with linear growth, the bounded
    terminal in quadratic mode) are formulas of each spec's kind and
    parameters, so a spec that builds meets them.
    """
    x = np.random.default_rng(seed).standard_normal((TERMINAL_DRAWS // 2, spec.brownian_dim))
    b_T = np.concatenate([x, 0.0 - x]) * math.sqrt(spec.horizon)
    lvals = spec.loss.evaluate(spec.horizon, spec.terminal.evaluate(b_T))
    se = float(np.std(lvals)) / math.sqrt(TERMINAL_DRAWS)
    return max(0.0, -float(np.mean(lvals))) / (3.0 * se + 1e-12)
