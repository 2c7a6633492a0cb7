"""Minimal-shift operator: the smallest x >= 0 making the expected running loss
of a shifted law nonnegative, on empirical and exact finite-support laws."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LossSpec, SolverError, hl_constant

DEFAULT_BRACKET_CAP = 2.0 ** 60


class NonFiniteLawError(ValueError):
    """A law with a non-finite atom: the values it is read off overflowed."""


class BracketError(SolverError):
    """The expected loss is negative at the cap shift: the loss violates the
    positive-tail assumption numerically."""


@dataclass(frozen=True, eq=False)
class EmpiricalLaw:
    """Finite-support law: atoms with optional weights (uniform when None).

    The moments E[X], E[sin X] and E[cos X] are computed on first use and kept
    as scalars on the law, and their np.sin and np.cos arrays only by a held law."""

    atoms: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        if not np.all(np.isfinite(atoms)):
            raise NonFiniteLawError("law atoms must be finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            if w.shape != atoms.shape:
                raise ValueError("weights must match atoms")
            if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
                raise ValueError("weights must be nonnegative and sum to 1")

    def mean(self, values) -> float:
        if self.weights is None:
            return float(np.mean(values))
        return float(np.dot(self.weights, values))

    @cached_property
    def mean_atom(self) -> float:
        return self.mean(self.atoms)

    @cached_property
    def mean_sin(self) -> float:
        return self.mean(self._formed("sin", np.sin(self.atoms)))

    @cached_property
    def mean_cos(self) -> float:
        return self.mean(self._formed("cos", np.cos(self.atoms)))

    def sin_atoms(self) -> np.ndarray:
        """np.sin of the atoms for a caller that needs the array; its mean is
        kept as `mean_sin`, which then costs no second pass."""
        values = self._formed("sin", np.sin(self.atoms))
        self.__dict__.setdefault("mean_sin", self.mean(values))
        return values

    def hold(self) -> EmpiricalLaw:
        """Keep the np.sin and np.cos arrays of later passes for `release_loss`."""
        self.__dict__["held"] = {}
        return self

    def _formed(self, name: str, values: np.ndarray) -> np.ndarray:
        self.__dict__.get("held", {})[name] = values     # kept by a held law only
        return values


def expected_loss(loss: LossSpec, t: float, law: EmpiricalLaw, x: float) -> float:
    """E[l(t, x + X)] for the finite-support law of X; nondecreasing in x.

    At x = 0 this is the weighted mean of the losses at the atoms, the exact
    value every zero shift is decided on, kept on the law as a float per
    (loss, t); the sine family takes its np.sin array from `law.sin_atoms()`,
    which also keeps E[sin X]. At any other x it
    is `LossSpec.shifted_mean` of the law's moments: O(1) once they are known,
    and equal to the direct mean of l(t, x + X) to within a few ulps of
    |x| + max|X| + 1.
    """
    if x != 0.0:
        return loss.shifted_mean(t, x, law)
    at_zero = law.__dict__.setdefault("at_zero", {})
    if (loss, t) not in at_zero:
        sin = None if loss.kind == "linear_shift" else law.sin_atoms()
        at_zero[loss, t] = law.mean(loss.evaluate(t, law.atoms, sin))
    return at_zero[loss, t]


def release_loss(loss: LossSpec, t: float, law: EmpiricalLaw, x: float) -> np.ndarray | None:
    """l(t, X + x) at each atom X of a held law, which gives its arrays up,
    formed in place in its np.sin X (past x = 0 by the addition formula with
    np.cos X, one rounding from np.sin(X + x)); None, and the arrays dropped,
    when the law holds no np.sin X or, past x = 0, no np.cos X (the linear
    family, or a search that stopped at x = 0)."""
    sin, cos = map(law.__dict__.pop("held", {}).get, ("sin", "cos"))
    if sin is None or (x != 0.0 and cos is None):
        return None
    if x != 0.0:
        sin *= np.cos(x)
        cos *= np.sin(x)
        sin += cos
    sin *= loss.params[0]
    sin += law.atoms if x == 0.0 else np.add(law.atoms, x, out=cos)
    return sin      # y + beta sin y, added in the order LossSpec.evaluate adds them


def _from_bits(bits: int) -> float:
    return struct.unpack("d", struct.pack("q", bits))[0]


def loss_operator(loss: LossSpec, t: float, law: EmpiricalLaw,
                  offset: float = 0.0) -> float:
    """Smallest float x >= 0 with E[l(t, x + offset + X)] >= 0.

    Returns exactly 0 when the constraint already holds at x = 0; otherwise
    bisects [0, DEFAULT_BRACKET_CAP] on the int64 bit patterns of its floats
    until the ends are adjacent floats, and returns the upper end: the loss was
    evaluated nonnegative there and negative one float below. Nonnegative
    doubles are ordered as their bit patterns, so the search takes at most 63
    halvings, subnormal shifts included, and needs no tolerance. Raises
    BracketError when the expected loss is still negative at the cap.

    Every evaluation is one `expected_loss` call. The one at x = 0 is a pass
    over the atoms; the rest read the law's memoised moments, so after the
    first of them each costs O(1), and a positive shift takes at most two
    trigonometric passes over the atoms (sin at x = 0, cos after it).

    `offset` shifts the law by a constant: every evaluation is `expected_loss`
    at x + offset, so a law kept across searches computes its moments once.
    """
    if expected_loss(loss, t, law, offset) >= 0.0:
        return 0.0
    if expected_loss(loss, t, law, DEFAULT_BRACKET_CAP + offset) < 0.0:
        raise BracketError(f"no nonnegative expected loss below shift "
                           f"{DEFAULT_BRACKET_CAP:g} at t={t}")
    lo, hi = 0, struct.unpack("q", struct.pack("d", DEFAULT_BRACKET_CAP))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if expected_loss(loss, t, law, _from_bits(mid) + offset) >= 0.0:
            hi = mid
        else:
            lo = mid
    return _from_bits(hi)


def hl_lipschitz_probe(loss: LossSpec, t: float,
                       law_pairs: list[tuple[EmpiricalLaw, EmpiricalLaw]]) -> float:
    """Worst |shift(X) - shift(Y)| / (C * E|X - Y|) over coupled law pairs.

    Pairs are coupled by shared particle index; C is the bi-Lipschitz ratio of
    the loss. A value <= 1 + 1e-6 is a pass. A law shared by several pairs is
    searched once.
    """
    c = hl_constant(loss)
    worst = 0.0
    shifts = {}           # id(law) -> shift; the pairs keep every law alive
    for law_a, law_b in law_pairs:
        if law_a.atoms.shape != law_b.atoms.shape:
            raise ValueError("coupled laws need equal atom counts")
        denom = c * law_a.mean(np.abs(law_a.atoms - law_b.atoms))
        if denom <= 0.0:
            continue
        for law in (law_a, law_b):
            if id(law) not in shifts:
                shifts[id(law)] = loss_operator(loss, t, law)
        worst = max(worst, abs(shifts[id(law_a)] - shifts[id(law_b)]) / denom)
    return worst
