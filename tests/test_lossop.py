import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrbsde import lossop
from mrbsde.lossop import (BracketError, EmpiricalLaw, expected_loss,
                           hl_lipschitz_probe, loss_operator)
from mrbsde.model import linear_shift_loss, sine_perturbed_loss

LINEAR = linear_shift_loss()
SINE = sine_perturbed_loss(0.5)


def brute_force_shift(loss, t, law, step=1e-6, x_max=8.0, chunk=2 ** 16):
    """Scan oracle: first shift on a fine grid with nonnegative expected loss.

    The grid is scanned in chunks, each evaluated over all atoms at once."""
    xs = np.arange(0.0, x_max, step)
    for lo in range(0, len(xs), chunk):
        block = xs[lo:lo + chunk]
        vals = np.average(loss.evaluate(t, block[:, None] + law.atoms), axis=1,
                          weights=law.weights)
        hits = np.flatnonzero(vals >= 0.0)
        if hits.size:
            return block[hits[0]]
    raise AssertionError("scan oracle found no root")


def test_expected_loss_examples():
    assert expected_loss(LINEAR, 0.0, EmpiricalLaw(np.array([-1.0, 1.0])), 0.0) == 0.0
    shifted = linear_shift_loss(c0=0.3)
    assert expected_loss(shifted, 0.0, EmpiricalLaw(np.array([0.0]),
                                                    np.array([1.0])), 0.1) \
        == pytest.approx(-0.2, abs=1e-15)
    assert expected_loss(SINE, 0.0, EmpiricalLaw(np.array([-0.5, 0.5])), 0.0) \
        == pytest.approx(0.0, abs=1e-15)   # odd-function cancellation


def test_expected_loss_nondecreasing_in_shift():
    law = EmpiricalLaw(np.random.default_rng(0).normal(size=200))
    vals = [expected_loss(SINE, 0.2, law, x) for x in np.linspace(-2, 2, 41)]
    assert np.all(np.diff(vals) > 0.0)


def test_loss_operator_linear_cases():
    law = EmpiricalLaw(np.array([-0.5, -0.1]))          # mean -0.3
    assert loss_operator(LINEAR, 0.0, law) == pytest.approx(0.3, abs=1e-9)
    law_pos = EmpiricalLaw(np.array([0.1, 0.3]))        # mean +0.2
    assert loss_operator(LINEAR, 0.0, law_pos) == 0.0   # exactly zero


def test_loss_operator_sine_matches_scan_oracle():
    law = EmpiricalLaw(np.array([-2.0, 0.0]))
    got = loss_operator(SINE, 0.0, law)
    ref = brute_force_shift(SINE, 0.0, law)
    assert abs(got - ref) <= 2e-6
    # the atoms are symmetric about -1 and the loss is odd: the root is exactly 1
    assert got == pytest.approx(1.0, abs=1e-9)


def test_loss_operator_weighted_law():
    law = EmpiricalLaw(np.array([-1.0, 1.0]), np.array([0.75, 0.25]))
    # expected loss at shift x: x - 0.5, root at 0.5
    assert loss_operator(LINEAR, 0.0, law) == pytest.approx(0.5, abs=1e-9)


def test_bracket_expansion_cap():
    hopeless = linear_shift_loss(c0=1e30)
    with pytest.raises(BracketError):
        loss_operator(hopeless, 0.0, EmpiricalLaw(np.array([0.0]), np.array([1.0])))


def test_law_validation():
    with pytest.raises(ValueError):
        EmpiricalLaw(np.array([np.inf]))
    with pytest.raises(ValueError):
        EmpiricalLaw(np.array([0.0, 1.0]), np.array([0.9, 0.2]))


def test_hl_probe_identical_and_shifted():
    rng = np.random.default_rng(1)
    atoms = rng.normal(-2.0, 0.5, 500)      # constraint active on both laws
    law = EmpiricalLaw(atoms)
    assert hl_lipschitz_probe(LINEAR, 0.0, [(law, law)]) == 0.0
    shifted = EmpiricalLaw(atoms - 0.4)
    ratio = hl_lipschitz_probe(LINEAR, 0.0, [(law, shifted)])
    assert ratio == pytest.approx(1.0, abs=1e-6)   # saturation


def test_hl_probe_sine_random_couplings():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        atoms = rng.normal(rng.uniform(-3, 0), rng.uniform(0.2, 2.0), 100)
        pert = atoms + rng.normal(0.0, 0.3, 100)
        worst = max(worst, hl_lipschitz_probe(
            SINE, 0.5, [(EmpiricalLaw(atoms), EmpiricalLaw(pert))]))
    assert worst <= 1.0 + 1e-6


def test_hl_probe_rejects_uncoupled():
    with pytest.raises(ValueError):
        hl_lipschitz_probe(LINEAR, 0.0, [(EmpiricalLaw(np.zeros(3)),
                                          EmpiricalLaw(np.zeros(4)))])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
       st.floats(0, 5))
@settings(max_examples=60, deadline=None)
def test_enlarging_atoms_never_increases_shift(atoms, bump):
    law = EmpiricalLaw(np.array(atoms))
    bumped = EmpiricalLaw(np.array(atoms) + bump)
    assert loss_operator(SINE, 0.1, bumped) <= loss_operator(SINE, 0.1, law) + 1e-9


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
       st.floats(-20, 20))
@settings(max_examples=60, deadline=None)
def test_linear_loss_closed_form(atoms, shift):
    loss = linear_shift_loss(c0=shift)
    law = EmpiricalLaw(np.array(atoms))
    expected = max(0.0, shift - float(np.mean(atoms)))
    assert loss_operator(loss, 0.0, law) == pytest.approx(expected, abs=2e-10)


def test_result_independent_of_atom_order():
    rng = np.random.default_rng(3)
    atoms = rng.normal(-1.0, 1.0, 257)
    law = EmpiricalLaw(atoms)
    shuffled = EmpiricalLaw(atoms[rng.permutation(257)])
    a = loss_operator(SINE, 0.0, law)
    b = loss_operator(SINE, 0.0, shuffled)
    assert abs(a - b) <= 1e-9


class CountingLoss:
    """Counts the calls the shift search makes to `lossop.expected_loss`, and
    stops a search that runs away."""

    def __init__(self, monkeypatch, limit=1000):
        self.calls = 0
        self.limit = limit
        self.inner = lossop.expected_loss
        monkeypatch.setattr(lossop, "expected_loss", self)

    def __call__(self, *args):
        self.calls += 1
        if self.calls > self.limit:
            raise AssertionError("shift search did not terminate")
        return self.inner(*args)


def random_laws(seed, count, size=500):
    """Normal laws with the constraint active, half of them weighted."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        atoms = rng.normal(rng.uniform(-6.0, -0.1), rng.uniform(0.01, 2.0), size)
        weights = None
        if i % 2:
            weights = rng.uniform(size=size)
            weights /= weights.sum()
        yield EmpiricalLaw(atoms, weights)


@pytest.mark.parametrize("loss", [LINEAR, SINE, linear_shift_loss(0.3, 0.2, 5.0),
                                  sine_perturbed_loss(0.99)])
@pytest.mark.parametrize("gap", [1e-10, 1e-13])
def test_shift_contract_on_random_laws(loss, gap):
    # the smallest float with a nonnegative expected loss: negative one float
    # below, so also `gap` below
    for law in random_laws(11, 40):
        hi = loss_operator(loss, 0.4, law)
        assert hi > gap
        assert expected_loss(loss, 0.4, law, hi) >= 0.0
        assert expected_loss(loss, 0.4, law, np.nextafter(hi, 0.0)) < 0.0
        assert expected_loss(loss, 0.4, law, hi - gap) < 0.0


# x = 0, the cap and at most 63 halvings of the cap's bit pattern
MAX_EVALS = 65


@pytest.mark.parametrize("loss", [LINEAR, SINE])
def test_shift_search_evaluations_on_smooth_laws(loss, monkeypatch):
    counter = CountingLoss(monkeypatch)
    for law in random_laws(5, 40):
        counter.calls = 0
        loss_operator(loss, 0.0, law)
        assert counter.calls <= MAX_EVALS


@pytest.mark.parametrize("atoms, weights", [
    # clustered at the flat point y = -pi of y + 0.99 sin y
    (-np.pi + 1e-9 * np.random.default_rng(2).normal(size=100), None),
    # three clusters at flat points with uneven weights
    (np.array([-3.14159311, -15.70796276, -9.42477891]),
     np.array([0.01015297, 0.51360931, 0.47623772])),
])
def test_shift_search_worst_case_evaluations(atoms, weights, monkeypatch):
    loss, tol = sine_perturbed_loss(0.99), 1e-10
    law = EmpiricalLaw(atoms, weights)
    counter = CountingLoss(monkeypatch)
    hi = loss_operator(loss, 0.0, law)
    bracket_hi = 2.0 ** math.ceil(math.log2(hi))
    width = bracket_hi / 2.0 if bracket_hi > 1.0 else 1.0
    assert counter.calls <= 2 * math.ceil(math.log2(width / tol)) + 4
    assert counter.calls <= MAX_EVALS
    assert expected_loss(loss, 0.0, law, hi) >= 0.0 > expected_loss(
        loss, 0.0, law, np.nextafter(hi, 0.0))


def test_shift_search_stops_at_float_spacing(monkeypatch):
    # near 1e6 adjacent floats are 1.2e-10 apart
    loss = linear_shift_loss(c0=1e6 + 0.3)
    law = EmpiricalLaw(np.array([0.0]), np.array([1.0]))
    counter = CountingLoss(monkeypatch, limit=200)
    hi = loss_operator(loss, 0.0, law)
    assert counter.calls < 200
    assert expected_loss(loss, 0.0, law, hi) >= 0.0
    assert expected_loss(loss, 0.0, law, np.nextafter(hi, 0.0)) < 0.0


@st.composite
def losses(draw):
    if draw(st.booleans()):
        return sine_perturbed_loss(draw(st.floats(0.01, 0.99)))
    return linear_shift_loss(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
                             draw(st.floats(0.0, 10.0)))


@st.composite
def laws(draw, bound=1e6):
    """Finite-support laws of up to 32 atoms in [-bound, bound], half of them
    weighted."""
    atoms = np.array(draw(st.lists(st.floats(-bound, bound), min_size=1, max_size=32)))
    if not draw(st.booleans()):
        return EmpiricalLaw(atoms)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=atoms.size,
                               max_size=atoms.size)))
    return EmpiricalLaw(atoms, w / w.sum())


def assert_minimal_shift(loss, t, law):
    """The shift is the smallest float with a nonnegative expected loss: the
    loss is nonnegative there and negative one float below, unless it is 0.
    The search makes at most `MAX_EVALS` evaluations."""
    with pytest.MonkeyPatch.context() as mp:
        CountingLoss(mp, limit=MAX_EVALS)
        rho = loss_operator(loss, t, law)
    assert expected_loss(loss, t, law, rho) >= 0.0
    assert rho == 0.0 or expected_loss(loss, t, law, np.nextafter(rho, 0.0)) < 0.0
    return rho


@given(losses(), st.one_of(laws(1e6), laws(1e-300)), st.floats(0.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_shift_is_the_smallest_float_with_nonnegative_loss(loss, law, t):
    assert_minimal_shift(loss, t, law)


@pytest.mark.parametrize("loss", [LINEAR, SINE])
def test_shift_of_a_point_mass_below_zero_at_the_smallest_scale(loss):
    law = EmpiricalLaw(np.array([-1e-300]), np.array([1.0]))
    assert assert_minimal_shift(loss, 0.0, law) == pytest.approx(1e-300, rel=1e-12)


@given(losses(), laws(), st.floats(0.0, 2.0), st.floats(0.0, 2.0 ** 20))
@settings(max_examples=300, deadline=None)
def test_expected_loss_moment_form_matches_direct_mean(loss, law, t, x):
    direct = law.mean(loss.evaluate(t, x + law.atoms))
    got = expected_loss(loss, t, law, x)
    if x == 0.0:
        assert got == direct        # the zero shift is decided on the direct mean
        return
    # Both sides round each sum differently, by up to half an ulp of the scale
    # per atom, and the trigonometric terms by a few more.
    scale = abs(x) + float(np.max(np.abs(law.atoms))) + 1.0
    assert abs(got - direct) <= (law.atoms.size + 4) * np.spacing(scale)


class TrigPasses:
    """Counts np.sin and np.cos calls on arrays of `size` elements: the
    trigonometric passes over a law's atoms."""

    def __init__(self, monkeypatch, size):
        self.count = 0
        for name in ("sin", "cos"):
            monkeypatch.setattr(np, name, self._spy(getattr(np, name), size))

    def _spy(self, inner, size):
        def spy(values, *args, **kwargs):
            if np.size(values) == size:
                self.count += 1
            return inner(values, *args, **kwargs)
        return spy


def test_trig_passes_per_shift(monkeypatch):
    rng = np.random.default_rng(4)
    above, below = rng.normal(2.0, 1.0, 1000), rng.normal(-2.0, 1.0, 1000)
    pairs_atoms = [below + 0.25, below * 1.1, below + 0.1 * np.sin(below)]
    passes = TrigPasses(monkeypatch, 1000)

    assert loss_operator(SINE, 0.3, EmpiricalLaw(above)) == 0.0
    assert passes.count == 1                # the direct pass at x = 0 only
    passes.count = 0
    assert loss_operator(SINE, 0.3, EmpiricalLaw(below)) > 0.0
    assert passes.count == 2                # sin at x = 0, then cos once
    passes.count = 0
    assert loss_operator(LINEAR, 0.3, EmpiricalLaw(below)) > 0.0
    assert passes.count == 0

    passes.count = 0
    law = EmpiricalLaw(below)
    hl_lipschitz_probe(SINE, 0.3, [(law, EmpiricalLaw(a)) for a in pairs_atoms])
    assert passes.count == 2 * 4            # one set of moments for each of 4 laws
    assert {"mean_atom", "mean_sin", "mean_cos"} <= set(vars(law))
