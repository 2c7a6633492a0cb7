import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    got = loss_operator(SINE, 0.0, law, tol=1e-10)
    ref = brute_force_shift(SINE, 0.0, law)
    assert abs(got - ref) <= 2e-6
    # the atoms are symmetric about -1 and the loss is odd: the root is exactly 1
    assert got == pytest.approx(1.0, abs=1e-9)


def test_loss_operator_weighted_law():
    law = EmpiricalLaw(np.array([-1.0, 1.0]), np.array([0.75, 0.25]))
    # expected loss at shift x: x - 0.5, root at 0.5
    assert loss_operator(LINEAR, 0.0, law) == pytest.approx(0.5, abs=1e-9)


def test_loss_operator_rejects_bad_tol():
    with pytest.raises(ValueError):
        loss_operator(LINEAR, 0.0, EmpiricalLaw(np.array([0.0])), tol=0.0)


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
