"""The 1/2 lattice (``checks.lattice``) and the closed forms on it.

The lattice reaches every case split of the closed forms and every tie
between their exponents, so a rewritten comparison that picks the other
operand on a tie shows on it.  ``checks.closed_form_identity`` and
``checks.layout_totals``, which ``apzf validate`` and
``test_acceptance`` run, hold the identity and the layout totals on
every instance; this file checks the lattice itself, the relabelling
invariance and the canonical forms.
"""

import hashlib
import itertools

import pytest

from apzf import (
    CanonicalForm,
    CsitQuality,
    Topology,
    canonicalize,
    distributed_gdof,
    genie_outer_bound,
)
from apzf.checks import lattice
from test_signed_zero_pins import INSTANCE_SETS as SIGNED_ZERO_SETS


@pytest.fixture(scope="module")
def half_lattice():
    return list(lattice(2))


def _bits(x):
    """``x`` with every float as its hex string (which tells -0.0 from 0.0)
    and every other leaf with its type."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(_bits(item) for item in x)
    return type(x), x


def test_the_half_lattice_has_every_instance_once(half_lattice):
    assert len(half_lattice) == 18_704
    assert len({(t.gamma.tobytes(), c.alpha.tobytes()) for t, c in half_lattice}) == 18_704
    forms = [canonicalize(*instance) for instance in half_lattice]
    # Canonical: gamma[0, 0] is the first maximum and TX 0 dominates.
    assert sum(not f.rx_swap and not f.tx_swap and f.active_tx == 0 for f in forms) == 6_193
    # The order is fixed: the bytes of every instance, in turn.
    digest = hashlib.sha256(b"".join(t.gamma.tobytes() + c.alpha.tobytes() for t, c in half_lattice))
    assert digest.hexdigest() == "f66210b1754ba4812a33dd934ffcc5102c5c60fb33497e54ef79602de644d30d"


def _relabelled(topo, csit, rx_swap, tx_swap):
    """The instance with its RXs and/or its TXs swapped; a TX swap also
    swaps which estimate is whose."""
    gamma, alpha = topo.gamma, csit.alpha
    if rx_swap:
        gamma, alpha = gamma[::-1], alpha[:, ::-1]
    if tx_swap:
        gamma, alpha = gamma[:, ::-1], alpha[::-1, :, ::-1]
    return Topology(gamma.copy()), CsitQuality(alpha.copy())


def test_both_forms_are_unchanged_under_the_four_relabellings(half_lattice):
    # genie_outer_bound goes through no relabelling, so this checks it for real.
    failures = []
    for topo, csit in half_lattice:
        values = set()
        for swaps in itertools.product((False, True), repeat=2):
            instance = _relabelled(topo, csit, *swaps)
            values.add(tuple(form(*instance).value.hex() for form in (distributed_gdof, genie_outer_bound)))
        if len(values) != 1:
            failures.append((topo.gamma.tolist(), csit.alpha.tolist(), sorted(values)))
    assert failures[:3] == []


def test_canonicalize_equals_the_public_constructor(half_lattice):
    # canonicalize makes its forms without the constructor; == leaves
    # alpha_prime out, so every field is also compared bit for bit.
    signed_zero = [instance for make in SIGNED_ZERO_SETS.values() for instance in make()]
    names = ("gamma", "alpha", "rx_swap", "tx_swap", "active_tx", "alpha_prime")
    for topo, csit in half_lattice + signed_zero:
        form = canonicalize(topo, csit)
        built = CanonicalForm(form.gamma, form.alpha, form.rx_swap, form.tx_swap, form.active_tx)
        assert built == form
        assert [_bits(getattr(built, n)) for n in names] == [_bits(getattr(form, n)) for n in names]
