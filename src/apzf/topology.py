"""Topology and CSIT-quality model for the 2x2 network.

Two single-antenna transmitters jointly serve two single-antenna receivers.
Link strengths and channel-estimate qualities are described on the exponent
scale relative to a nominal power ``P``:

* ``gamma[i, k]`` is the strength exponent of the link TX ``k`` -> RX ``i``;
  the fading coefficient of that link has variance ``P**(gamma[i, k] - 1)``.
* ``alpha[j][i, k]`` is the quality exponent of TX ``j``'s local estimate of
  the (i, k) fading coefficient; the estimation-error variance decays as
  ``P**(-alpha[j][i, k])`` relative to the link variance.

Everything downstream (closed forms, layered schemes) assumes exponents in
``[0, 1]``, estimate quality no better than the link itself
(``alpha <= gamma`` entrywise), and one transmitter whose quality matrix
dominates the other's entrywise.  ``validate`` checks exactly these
conditions, ``canonicalize`` relabels the network into the orientation the
closed forms are written for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "CsitQuality",
    "EffectiveExponents",
    "CanonicalForm",
    "ValidationError",
    "GammaOutOfRange",
    "AlphaOutOfRange",
    "NoDominantTransmitter",
    "ValidationReport",
    "validate",
    "canonicalize",
    "effective_alphas",
]


class ValidationError(ValueError):
    """Input outside the domain covered by the closed-form results."""


class GammaOutOfRange(ValidationError):
    """A link-strength exponent lies outside [0, 1]."""

    def __init__(self, rx: int, tx: int, value: float):
        self.rx, self.tx, self.value = rx, tx, value
        super().__init__(f"gamma[{rx},{tx}] = {value!r} outside [0, 1]")

    def __reduce__(self):
        # pickle rebuilds an exception from its args, here only the message
        return type(self), (self.rx, self.tx, self.value)


class AlphaOutOfRange(ValidationError):
    """A CSIT quality exponent lies outside [0, gamma] for its link."""

    def __init__(self, tx_est: int, rx: int, tx: int, value: float, gamma: float):
        self.tx_est, self.rx, self.tx, self.value = tx_est, rx, tx, value
        self.gamma = gamma
        super().__init__(
            f"alpha[{tx_est}][{rx},{tx}] = {value!r} outside [0, gamma] with gamma = {gamma!r}"
        )

    def __reduce__(self):
        return type(self), (self.tx_est, self.rx, self.tx, self.value, self.gamma)


class NoDominantTransmitter(ValidationError):
    """Neither transmitter's quality matrix dominates the other entrywise.

    The achievability construction assigns all interference-cancelling
    duties to a single better-informed transmitter, so it needs one TX
    whose alpha matrix is >= the other's in every entry.
    """

    def __init__(self):
        super().__init__("neither TX's CSIT quality dominates the other elementwise")

    def __reduce__(self):
        return type(self), ()


@dataclass
class Topology:
    """Link-strength exponents, ``gamma[i, k]`` for TX ``k`` -> RX ``i``."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.shape != (2, 2):
            raise ValueError(f"gamma must be 2x2, got shape {self.gamma.shape}")

    @classmethod
    def parallel(cls, cross: float) -> "Topology":
        """Symmetric topology with unit direct links and equal cross links."""
        return cls(np.array([[1.0, cross], [cross, 1.0]]))


@dataclass
class CsitQuality:
    """Per-transmitter estimate qualities, ``alpha[j, i, k]`` at TX ``j``."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (2, 2, 2):
            raise ValueError(f"alpha must be 2x2x2, got shape {self.alpha.shape}")

    @classmethod
    def uniform(cls, alpha_tx1: float, alpha_tx2: float) -> "CsitQuality":
        """Each TX has a single quality exponent for every link."""
        a = np.empty((2, 2, 2))
        a[0] = alpha_tx1
        a[1] = alpha_tx2
        return cls(a)


@dataclass
class EffectiveExponents:
    """Reduced CSIT exponents used by the closed forms.

    alpha_max[i, k]  best quality about link (i, k) across the two TXs
    alpha_prime[i]   min over columns of alpha_max, the network-wide
                     effective quality about RX i
    """

    alpha_max: np.ndarray
    alpha_prime: np.ndarray


@dataclass
class CanonicalForm:
    """A relabelled instance with the strongest link moved to gamma[0, 0].

    ``rx_swap`` / ``tx_swap`` record the relabelling that was applied.
    ``active_tx`` is the index (after relabelling) of the transmitter whose
    quality matrix dominates; it carries the interference-cancelling role.
    """

    topology: Topology
    csit: CsitQuality
    rx_swap: bool
    tx_swap: bool
    active_tx: int


@dataclass
class ValidationReport:
    violations: list

    @property
    def passes(self) -> bool:
        return not self.violations

    def raise_first(self) -> None:
        if self.violations:
            raise self.violations[0]


def _dominates(x: list, y: list) -> bool:
    """Whether the 2x2 float list ``x`` is >= ``y`` in every entry."""
    (x00, x01), (x10, x11) = x
    (y00, y01), (y10, y11) = y
    return x00 >= y00 and x01 >= y01 and x10 >= y10 and x11 >= y11


def _range_violations(g: list, alphas) -> list:
    """Range violations of 2x2 float lists, in ``validate``'s order.

    ``g`` is gamma; ``alphas`` yields ``(tx_est, alpha)`` pairs, each
    alpha checked against ``g``.  Gamma entries come first, then each
    alpha in turn, row-major within a matrix.
    """
    violations: list[ValidationError] = []
    for i in 0, 1:
        for k in 0, 1:
            if not (0.0 <= g[i][k] <= 1.0):
                violations.append(GammaOutOfRange(i, k, g[i][k]))
    for j, a in alphas:
        for i in 0, 1:
            gi, ai = g[i], a[i]
            for k in 0, 1:
                if not (0.0 <= ai[k] <= gi[k]):
                    violations.append(AlphaOutOfRange(j, i, k, ai[k], gi[k]))
    return violations


def validate(topology: Topology, csit: CsitQuality) -> ValidationReport:
    """Collect every domain violation of a (topology, csit) pair.

    Checks, in order: gamma entries in [0, 1]; alpha entries in
    [0, gamma] for their link; existence of an entrywise dominant TX.
    """
    a = csit.alpha.tolist()
    violations = _range_violations(topology.gamma.tolist(), enumerate(a))
    if not (_dominates(a[0], a[1]) or _dominates(a[1], a[0])):
        violations.append(NoDominantTransmitter())
    return ValidationReport(violations)


def _permute(gamma: np.ndarray, alpha: np.ndarray, rx_swap: bool, tx_swap: bool):
    g, a = gamma, alpha
    if rx_swap:
        g = g[::-1, :]
        a = a[:, ::-1, :]
    if tx_swap:
        g = g[:, ::-1]
        a = a[::-1, :, ::-1]
    return g.copy(), a.copy()


# Candidate relabellings, tried in order; first hit wins so that the
# identity is preferred on ties.
_RELABELLINGS = ((False, False), (True, False), (False, True), (True, True))


def canonicalize(topology: Topology, csit: CsitQuality) -> CanonicalForm:
    """Relabel RXs/TXs so the strongest link sits at gamma[0, 0].

    Swapping TX labels also swaps which estimate belongs to which TX, so
    alpha is permuted in both its transmitter axis and its column axis.
    The dominant transmitter keeps its role but may end up at either
    index; the result's ``active_tx`` says where.  Raises the first
    validation error if the input is outside the supported domain.
    """
    validate(topology, csit).raise_first()
    g, a = topology.gamma.tolist(), csit.alpha.tolist()
    target = max(max(g[0]), max(g[1]))
    for rx_swap, tx_swap in _RELABELLINGS:
        # This relabelling moves gamma[int(rx_swap), int(tx_swap)] to the corner.
        if g[rx_swap][tx_swap] == target:
            break
    gamma, alpha = _permute(topology.gamma, csit.alpha, rx_swap, tx_swap)
    # Both alphas get the same row and column flips, so dominance after
    # the relabelling is dominance of the TX that lands at index 0.
    active_tx = 0 if _dominates(a[tx_swap], a[not tx_swap]) else 1
    return CanonicalForm(Topology(gamma), CsitQuality(alpha), rx_swap, tx_swap, active_tx)


def effective_alphas(topology: Topology, csit: CsitQuality) -> EffectiveExponents:
    """Reduce the 2x2x2 quality tensor to the exponents the closed forms use.

    The network is limited by the best-informed transmitter for each link
    (max over TXs), and its quality about RX i by the worse of RX i's two
    links (min over columns).

    It does not check its input.  ``distributed_gdof`` and
    ``genie_outer_bound`` validate before they call it, and
    ``scheme_layout`` calls it on validated alphas or, for the naive
    baseline, their entrywise minimum.  It runs up to three times per
    closed-form evaluation, so a ``validate`` here would add its cost to
    every instance of a GDoF map.
    """
    a = csit.alpha
    alpha_max = np.maximum(a[0], a[1])
    alpha_prime = np.minimum(alpha_max[:, 0], alpha_max[:, 1])
    return EffectiveExponents(alpha_max, alpha_prime)


def dyadic_instance(rng: np.random.Generator, grid: int = 1024):
    """Random valid (topology, csit) on the 1/grid lattice with a dominant TX.

    Exponents that are exact binary fractions keep min/max branch
    selection and the closed-form identities exact in float64.  The
    self-checks in ``apzf.checks`` draw from this, so its
    sequence of ``rng`` calls is part of their seeded output.
    """
    gamma = rng.integers(0, grid + 1, size=(2, 2)) / grid
    hi = rng.integers(0, (gamma * grid).astype(int) + 1, size=(2, 2)) / grid
    lo = rng.integers(0, (hi * grid).astype(int) + 1, size=(2, 2)) / grid
    alpha = np.stack([hi, lo]) if rng.random() < 0.5 else np.stack([lo, hi])
    return Topology(gamma), CsitQuality(alpha)
