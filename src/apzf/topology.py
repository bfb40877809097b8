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
closed forms are written for.  Both wrap list helpers (``_checked``,
``_canonical``) that work on Python floats read once from each array;
the closed forms call them directly, and reduce alpha to its effective
exponents with ``_effective`` on the same lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "CsitQuality",
    "CanonicalForm",
    "ValidationError",
    "GammaOutOfRange",
    "AlphaOutOfRange",
    "NoDominantTransmitter",
    "ValidationReport",
    "validate",
    "canonicalize",
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


def _in_range(x: list, hi: list) -> tuple:
    """Per entry of the 2x2 float list ``x``, row-major: 0 <= x <= ``hi``."""
    (x00, x01), (x10, x11) = x
    (h00, h01), (h10, h11) = hi
    return 0.0 <= x00 <= h00, 0.0 <= x01 <= h01, 0.0 <= x10 <= h10, 0.0 <= x11 <= h11


_UNIT = [[1.0, 1.0], [1.0, 1.0]]
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _range_violations(g: list, alphas: list, tx_ests: tuple) -> list:
    """Range violations of 2x2 float lists, in ``validate``'s order.

    ``g`` is gamma; each of ``alphas`` is checked against ``g`` and its
    errors carry the matching ``tx_ests`` entry.  Gamma entries come
    first, then each alpha in turn, row-major within a matrix.  Input in
    range returns before any error is built.
    """
    flags = _in_range(g, _UNIT)
    for a in alphas:
        flags += _in_range(a, g)
    if all(flags):
        return []
    # Each entry's error, in the order of the flags; keep the failed ones.
    gs = g[0] + g[1]
    errors = [GammaOutOfRange(i, k, v) for (i, k), v in zip(_ENTRIES, gs)]
    for j, a in zip(tx_ests, alphas):
        errors += [AlphaOutOfRange(j, *ik, v, hi) for ik, v, hi in zip(_ENTRIES, a[0] + a[1], gs)]
    return [error for error, fine in zip(errors, flags) if not fine]


def _violations(topology: Topology, csit: CsitQuality) -> tuple:
    """Gamma and alpha as float lists, and every domain violation of them."""
    g, a = topology.gamma.tolist(), csit.alpha.tolist()
    violations = _range_violations(g, a, (0, 1))
    if not (_dominates(a[0], a[1]) or _dominates(a[1], a[0])):
        violations.append(NoDominantTransmitter())
    return g, a, violations


def validate(topology: Topology, csit: CsitQuality) -> ValidationReport:
    """Collect every domain violation of a (topology, csit) pair.

    Checks, in order: gamma entries in [0, 1]; alpha entries in
    [0, gamma] for their link; existence of an entrywise dominant TX.
    """
    return ValidationReport(_violations(topology, csit)[2])


def _checked(topology: Topology, csit: CsitQuality) -> tuple:
    """Gamma and alpha as float lists; raises ``validate``'s first violation."""
    g, a, violations = _violations(topology, csit)
    if violations:
        raise violations[0]
    return g, a


# Candidate relabellings, tried in order; first hit wins so that the
# identity is preferred on ties.
_RELABELLINGS = ((False, False), (True, False), (False, True), (True, True))


def _flip(x: list, rows: bool, cols: bool) -> list:
    """The 2x2 float list ``x`` with its rows and/or its columns swapped."""
    r0, r1 = (x[1], x[0]) if rows else x
    return [r0[::-1], r1[::-1]] if cols else [r0, r1]


def _canonical(g: list, a: list) -> tuple:
    """``canonicalize`` on validated float lists: ``(g, a, rx_swap, tx_swap, active_tx)``."""
    (g00, g01), (g10, g11) = g
    # Relabelling n moves the n-th of these to the corner; the first largest wins.
    rx_swap, tx_swap = _RELABELLINGS[[g00, g10, g01, g11].index(max(g00, g01, g10, g11))]
    # Both alphas get the same row and column flips, so dominance after
    # the relabelling is dominance of the TX that lands at index 0.
    active_tx = 0 if _dominates(a[tx_swap], a[not tx_swap]) else 1
    if rx_swap or tx_swap:
        g = _flip(g, rx_swap, tx_swap)
        a = [_flip(a[tx_swap], rx_swap, tx_swap), _flip(a[not tx_swap], rx_swap, tx_swap)]
    return g, a, rx_swap, tx_swap, active_tx


def canonicalize(topology: Topology, csit: CsitQuality) -> CanonicalForm:
    """Relabel RXs/TXs so the strongest link sits at gamma[0, 0].

    Swapping TX labels also swaps which estimate belongs to which TX, so
    alpha is permuted in both its transmitter axis and its column axis.
    The dominant transmitter keeps its role but may end up at either
    index; the result's ``active_tx`` says where.  Raises the first
    validation error if the input is outside the supported domain.
    """
    g, a, rx_swap, tx_swap, active_tx = _canonical(*_checked(topology, csit))
    return CanonicalForm(Topology(g), CsitQuality(a), rx_swap, tx_swap, active_tx)


def _max(x: float, y: float) -> float:
    """``numpy.maximum`` of two floats: ``y`` on a tie, NaN if either is."""
    return x if x > y or x != x else y


def _effective(a: list) -> tuple:
    """``(alpha_max, alpha_prime)`` of the 2x2x2 float list ``a``: the best
    quality about each link over the TXs, and its min over each RX's row.

    Ties and NaNs go as in ``numpy.maximum`` and ``numpy.minimum``: a tie
    gives the second operand, which decides between -0.0 and 0.0.
    """
    (x00, x01), (x10, x11) = a[0]
    (y00, y01), (y10, y11) = a[1]
    m00, m01, m10, m11 = _max(x00, y00), _max(x01, y01), _max(x10, y10), _max(x11, y11)
    # numpy.minimum(x, y) is -numpy.maximum(-x, -y), signed zeros included.
    return [[m00, m01], [m10, m11]], [-_max(-m00, -m01), -_max(-m10, -m11)]


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
