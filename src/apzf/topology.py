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

Both work on Python floats read once from each array.  The conditions
are one rule, ``_domain``, which decides an instance from its unpacked
floats in one function body and builds error objects only when a check
fails; ``validate``, ``_read`` and ``gdof.centralized_gdof`` all go
through it.

``_read`` is the one reading of an instance that ``canonicalize``,
``gdof.distributed_gdof`` and ``gdof.genie_outer_bound`` share: the
float lists, checked by ``_domain``, the effective exponents
(``_effective``) of the raw alpha, and ``_canonical``'s relabelling.
It keeps only the last instance read, keyed on the dtype, shape and
bytes of both arrays, so the three entry points on one pair read,
check and relabel it once, an edit to either array is seen on the next
call, and a map over many instances recomputes each one.  An error is
never kept.  The relabelling is a frozen ``CanonicalForm`` of float
tuples that derives its effective exponents when it is made, so every
reader shares it: ``canonicalize`` returns it as it is.  ``validate``
reads its arrays itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CanonicalForm:
    """A relabelled instance with the strongest link moved to gamma[0, 0].

    ``gamma`` (2x2) and ``alpha`` (2x2x2) are the relabelled exponents as
    nested float tuples, which the closed forms read directly, and
    ``alpha_prime`` their effective exponents (``_effective``), derived
    when the form is made.  The constructor copies the exponents it is
    given, as lists, arrays or tuples, out as float tuples, so a later
    edit of the caller's lists cannot make ``alpha_prime`` stale.
    ``_canonical`` makes its forms without that copy, from float tuples
    it has just built and that nothing else holds.  ``topology`` and
    ``csit`` make the same exponents into new arrays on each read.
    ``rx_swap`` / ``tx_swap`` record the relabelling that was applied.  ``active_tx`` is the index
    (after relabelling) of the transmitter whose quality matrix
    dominates; it carries the interference-cancelling role.
    """

    gamma: tuple
    alpha: tuple
    rx_swap: bool
    tx_swap: bool
    active_tx: int
    alpha_prime: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a0, a1 = self.alpha
        object.__setattr__(self, "gamma", _floats(self.gamma))
        object.__setattr__(self, "alpha", (_floats(a0), _floats(a1)))
        object.__setattr__(self, "alpha_prime", _effective(self.alpha)[1])

    @property
    def topology(self) -> Topology:
        return Topology(self.gamma)

    @property
    def csit(self) -> CsitQuality:
        return CsitQuality(self.alpha)


@dataclass
class ValidationReport:
    violations: list

    @property
    def passes(self) -> bool:
        return not self.violations

    def raise_first(self) -> None:
        if self.violations:
            raise self.violations[0]


_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _domain(g: list, a: list, tx_est: tuple = (0, 1)) -> tuple:
    """The domain rule on float lists: ``(dominance, violations)``.

    ``g`` is gamma (2x2) and ``a`` the two TXs' alphas (2x2x2); errors
    about ``a[j]`` carry ``tx_est[j]``.  ``dominance[j]`` is whether
    ``a[j]`` is >= the other alpha in every entry.  ``violations`` is in
    ``validate``'s order: gamma entries outside [0, 1], then each alpha's
    entries outside [0, gamma], row-major within a matrix, then
    ``NoDominantTransmitter`` if neither alpha dominates.  An instance in
    the domain passes one short-circuit chain of the twelve range checks
    and returns; only an instance that fails a check has each entry
    checked again, one flag per entry, and its errors built.
    """
    (g00, g01), (g10, g11) = g
    (x00, x01), (x10, x11) = a[0]
    (y00, y01), (y10, y11) = a[1]
    dominance = (
        x00 >= y00 and x01 >= y01 and x10 >= y10 and x11 >= y11,
        y00 >= x00 and y01 >= x01 and y10 >= x10 and y11 >= x11,
    )
    if (
        (dominance[0] or dominance[1])
        and 0.0 <= g00 <= 1.0 and 0.0 <= g01 <= 1.0 and 0.0 <= g10 <= 1.0 and 0.0 <= g11 <= 1.0
        and 0.0 <= x00 <= g00 and 0.0 <= x01 <= g01 and 0.0 <= x10 <= g10 and 0.0 <= x11 <= g11
        and 0.0 <= y00 <= g00 and 0.0 <= y01 <= g01 and 0.0 <= y10 <= g10 and 0.0 <= y11 <= g11
    ):
        return dominance, []
    # Each entry's error and upper bound, in validate's order; keep the failed ones.
    gs = (g00, g01, g10, g11)
    errors = [GammaOutOfRange(i, k, v) for (i, k), v in zip(_ENTRIES, gs)]
    for j, (r0, r1) in zip(tx_est, a):
        errors += [AlphaOutOfRange(j, i, k, v, hi) for (i, k), v, hi in zip(_ENTRIES, r0 + r1, gs)]
    values = gs + (x00, x01, x10, x11, y00, y01, y10, y11)
    violations = [
        error for error, v, hi in zip(errors, values, (1.0,) * 4 + gs + gs) if not 0.0 <= v <= hi
    ]
    if True not in dominance:
        violations.append(NoDominantTransmitter())
    return dominance, violations


def validate(topology: Topology, csit: CsitQuality) -> ValidationReport:
    """Collect every domain violation of a (topology, csit) pair.

    Checks, in order: gamma entries in [0, 1]; alpha entries in
    [0, gamma] for their link; existence of an entrywise dominant TX.
    """
    return ValidationReport(_domain(topology.gamma.tolist(), csit.alpha.tolist())[1])


# Candidate relabellings, tried in order; first hit wins so that the
# identity is preferred on ties.
_RELABELLINGS = ((False, False), (True, False), (False, True), (True, True))


def _floats(x) -> tuple:
    """The 2x2 ``x`` as nested float tuples."""
    (x00, x01), (x10, x11) = x
    return (float(x00), float(x01)), (float(x10), float(x11))


def _flip(x: list, rows: bool, cols: bool) -> tuple:
    """The 2x2 float list ``x`` as nested tuples, its rows and/or its columns swapped."""
    (x00, x01), (x10, x11) = (x[1], x[0]) if rows else x
    return ((x01, x00), (x11, x10)) if cols else ((x00, x01), (x10, x11))


def _canonical(g: list, a: list, dominance: tuple) -> CanonicalForm:
    """``canonicalize`` on float lists and ``_domain``'s dominance flags."""
    (g00, g01), (g10, g11) = g
    # Relabelling n moves the n-th of these to the corner; the first largest wins.
    rx_swap, tx_swap = _RELABELLINGS[[g00, g10, g01, g11].index(max(g00, g01, g10, g11))]
    # Both alphas get the same row and column flips, so dominance after
    # the relabelling is dominance of the TX that lands at index 0.
    active_tx = 0 if dominance[tx_swap] else 1
    a = (_flip(a[tx_swap], rx_swap, tx_swap), _flip(a[not tx_swap], rx_swap, tx_swap))
    # Made without the constructor: its copy would rebuild the float
    # tuples just built here, which no caller holds.
    form = object.__new__(CanonicalForm)
    fields = form.__dict__
    fields["gamma"] = _flip(g, rx_swap, tx_swap)
    fields["alpha"] = a
    fields["rx_swap"] = rx_swap
    fields["tx_swap"] = tx_swap
    fields["active_tx"] = active_tx
    fields["alpha_prime"] = _effective(a)[1]
    return form


def canonicalize(topology: Topology, csit: CsitQuality) -> CanonicalForm:
    """Relabel RXs/TXs so the strongest link sits at gamma[0, 0].

    Swapping TX labels also swaps which estimate belongs to which TX, so
    alpha is permuted in both its transmitter axis and its column axis.
    The dominant transmitter keeps its role but may end up at either
    index; the result's ``active_tx`` says where.  Raises the first
    validation error if the input is outside the supported domain.
    """
    return _read(topology, csit)[2]


def _effective(a: list) -> tuple:
    """``(alpha_max, alpha_prime)`` of the 2x2x2 float list ``a``: the best
    quality about each link over the TXs, and its min over each RX's row.

    Ties and NaNs go as in ``numpy.maximum`` and ``numpy.minimum``: a tie
    gives the second operand, which decides between -0.0 and 0.0, and a
    NaN operand gives NaN.
    """
    (x00, x01), (x10, x11) = a[0]
    (y00, y01), (y10, y11) = a[1]
    m00 = x00 if x00 > y00 or x00 != x00 else y00
    m01 = x01 if x01 > y01 or x01 != x01 else y01
    m10 = x10 if x10 > y10 or x10 != x10 else y10
    m11 = x11 if x11 > y11 or x11 != x11 else y11
    return ((m00, m01), (m10, m11)), (
        m00 if m00 < m01 or m00 != m00 else m01,
        m10 if m10 < m11 or m10 != m10 else m11,
    )


# The last instance read, as one ``(key, reading)`` pair.  ``_read``
# takes it and replaces it in one assignment each, so a thread never
# pairs one instance's key with another's reading; two threads can at
# worst each read again what the other just read.
_last_read = (None, None)


def _read(topology: Topology, csit: CsitQuality) -> tuple:
    """The reading of an instance the closed forms share:
    ``(g, alpha_max, form)``.

    ``g`` is gamma as float lists, ``alpha_max`` the first effective
    exponent of the raw alpha and ``form`` the instance's
    ``CanonicalForm``.  Raises ``validate``'s first violation.  Only the
    last instance read is kept, keyed on the dtype, shape and bytes of
    both arrays, so an edit to either array is seen on the next call; an
    error is never kept.
    """
    global _last_read
    gamma, alpha = topology.gamma, csit.alpha
    key = (gamma.dtype, gamma.shape, gamma.tobytes(), alpha.dtype, alpha.shape, alpha.tobytes())
    last_key, reading = _last_read
    if key == last_key:
        return reading
    g, a = gamma.tolist(), alpha.tolist()
    dominance, violations = _domain(g, a)
    if violations:
        raise violations[0]
    reading = g, _effective(a)[0], _canonical(g, a, dominance)
    _last_read = key, reading
    return reading

