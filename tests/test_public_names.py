"""Each public name is declared once, in its module's ``__all__``, and
the package exports the union of those lists."""

import itertools

import apzf
from apzf import channel, gdof, harness, precoders, scheme, topology

MODULES = (channel, gdof, harness, precoders, scheme, topology)


def test_module_name_lists_are_pairwise_disjoint():
    # A star import lets a later module shadow an earlier one's name
    # without a warning, so a clash must fail here.
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_package_exports_the_sorted_union():
    assert apzf.__all__ == sorted(name for m in MODULES for name in m.__all__)


def test_package_names_are_the_module_objects():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(apzf, name) is getattr(m, name), name
