"""Each public name is declared once, in its module's ``__all__``, and
the package exports the union of those lists."""

import ast
import collections
import importlib
import itertools
from pathlib import Path

import apzf
from apzf import CsitQuality, SweepConfig, Topology, canonicalize, plan_layout, sweep
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


def test_every_public_precoder_is_called_by_the_sweep(monkeypatch):
    # A public precoder the kernel never calls is tested as a composition
    # the sweep does not run.  Every scheme kind, and a case-2 instance
    # whose apzf layout carries z1, so every precoder has its chance.
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in precoders.__all__:
        # raising=False: a name scheme does not bind is set, and then never called.
        monkeypatch.setattr(scheme, name, counted(name, getattr(precoders, name)), raising=False)
    config = SweepConfig(
        topology=Topology([[1.0, 0.6], [0.9, 0.5]]),
        csit=CsitQuality([[[0.6, 0.4], [0.5, 0.3]], [[0.2, 0.1], [0.1, 0.0]]]),
        schemes=("apzf", "centralized_zf", "naive_zf", "no_csit"),
        snr_db=(20.0, 40.0),
        draws=50,
        seed=23,
    )
    assert plan_layout(canonicalize(config.topology, config.csit), "apzf").rate_exp["z1"] > 0.0
    sweep(config)
    assert [name for name in precoders.__all__ if not calls[name]] == []


def _top_level_names(tree: ast.Module) -> list:
    """The functions, classes and constants a module defines at top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_top_level_name_is_public_or_used():
    # A function, class or constant that is neither in its module's
    # __all__ nor read anywhere in the package (as a name, an attribute or
    # an import) is dead code, left behind when its last caller went.
    sources = sorted(Path(apzf.__file__).parent.glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sources}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = []
    for stem, tree in trees.items():
        module = importlib.import_module("apzf" if stem == "__init__" else f"apzf.{stem}")
        public = set(getattr(module, "__all__", ())) | used
        unused += [f"{module.__name__}.{name}" for name in _top_level_names(tree) if name not in public]
    assert unused == []
