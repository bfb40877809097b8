"""GDoF closed forms and achievability simulation for the 2-user MISO
broadcast channel with distributed CSIT."""

from . import channel, gdof, harness, precoders, scheme, topology
from .channel import *  # noqa: F403
from .gdof import *  # noqa: F403
from .harness import *  # noqa: F403
from .precoders import *  # noqa: F403
from .scheme import *  # noqa: F403
from .topology import *  # noqa: F403

__version__ = "0.1.0"

# Each submodule's __all__ is the one list of its public names.
__all__ = sorted(
    name for module in (channel, gdof, harness, precoders, scheme, topology) for name in module.__all__
)
