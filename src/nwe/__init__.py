"""Locally indistinguishable orthogonal product states: construction and
exact certification that every orthogonality-preserving local measurement
must be proportional to the identity.

The package exports the API the README and scripts use; everything else is
imported from its submodule (`nwe.states`, `nwe.verifier`, ...).

`import nwe` loads only `nwe.states` and `nwe.constructions`, which generate
the families. The verification engines load on first use: the first lookup
of one of their names (say `nwe.verify_all`) or of the module itself
(`nwe.verifier`) imports the module and binds the name here, so later
lookups cost nothing extra. A caller that only generates sets or compares
sizes never compiles them."""

from .constructions import ConstructionError, gen_equal, gen_general, prior_sizes
from .states import DimensionError, InvariantError, NonOrthogonalSetError, StateSet

__version__ = "0.1.0"

# each name loaded on first use -> the submodule that defines it
_LAZY = {
    "derive_certificate": "inference",
    "render_certificate": "inference",
    "DocumentError": "serialize",
    "load_state_set": "serialize",
    "save_state_set": "serialize",
    "assemble": "verifier",
    "verify_all": "verifier",
}
_SUBMODULES = frozenset(_LAZY.values())

__all__ = [
    "ConstructionError",
    "DimensionError",
    "InvariantError",
    "NonOrthogonalSetError",
    "StateSet",
    "gen_equal",
    "gen_general",
    "prior_sizes",
    *_LAZY,
    "__version__",
]


def __getattr__(name: str):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
