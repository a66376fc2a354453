"""Locally indistinguishable orthogonal product states: construction and
exact certification that every orthogonality-preserving local measurement
must be proportional to the identity.

The package exports the API the README and scripts use; everything else is
imported from its submodule (`nwe.states`, `nwe.verifier`, ...)."""

from .constructions import ConstructionError, gen_equal, gen_general, prior_sizes
from .inference import derive_certificate, render_certificate
from .serialize import DocumentError, load_state_set, save_state_set
from .states import DimensionError, NonOrthogonalSetError, StateSet
from .verifier import InvariantError, assemble, nullspace, rank, verify_all

__version__ = "0.1.0"
