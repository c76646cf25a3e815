"""Two-site Bose-Hubbard system with balanced single-site gain and loss.

Subpackages cover the truncated Fock space and observables (`fock`), the
Lindblad generator and time propagation (`liouville`), closed-form results
in the non-interacting limit (`closedform`), the moment-closure dynamics
and steady-state root search (`bbr`), the two-mode mean-field equation
(`meanfield`), non-equilibrium steady-state solvers (`steadysolve`) and a
scenario runner (`cli`).
"""

from .system import SystemParams
from .fock import TwoModeBasis, build_basis

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "TwoModeBasis",
    "build_basis",
    "__version__",
]
