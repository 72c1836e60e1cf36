"""Frequency-domain Granger connectivity from spectral factorizations.

The package computes total PDC and total DTF — connectivity measures
that fold instantaneous innovation correlation into the classical
PDC/DTF pictures — from any minimum-phase factorization of a spectral
density matrix.  Factors can come from parametric fits (VAR by
Nuttall-Strand, VMA/VARMA by two-step least squares) or nonparametrically
from a Welch cross-spectrum put through Wilson factorization.
"""

from . import connectivity as _connectivity, errors as _errors, estimators as _estimators
from . import experiments as _experiments, models as _models, simulate as _simulate
from . import welch as _welch, wilson as _wilson

# Each module's __all__ is the one list of its public names.  The star imports
# come after the aliased ones: ``from .simulate import *`` rebinds the package
# attribute ``simulate`` from the submodule to the function.
from .connectivity import *
from .errors import *
from .estimators import *
from .experiments import *
from .models import *
from .simulate import *
from .welch import *
from .wilson import *

__version__ = "0.1.0"

_MODULES = (_connectivity, _errors, _estimators, _experiments, _models, _simulate, _welch, _wilson)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
