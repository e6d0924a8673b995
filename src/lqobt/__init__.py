"""Balanced truncation of linear systems with quadratic outputs.

The package provides two routes to the same reduced-order model:

* an intrusive route operating on state-space matrices through Gramians
  and their square-root factors (:mod:`lqobt.gramians`), and
* a data-driven route operating purely on samples of impulse-response
  kernels or transfer functions (:mod:`lqobt.databt`), which reproduces
  the intrusive result in the limit of exact quadrature.

Each module's ``__all__`` declares its public names; the package exports
exactly those.
"""

from . import databt, errors, gramians, model, numcore, quadrature, synth
from .databt import *  # noqa: F403
from .errors import *  # noqa: F403
from .gramians import *  # noqa: F403
from .model import *  # noqa: F403
from .numcore import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (databt, errors, gramians, model, numcore, quadrature, synth)
    for name in module.__all__
]
