"""Balanced truncation of linear systems with quadratic outputs.

The package provides two routes to the same reduced-order model:

* an intrusive route operating on state-space matrices through Gramians
  and their square-root factors (:mod:`lqobt.gramians`), and
* a data-driven route operating purely on samples of impulse-response
  kernels or transfer functions (:mod:`lqobt.databt`), which reproduces
  the intrusive result in the limit of exact quadrature.
"""

from .databt import (
    DataMatrices,
    KernelDataset,
    build_data_matrices,
    collect_freq_data,
    collect_time_data,
    load_dataset,
    lqo_qbt,
    lqo_qbt_auto,
    lqo_qbt_streamed,
    reduce_from_matrices,
    save_dataset,
)
from .errors import (
    FrequencyCollisionError,
    IndefiniteMatrixError,
    LyapunovError,
    UnstableSystemError,
)
from .gramians import (
    Gramians,
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    intrusive_bt,
)
from .model import (
    LqoSystem,
    ReducedLqoSystem,
    Trajectory,
    load_system,
    save_system,
    select_channels,
)
from .numcore import (
    SvdResult,
    expm,
    psd_sqrt_factor,
    solve_lyapunov,
    solve_sylvester,
    svd,
)
from .quadrature import QuadratureRule, clenshaw_curtis, log_trapezoid
from .synth import synthesize_system, tridiag_stencil

__version__ = "0.1.0"

__all__ = [
    "DataMatrices",
    "FrequencyCollisionError",
    "Gramians",
    "IndefiniteMatrixError",
    "KernelDataset",
    "LqoSystem",
    "LyapunovError",
    "QuadratureRule",
    "ReducedLqoSystem",
    "SvdResult",
    "Trajectory",
    "UnstableSystemError",
    "build_data_matrices",
    "clenshaw_curtis",
    "collect_freq_data",
    "collect_time_data",
    "compute_gramians",
    "expm",
    "h2_error",
    "h2_norm",
    "hankel_singular_values",
    "intrusive_bt",
    "load_dataset",
    "load_system",
    "log_trapezoid",
    "lqo_qbt",
    "lqo_qbt_auto",
    "lqo_qbt_streamed",
    "psd_sqrt_factor",
    "reduce_from_matrices",
    "save_dataset",
    "save_system",
    "select_channels",
    "solve_lyapunov",
    "solve_sylvester",
    "svd",
    "synthesize_system",
    "tridiag_stencil",
]
