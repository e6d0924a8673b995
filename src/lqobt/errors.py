"""Exception types shared across the package.

:class:`OrderError` is the one that the command line turns into a usage
error naming a flag: the computation, not the flag's parser, finds it.
"""

__all__ = [
    "LyapunovError",
    "IndefiniteMatrixError",
    "UnstableSystemError",
    "FrequencyCollisionError",
    "OrderError",
]


class LyapunovError(RuntimeError):
    """A Lyapunov or Sylvester equation has no unique stable solution.

    Raised when a coefficient matrix is not Hurwitz (its real Schur form
    has an eigenvalue of real part >= 0, named in the message), or when
    LAPACK ``trsyl`` reports that eigenvalues of the two coefficients
    nearly cancel.
    """


class IndefiniteMatrixError(ValueError):
    """A matrix required to be positive semidefinite is substantially indefinite."""


class UnstableSystemError(ValueError):
    """A system required to be asymptotically stable has an eigenvalue with Re >= 0."""


class FrequencyCollisionError(ValueError):
    """A resolvent is evaluated at (numerically) an eigenvalue, or two
    sampling frequencies collide and break a divided difference."""


class OrderError(ValueError):
    """A reduction order lies outside ``[1, limit]``, the limit being the
    resolvable rank of ``H`` (its singular values above ``RANK_TOL`` of the
    largest) or ``H``'s column count, if smaller."""
