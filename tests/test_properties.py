"""Property tests for the invariance the compressed time-domain reducer
rests on: the reduced model sees the rows of ``[H | M | h]`` only through
inner products, so it does not change under an orthogonal transform of
those rows, nor under a row compression ``Q'`` whenever the range of
``Q`` holds the range of ``H``."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_rule, random_stable_system, tf_agree
from lqobt import DataMatrices, build_data_matrices, collect_time_data, reduce_from_matrices
from lqobt.databt import RANK_TOL
from lqobt.numcore import svd

PTS = [0.4 + 1.0j, 2.0 + 0.3j]
seeds = st.integers(0, 2**32 - 1)
examples = settings(derandomize=True, deadline=None, max_examples=25)


def _case(seed, m, p):
    """A small random system, its data matrices and an order whose
    truncation is well defined: a singular value above 1e-3 of the first,
    separated from the next by at least 1% of it."""
    rng = np.random.default_rng(seed)
    sys_ = random_stable_system(rng, n=int(rng.integers(2, 9)), m=m, p=p)
    ds = collect_time_data(sys_, random_rule(rng, max_nodes=5),
                           random_rule(rng, max_nodes=5))
    dm = build_data_matrices(ds)
    S = np.append(svd(dm.H).S, 0.0)
    orders = [r for r in (3, 2, 1)
              if S[r - 1] >= 1e-3 * S[0] and S[r - 1] - S[r] >= 1e-2 * S[r - 1]]
    assume(orders)
    return sys_, dm, orders[0], rng


def _rows_mapped(dm, T):
    return DataMatrices(H=T @ dm.H, M=T @ dm.M, h=T @ dm.h, g=dm.g, K=dm.K,
                        domain=dm.domain)


@examples
@given(seed=seeds, m=st.integers(1, 2), p=st.integers(1, 2))
def test_rom_is_invariant_under_orthogonal_row_transforms(seed, m, p):
    sys_, dm, r, rng = _case(seed, m, p)
    rows = dm.H.shape[0]
    T, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    tf_agree(reduce_from_matrices(dm, r), reduce_from_matrices(_rows_mapped(dm, T), r),
             PTS, rtol=1e-8, scale_sys=sys_)


@examples
@given(seed=seeds, m=st.integers(1, 2), p=st.integers(1, 2),
       extra=st.integers(0, 6))
def test_rom_is_invariant_under_range_preserving_compression(seed, m, p, extra):
    # Q holds an orthonormal basis of range(H) plus `extra` random
    # directions; M and h need not lie in its range
    sys_, dm, r, rng = _case(seed, m, p)
    res = svd(dm.H)
    Z = res.Z[:, res.S > RANK_TOL * res.S[0]]
    extra = min(extra, dm.H.shape[0] - Z.shape[1])
    Q, _ = np.linalg.qr(np.hstack([Z, rng.standard_normal((Z.shape[0], extra))]))
    tf_agree(reduce_from_matrices(dm, r), reduce_from_matrices(_rows_mapped(dm, Q.T), r),
             PTS, rtol=1e-8, scale_sys=sys_)
