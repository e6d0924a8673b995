"""Property tests for the invariance the compressed reducers rest on: the
reduced model sees the rows of ``[H | M | h]`` only through inner
products, so it does not change under an orthogonal transform of those
rows, nor under a row compression ``Q'`` whenever the range of ``Q``
holds the range of ``H``. Every data input applies such a compression,
``I_p (x) V_k (x) V_j``, read off a cross of its samples."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    compressed_rows,
    factored_h,
    random_rule,
    random_stable_system,
    tf_agree,
)
from lqobt import (
    DataMatrices,
    collect_freq_data,
    collect_time_data,
    lqo_qbt,
    reduce_from_matrices,
)
from lqobt import databt
from lqobt.databt import build_data_matrices, lqo_qbt_streamed
from lqobt.numcore import RANK_TOL, svd

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


def _recorded(name, seen):
    """``databt.<name>``, recording its last result in `seen`."""
    fn = getattr(databt, name)

    def spied(*args, **kwargs):
        seen[name] = fn(*args, **kwargs)
        return seen[name]

    return spied


@examples
@given(seed=seeds, m=st.integers(1, 2), p=st.integers(1, 2),
       source=st.sampled_from(["time sampler", "time dataset", "freq dataset"]))
def test_cross_rows_are_the_oracle_rows_on_the_mode_bases(seed, m, p, source):
    # every input reads the same rows off its cross: the oracle's whole
    # rows at the interpolation rows, mapped onto I_p (x) V_k (x) V_j; a
    # sample unit is a node (m rows of the k mode) in time and a conjugate
    # pair (2m) in frequency. The rows of H lie in the bases' range, so
    # there they equal the projection. Those of M need not: when the
    # columns U do not span an A-invariant subspace (N_p m < n), A U
    # leaves it, and M's cross differs from its projection. H is held
    # whole; M only in H's singular coordinates, as Z'MY
    rng = np.random.default_rng(seed)
    sys_ = random_stable_system(rng, n=int(rng.integers(2, 9)), m=m, p=p)
    if source == "freq dataset":
        rule_p = random_rule(rng, max_nodes=6, lo=0.2, hi=3.0)
        rule_q = random_rule(rng, max_nodes=6, lo=0.2, hi=3.0, avoid=rule_p)
        ds = collect_freq_data(sys_, rule_p, rule_q)
    else:
        rule_p, rule_q = random_rule(rng, max_nodes=12), random_rule(rng, max_nodes=12)
        ds = collect_time_data(sys_, rule_p, rule_q)
    seen = {}
    spies = {name: _recorded(name, seen)
             for name in ("_mode_bases", "_compressed_matrices")}
    with mock.patch.multiple(databt, **spies):
        if source == "time sampler":
            _, H, res = factored_h(lambda: lqo_qbt_streamed(sys_, rule_p, rule_q, []))
        else:
            _, H, res = factored_h(lambda: lqo_qbt(ds, 1))
    (Vk, Ik, _), (Vj, Ij, _) = seen["_mode_bases"]
    assert (Ik.size, Ij.size) == (Vk.shape[1], Vj.shape[1])
    Gk, Gj = np.linalg.inv(Vk[Ik]), np.linalg.inv(Vj[Ij])
    core, whole = seen["_compressed_matrices"], build_data_matrices(ds)
    nl = ds.Nq * p

    def cross_rows(oracle):
        # quadratic rows (q, k, j, a) -> (q, k-mode row (k, a), j, column),
        # read at the rows I_k, I_j and mapped by G_k (x) G_j into the
        # cross's order (r_k, r_j, q)
        quad = np.moveaxis(oracle[nl:].reshape(p, ds.Np, ds.Nq, m, -1), 3, 2)
        cross = quad.reshape(p, ds.Np * m, ds.Nq, -1)[:, Ik][:, :, Ij]
        core = np.einsum("rk,sj,qkjc->rsqc", Gk, Gj, cross)
        return np.vstack([oracle[:nl], core.reshape(-1, oracle.shape[1])])

    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    assert_close(H, cross_rows(whole.H))
    assert_close(H, compressed_rows(whole.H, nl, p, m, Vk, Vj))
    assert_close(core.M, res.Z.T @ cross_rows(whole.M) @ res.Y)


@examples
@given(seed=seeds, m=st.integers(1, 2), p=st.integers(1, 2), shifted=st.booleans())
def test_freq_k_fibres_lie_in_the_span_of_the_sample_columns(seed, m, p, shifted):
    # a k-fibre of the quadratic Loewner rows at the nodes j and l is
    # c (a_j - b_l), or c (i s_j a_j - i th_l b_l), of a tf2_cross column
    # a_j and a tf2_quad column b_l, so the k basis may come from those
    # columns (_real_k_columns) at the probe pairs: every real fibre there,
    # realified as the rows are, lies in their span
    rng = np.random.default_rng(seed)
    sys_ = random_stable_system(rng, n=int(rng.integers(2, 9)), m=m, p=p)
    rule_p = random_rule(rng, max_nodes=12, lo=0.2, hi=3.0)
    rule_q = random_rule(rng, max_nodes=6, lo=0.2, hi=3.0, avoid=rule_p)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    n_k, n_j = ds.Np // 2, ds.Nq // 2
    ju = np.sort(rng.choice(n_j, int(rng.integers(1, n_j + 1)), replace=False))
    lu = np.sort(rng.choice(n_k, int(rng.integers(1, n_k + 1)), replace=False))
    C = databt._real_k_columns(ds, ju, lu)
    assert C.shape == (n_k * 2 * m, 2 * (2 * ju.size + lu.size) * p * m)
    fibres = databt._real_quadratic(ds, np.arange(n_k), ju, lu, shifted)
    F = fibres.reshape(C.shape[0], -1)
    U, S, _ = np.linalg.svd(C, full_matrices=False)
    Q = U[:, S > 1e-15 * S[0]]
    off = np.linalg.norm(F - Q @ (Q.T @ F), axis=0)
    assert (off <= 1e-12 * np.linalg.norm(F, axis=0)).all()
