"""The package's public names: each module's ``__all__``, re-exported."""

import lqobt
from lqobt import databt, errors, gramians, model, numcore, quadrature, synth

MODULES = (databt, errors, gramians, model, numcore, quadrature, synth)


def test_package_exports_the_module_lists():
    # each name is declared once, in its module's __all__, and the package
    # exports exactly the concatenation of those lists
    assert lqobt.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(lqobt.__all__)) == len(lqobt.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lqobt, name) is getattr(module, name), name


def test_oracle_alias_and_factor_helpers_stay_in_their_modules():
    # the tests' whole-matrix oracle, the time route's alias and the
    # Gramian factor helpers are not public, but their modules keep them
    for name in ("build_data_matrices", "lqo_qbt_streamed", "psd_sqrt_factor",
                 "lyapunov_factor"):
        assert name not in lqobt.__all__
    assert callable(lqobt.databt.build_data_matrices)
    assert callable(lqobt.databt.lqo_qbt_streamed)
    assert callable(lqobt.gramians.psd_sqrt_factor)
    # compute_gramians can raise it, so it stays public
    assert "IndefiniteMatrixError" in lqobt.__all__
