"""The package's public names: each module's ``__all__``, re-exported,
and the module attributes that the benchmark's tracer rebinds."""

import ast
import importlib
import pathlib

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


TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_names_the_benchmark_tracer_rebinds_resolve():
    # perfbench/tracing.py rebinds (module, attribute) pairs by name during
    # a traced pass; read its PATCHES table without running the file, so
    # that a change dropping one of those names fails here
    tree = ast.parse(TRACING.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["PATCHES"])
    pairs = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert pairs
    for module_name, attr in pairs:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
