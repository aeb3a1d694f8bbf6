import hgritz
import hgritz.basis as basis
import hgritz.numerov as numerov
import hgritz.quadrature as quadrature
import hgritz.spectral as spectral

#: Names the package no longer has: node counts come from node_counts alone,
#: parity from the exact zeros of eigh's parity blocks, and check_mhu returns
#: the report's check dicts.  Basis functions come from basis_table rows, and
#: the scalar evaluators, inner product, node rule and node grid that only
#: tests called are reference oracles in tests/helpers.py.
REMOVED = ("reconstruct", "WavefunctionSamples", "parity_classify", "PARITY_TOL",
           "MIXED", "MhuReport", "CheckResult", "basis_value", "basis_derivative",
           "inner_product", "count_nodes", "default_node_grid", "decay_length",
           "minimum_order")


def test_public_surface():
    namespace = {}
    exec("from hgritz import *", namespace)
    assert len(set(hgritz.__all__)) == len(hgritz.__all__)
    for name in hgritz.__all__:
        assert namespace[name] is getattr(hgritz, name), name
    for name in REMOVED:
        assert name not in hgritz.__all__
        for module in (hgritz, basis, numerov, quadrature, spectral):
            assert not hasattr(module, name), (module.__name__, name)
