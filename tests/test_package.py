import hgritz
import hgritz.spectral as spectral

#: Names the package no longer has: node counts come from node_counts alone,
#: parity from the exact zeros of eigh's parity blocks, and check_mhu returns
#: the report's check dicts.
REMOVED = ("reconstruct", "WavefunctionSamples", "parity_classify", "PARITY_TOL",
           "MIXED", "MhuReport", "CheckResult")


def test_public_surface():
    namespace = {}
    exec("from hgritz import *", namespace)
    assert len(set(hgritz.__all__)) == len(hgritz.__all__)
    for name in hgritz.__all__:
        assert namespace[name] is getattr(hgritz, name), name
    for name in REMOVED:
        assert name not in hgritz.__all__
        assert not hasattr(hgritz, name), name
        assert not hasattr(spectral, name), name
