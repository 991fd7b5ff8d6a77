"""The package's public surface: every exported name resolves."""

import orbit_betti


def test_every_exported_name_resolves():
    assert len(set(orbit_betti.__all__)) == len(orbit_betti.__all__)
    for name in orbit_betti.__all__:
        assert getattr(orbit_betti, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from orbit_betti import *", namespace)
    assert set(orbit_betti.__all__) <= set(namespace)
