"""Tests for the package's public names."""

import ergofilt


def test_star_import_binds_every_exported_name():
    # an __all__ entry left behind by a deletion makes the star import raise
    namespace = {}
    exec("from ergofilt import *", namespace)
    assert set(ergofilt.__all__) <= namespace.keys()
