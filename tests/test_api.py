"""The public names of the package."""

import oswr


def test_every_exported_name_resolves():
    assert [name for name in oswr.__all__ if not hasattr(oswr, name)] == []


def test_star_import():
    namespace = {}
    exec("from oswr import *", namespace)
    assert set(oswr.__all__) <= set(namespace)
