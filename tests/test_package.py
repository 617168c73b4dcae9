"""Tests for the package namespace: every exported name resolves on first use."""

import sys

import pytest

import wittcurve


def test_exports_resolve_to_their_submodule_objects():
    for name in wittcurve.__all__:
        if name == "__version__":
            continue
        obj = getattr(wittcurve, name)
        assert obj.__module__.startswith("wittcurve.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        # the first access stores the name, so later ones are plain lookups
        assert vars(wittcurve)[name] is obj


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wittcurve import *", namespace)
    assert set(wittcurve.__all__) <= set(namespace)
    assert namespace["make_field"] is wittcurve.make_field
    assert namespace["__version__"] == wittcurve.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'wittcurve' has no attribute 'nope'$"):
        wittcurve.nope
