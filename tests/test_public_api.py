"""The package's public surface, as __all__ lists it."""

from __future__ import annotations

import types

import min3gen


def test_all_lists_exactly_the_public_names():
    # Star-import binds every name of __all__, and __all__ lists every
    # public name the package binds, so that a deleted name can linger in
    # neither.
    namespace: dict[str, object] = {}
    exec("from min3gen import *", namespace)
    assert set(min3gen.__all__) <= namespace.keys()
    public = {
        name
        for name, value in vars(min3gen).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(min3gen.__all__) == sorted(public)
