"""The package's public names."""

import types

import tspga


def test_all_lists_every_public_name():
    # The rule __all__ is computed by: every name bound in the package that
    # is neither private nor a submodule, sorted.
    public = (name for name, value in vars(tspga).items() if not isinstance(value, types.ModuleType))
    assert tspga.__all__ == sorted(name for name in public if not name.startswith("_"))
