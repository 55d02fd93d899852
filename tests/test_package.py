"""The package's public names."""

import types

import tspga


def test_all_lists_every_public_name():
    # One list to keep: a name imported into the package and not listed in
    # __all__, or listed and not imported, fails here.
    public = (name for name, value in vars(tspga).items() if not isinstance(value, types.ModuleType))
    assert tspga.__all__ == sorted(name for name in public if not name.startswith("_"))
