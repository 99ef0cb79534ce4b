"""The package's public surface: ``claimflow.__all__``."""
import inspect

import claimflow


def test_all_is_sorted_unique_and_resolves():
    names = claimflow.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(claimflow, name)] == []


def test_every_public_import_is_exported():
    public = {name for name, value in vars(claimflow).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public <= set(claimflow.__all__)
