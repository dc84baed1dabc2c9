"""The public surface of the birkhoff package."""

import types

import birkhoff


def test_all_is_sorted_unique_and_names_every_public_binding():
    # each public name is written twice in __init__, once imported and once
    # in __all__; this fails as soon as the two lists drift apart
    names = birkhoff.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {
        name
        for name, value in vars(birkhoff).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
