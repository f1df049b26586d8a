"""The package's public surface."""

import types

import agekit


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(agekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(agekit.__all__) == bound
    assert len(agekit.__all__) == len(set(agekit.__all__))
