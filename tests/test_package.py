"""The package namespace: what ``import posdefwalks`` binds and exports."""

import types

import posdefwalks


def test_all_lists_every_public_name_the_package_binds():
    # __all__ and the import list in __init__.py are kept by hand; they must agree.
    bound = {
        name
        for name, value in vars(posdefwalks).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(posdefwalks.__all__) == len(set(posdefwalks.__all__))
    assert set(posdefwalks.__all__) == bound | {"__version__"}
