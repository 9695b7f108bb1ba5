import types

import softctc


def test_every_exported_name_resolves_to_a_non_module():
    assert len(set(softctc.__all__)) == len(softctc.__all__)
    for name in softctc.__all__:
        assert not isinstance(getattr(softctc, name), types.ModuleType), name

