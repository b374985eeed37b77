import quiddity


def test_every_export_resolves():
    # a deleted function left in __all__ breaks `from quiddity import *`
    assert [name for name in quiddity.__all__ if not hasattr(quiddity, name)] == []
    assert len(set(quiddity.__all__)) == len(quiddity.__all__)
