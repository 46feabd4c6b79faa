import picrf


def test_every_export_resolves_once():
    """No name repeats in picrf.__all__, and each is defined, so that
    `from picrf import *` works."""
    assert len(set(picrf.__all__)) == len(picrf.__all__)
    namespace = {}
    exec("from picrf import *", namespace)
    assert set(picrf.__all__) <= namespace.keys()
