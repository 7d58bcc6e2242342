import rankhull


def test_every_exported_name_resolves():
    missing = [name for name in rankhull.__all__ if not hasattr(rankhull, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(rankhull.__all__)) == len(rankhull.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from rankhull import *", namespace)
    assert set(rankhull.__all__) <= set(namespace)
