import zenodisc


def test_every_export_resolves():
    # A stale name in __all__ fails only a star import, which nothing else makes.
    assert [name for name in zenodisc.__all__ if not hasattr(zenodisc, name)] == []
    exec("from zenodisc import *", {})
