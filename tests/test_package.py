import cliquecomm


def test_every_export_resolves():
    missing = [name for name in cliquecomm.__all__ if not hasattr(cliquecomm, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert cliquecomm.__all__ == sorted(set(cliquecomm.__all__))
