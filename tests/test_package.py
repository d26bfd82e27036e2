"""The package's public surface."""

import radiofield


def test_every_exported_name_resolves():
    missing = [name for name in radiofield.__all__ if not hasattr(radiofield, name)]
    assert missing == []
    assert len(set(radiofield.__all__)) == len(radiofield.__all__)
