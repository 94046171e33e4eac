"""The package's public surface."""

import jobcast


def test_every_export_resolves():
    """``__all__`` names only what the package defines, so removing an API
    cannot leave a stale export behind."""
    assert [name for name in jobcast.__all__ if not hasattr(jobcast, name)] == []
