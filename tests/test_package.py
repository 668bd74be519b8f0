"""The package namespace: every exported name loads from its module."""

import specfuse


def test_every_exported_name_resolves():
    for name in specfuse.__all__:
        assert getattr(specfuse, name) is not None, name
