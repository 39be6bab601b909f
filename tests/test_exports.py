"""The package namespace: every exported name resolves lazily to its submodule's object."""

import importlib

import pytest

import fatrec


def test_every_export_is_the_submodule_object():
    assert len(fatrec.__all__) == len(set(fatrec.__all__)) == 45
    listed = dir(fatrec)
    for module, names in fatrec._EXPORTS.items():
        sub = importlib.import_module(f"fatrec.{module}")
        for name in names.split():
            assert getattr(fatrec, name) is getattr(sub, name), name
            assert name in fatrec.__all__ and name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fatrec.no_such_name
    assert not hasattr(fatrec, "_partitions")
    assert fatrec.__version__ == "0.1.0"
