"""The package root exports each public name from the module that defines it."""

from __future__ import annotations

from importlib import import_module

import pytest

import sentrade


@pytest.mark.parametrize("name", sentrade.__all__)
def test_export_is_its_defining_modules_object(name):
    module = import_module(f"sentrade.{sentrade._HOME[name]}")
    value = getattr(sentrade, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_export():
    assert set(sentrade.__all__) <= set(dir(sentrade))


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from sentrade import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sentrade.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'sentrade' has no attribute 'no_such_name'"):
        sentrade.no_such_name  # noqa: B018
