"""The docstring examples in every pellrat module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import pellrat

MODULES = sorted(info.name for info in pkgutil.iter_modules(pellrat.__path__, "pellrat."))


@pytest.mark.parametrize("name", ["pellrat", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result


def test_docstring_examples_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in ["pellrat", *MODULES])
    assert attempted > 0
