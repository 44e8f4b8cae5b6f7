"""Tests for the package namespace: the public names are the modules' ``__all__``."""

import probcert
from probcert import chernoff_opt, errors, estimator, tail_bounds, verification

MODULES = (errors, tail_bounds, estimator, chernoff_opt, verification)


def test_all_is_the_modules_lists_in_order():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert probcert.__all__ == expected
    assert len(set(probcert.__all__)) == len(probcert.__all__) == 39


def test_each_public_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(probcert, name) is getattr(module, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from probcert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(probcert.__all__)
