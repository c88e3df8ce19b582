"""The package's export list."""

import deepesn


def test_all_names_resolve_once():
    namespace = {}
    exec("from deepesn import *", namespace)
    del namespace["__builtins__"]
    # a stale name fails the import, a repeated one the comparison
    assert sorted(namespace) == sorted(deepesn.__all__)
