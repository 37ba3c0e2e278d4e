import types

import papertrail


def test_public_names_are_the_package_imports():
    namespace: dict = {}
    exec("from papertrail import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == papertrail.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    # the names the README's library example imports
    assert {"analyze_profile", "parse_report", "profile_chart"} <= set(papertrail.__all__)
