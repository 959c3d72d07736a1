"""The package export lists name only real, distinct attributes."""

import importlib


def test_all_names_resolve_without_duplicates():
    for module_name in ("octpipe", "octpipe.eval_harness"):
        module = importlib.import_module(module_name)
        assert len(module.__all__) == len(set(module.__all__)), module_name
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module_name
