"""Each package exports the public names its submodules define, and importing
a module loads only what it needs."""

import importlib
import os
import subprocess
import sys
import types


def test_each_package_exports_public_names_its_submodules_define():
    for module_name in ("octpipe", "octpipe.eval_harness"):
        module = importlib.import_module(module_name)
        namespace = {}
        exec(f"from {module_name} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(module.__all__), module_name
        assert len(set(module.__all__)) == len(module.__all__), module_name
        for name in module.__all__:
            value = getattr(module, name)
            assert not name.startswith("_") and not isinstance(value, types.ModuleType), name
            assert value.__module__.startswith(f"{module_name}."), name


def _modules_after_import(module_name, then=""):
    """The module names a fresh interpreter holds after importing ``module_name``
    and running the statements ``then``."""
    code = f"import sys, {module_name}\n{then}\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_leaves_scipy_unloaded():
    loaded = _modules_after_import("octpipe.cli")
    assert "octpipe.cli" in loaded
    assert not any(name == "scipy" or name.startswith("scipy.") for name in loaded)


def test_gaussian_preprocess_leaves_scipy_unloaded():
    loaded = _modules_after_import("numpy as np, octpipe.preprocess as pp", then=(
        "voxels = np.random.default_rng(0).random((2, 20, 24), dtype=np.float32)\n"
        "vol = pp.OctVolume(voxels=voxels, volume_id='g')\n"
        "assert pp.preprocess_volume(vol, pp.PreprocessConfig(denoiser='gaussian'), (16, 16)).dims == (16, 16, 2)"
    ))
    assert "octpipe.preprocess" in loaded
    assert not any(name == "scipy" or name.startswith("scipy.") for name in loaded)


def test_config_import_leaves_eval_harness_unloaded():
    loaded = _modules_after_import("octpipe.config")
    assert "octpipe.config" in loaded
    assert not any(name.startswith("octpipe.eval_harness") for name in loaded)
