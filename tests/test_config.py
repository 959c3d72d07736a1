"""Flat configuration files, overrides, and canonical rendering."""

import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octpipe.backends import TrainingConfig
from octpipe.config import (
    CODECS,
    DATA_ROOT_ENV,
    KEYS,
    RunConfig,
    apply_settings,
    load_config,
    parse_config_text,
    render_config,
    resolve_data_root,
)
from octpipe.errors import ConfigError, ValidationError
from octpipe.patch_engine import DepthMode, plan_grid


def test_parse_config_text_skips_comments_and_blanks():
    text = "# a comment\n\nfolds.seed = 7\n  grid.overlap=0.5  \n"
    assert parse_config_text(text) == {"folds.seed": "7", "grid.overlap": "0.5"}


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("=value\n")
    with pytest.raises(ConfigError):
        parse_config_text("folds.seed=1\nfolds.seed=2\n")


def test_apply_settings_reaches_nested_configs():
    cfg = apply_settings(
        RunConfig(),
        {
            "preprocess.target_vol": "64x64",
            "preprocess.denoiser": "gaussian",
            "training.epochs": "5",
            "grid.patch_size": "32",
            "depth_mode": "3d",
        },
    )
    assert cfg.preprocess.target_vol == (64, 64)
    assert cfg.preprocess.denoiser == "gaussian"
    assert cfg.training.epochs == 5
    assert cfg.patch_size == 32
    assert cfg.depth_mode == DepthMode.D3


def test_apply_settings_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"grid.stride": "16"})
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"folds.k": "three"})
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"depth_mode": "4d"})
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"slice_policy": "never"})
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"preprocess.denoiser": "bm3d"})


def test_render_config_round_trips():
    cfg = apply_settings(
        RunConfig(),
        {
            "data_root": "/tmp/data",
            "output_dir": "/tmp/out",
            "variant": "F",
            "grid.overlap": "0.25",
            "training.shuffle_each_epoch": "false",
            "preprocess.target_2d": "128x96",
        },
    )
    text = render_config(cfg)
    again = apply_settings(RunConfig(), parse_config_text(text))
    assert again == cfg
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n")


def test_a_numpy_float_renders_as_python_spells_it_and_round_trips():
    """Settings and report cells spell a float by one rule, so an overlap
    computed with numpy renders as ``0.5``, not ``np.float64(0.5)``."""
    cfg = RunConfig(overlap=np.float64(0.5))
    text = render_config(cfg)
    assert "grid.overlap=0.5" in text.splitlines()
    assert apply_settings(RunConfig(), parse_config_text(text)) == cfg


def test_render_config_of_the_defaults_is_the_same_text():
    cfg = RunConfig(data_root=Path("/data/oct"), output_dir=Path("runs/a"))
    assert render_config(cfg) == (
        "backend=threshold\n"
        "data_root=/data/oct\n"
        "depth_mode=2.5d\n"
        "eval.aggregate=macro\n"
        "folds.k=3\n"
        "folds.seed=0\n"
        "grid.close_radius=1\n"
        "grid.overlap=0.75\n"
        "grid.patch_size=128\n"
        "jobs=0\n"
        "output_dir=runs/a\n"
        "preprocess.denoiser=none\n"
        "preprocess.h=0.1\n"
        "preprocess.normalize=auto\n"
        "preprocess.patch_radius=2\n"
        "preprocess.search_radius=5\n"
        "preprocess.sigma=1.0\n"
        "preprocess.target_2d=572x572\n"
        "preprocess.target_vol=384x384\n"
        "slice_policy=auto\n"
        "training.decay=0.95\n"
        "training.epochs=100\n"
        "training.loss=weighted-cross-entropy\n"
        "training.lr_end=0.0001\n"
        "training.lr_start=0.001\n"
        "training.optimizer=adam\n"
        "training.shuffle_each_epoch=true\n"
        "variant=P\n"
    )


def test_keys_keep_their_names_paths_and_flags_in_field_order():
    assert [(key.name, key.path, key.flag) for key in KEYS] == [
        ("data_root", "data_root", "--data-root"),
        ("output_dir", "output_dir", "--output-dir"),
        ("variant", "variant", "--variant"),
        ("depth_mode", "depth_mode", "--depth-mode"),
        ("backend", "backend", "--backend"),
        ("jobs", "jobs", "--jobs"),
        ("grid.patch_size", "patch_size", "--patch-size"),
        ("grid.overlap", "overlap", "--overlap"),
        ("grid.close_radius", "close_radius", "--close-radius"),
        ("eval.aggregate", "aggregate", "--aggregate"),
        ("folds.k", "folds_k", "--folds"),
        ("folds.seed", "seed", "--seed"),
        ("slice_policy", "slice_policy", "--slice-policy"),
        ("preprocess.target_2d", "preprocess.target_2d", None),
        ("preprocess.target_vol", "preprocess.target_vol", None),
        ("preprocess.denoiser", "preprocess.denoiser", "--denoiser"),
        ("preprocess.sigma", "preprocess.sigma", None),
        ("preprocess.search_radius", "preprocess.search_radius", None),
        ("preprocess.patch_radius", "preprocess.patch_radius", None),
        ("preprocess.h", "preprocess.h", None),
        ("preprocess.normalize", "preprocess.normalize", None),
        ("training.optimizer", "training.optimizer", None),
        ("training.decay", "training.decay", None),
        ("training.lr_start", "training.lr_start", None),
        ("training.lr_end", "training.lr_end", None),
        ("training.epochs", "training.epochs", None),
        ("training.shuffle_each_epoch", "training.shuffle_each_epoch", None),
        ("training.loss", "training.loss", None),
    ]


def test_load_config_file_and_missing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("folds.seed=11\nvariant=F\n")
    cfg = load_config(path)
    assert cfg.seed == 11 and cfg.variant == "F"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_resolve_data_root_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = resolve_data_root(RunConfig())
    assert cfg.data_root == tmp_path

    explicit = resolve_data_root(RunConfig(data_root=Path("/elsewhere")))
    assert explicit.data_root == Path("/elsewhere")

    monkeypatch.delenv(DATA_ROOT_ENV)
    assert resolve_data_root(RunConfig()).data_root is None


def test_resolved_jobs_zero_means_cpu_count():
    assert RunConfig(jobs=0).resolved_jobs >= 1
    assert RunConfig(jobs=3).resolved_jobs == 3


def test_resolved_jobs_zero_counts_the_cpus_this_process_may_run_on(monkeypatch):
    """Pinned to 2 of 8 CPUs (``taskset -c 0,3``), ``jobs = 0`` starts 2
    threads; where ``os`` cannot tell the affinity, it counts every CPU."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert RunConfig(jobs=0).resolved_jobs == 2
    assert RunConfig(jobs=3).resolved_jobs == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert RunConfig(jobs=0).resolved_jobs == 8


def test_run_config_validation_and_targets():
    lowest = RunConfig(jobs=0, patch_size=1, overlap=0.0, close_radius=0, folds_k=2)
    assert (lowest.jobs, lowest.patch_size, lowest.folds_k) == (0, 1, 2)
    for bad in (
        {"variant": "Q"},
        {"aggregate": "median"},
        {"slice_policy": "never"},
        {"jobs": -1},
        {"patch_size": 0},
        {"overlap": 1.0},
        {"overlap": -0.25},
        {"close_radius": -1},
        {"folds_k": 1},
    ):
        with pytest.raises(ValidationError):
            RunConfig(**bad)
    cfg_2d = RunConfig(depth_mode=DepthMode.D2)
    assert cfg_2d.working_size == (572, 572)
    cfg_3d = RunConfig(depth_mode=DepthMode.D3)
    assert cfg_3d.working_size == (384, 384)


def test_depth_mode_text_is_rejected_not_run_as_2d():
    with pytest.raises(ValidationError, match="depth_mode must be a DepthMode, got '3d'"):
        RunConfig(depth_mode="3d")
    with pytest.raises(TypeError, match="depth_mode must be a DepthMode, got '3d'"):
        plan_grid((32, 32), 16, 0.5, "3d")


@pytest.mark.parametrize(
    "attr, key, value",
    [
        ("variant", "variant", "Q"),
        ("aggregate", "eval.aggregate", "median"),
        ("slice_policy", "slice_policy", "never"),
        ("jobs", "jobs", -4),
        ("patch_size", "grid.patch_size", 0),
        ("overlap", "grid.overlap", 1.0),
        ("overlap", "grid.overlap", -0.5),
        ("overlap", "grid.overlap", float("nan")),
        ("close_radius", "grid.close_radius", -1),
        ("folds_k", "folds.k", 1),
        ("backend", "backend", "unet"),
    ],
)
def test_bad_value_fails_alike_in_code_and_in_settings(attr, key, value):
    with pytest.raises(ValidationError, match=re.escape(key)) as in_code:
        RunConfig(**{attr: value})
    text = value if isinstance(value, str) else repr(value)
    with pytest.raises(ConfigError, match=re.escape(key)) as in_settings:
        apply_settings(RunConfig(), {key: text})
    assert str(in_code.value) in str(in_settings.value)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"epochs": 0}, "training.epochs must be >= 1, got 0"),
        ({"lr_end": 0.01}, "need training.lr_start >= training.lr_end > 0, got 0.001 and 0.01"),
        ({"lr_start": 0.0, "lr_end": 0.0}, "need training.lr_start >= training.lr_end > 0, got 0.0 and 0.0"),
    ],
)
def test_training_errors_name_their_file_keys(values, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        TrainingConfig(**values)
    mapping = {f"training.{name}": repr(value) for name, value in values.items()}
    with pytest.raises(ConfigError, match=re.escape(f"bad training settings: {message}")):
        apply_settings(RunConfig(), mapping)


def test_render_config_round_trips_lr_pair_below_defaults():
    cfg = RunConfig(training=TrainingConfig(lr_start=0.01, lr_end=0.005))
    assert apply_settings(RunConfig(), parse_config_text(render_config(cfg))) == cfg


@pytest.mark.parametrize(
    "key, value",
    [
        ("variant", "Q"),
        ("eval.aggregate", "median"),
        ("backend", "foo"),
        ("jobs", "-3"),
        ("grid.overlap", "1.5"),
        ("grid.patch_size", "0"),
        ("grid.close_radius", "-1"),
        ("folds.k", "0"),
        ("preprocess.target_2d", "0x64"),
        ("preprocess.target_2d", "64xabc"),
        ("preprocess.target_vol", "64x64x4"),
        # Python's int and float also read these, which no renderer writes
        ("grid.patch_size", "1_28"),
        ("grid.overlap", " 0.5_0"),
        ("grid.overlap", "0.5 "),
        ("folds.seed", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("preprocess.sigma", "Infinity"),
        ("preprocess.target_2d", "1_28x9_6"),
        ("preprocess.target_vol", "128 x 96"),
    ],
)
def test_apply_settings_rejects_out_of_range_values(key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        apply_settings(RunConfig(), {key: value})


_words = st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True)
_paths = st.from_regex(r"/?[a-z0-9_]{1,8}(/[a-z0-9_]{1,8}){0,2}", fullmatch=True)


def _floats(low, high=1e6, **kwargs):
    return st.floats(low, high, allow_nan=False, **kwargs).map(repr)


def _ints(low, high=10**6):
    return st.integers(low, high).map(str)


_dims = st.tuples(st.integers(1, 4096), st.integers(1, 4096)).map(lambda d: f"{d[0]}x{d[1]}")

VALUE_STRATEGIES = {
    "data_root": _paths,
    "output_dir": _paths,
    "variant": st.sampled_from(["F", "P"]),
    "depth_mode": st.sampled_from(["2d", "2.5d", "3d"]),
    "backend": st.sampled_from(["threshold", "oracle", "external:/probs", "Oracle"]),
    "jobs": _ints(0, 64),
    "grid.patch_size": _ints(1, 1024),
    "grid.overlap": _floats(0.0, 1.0, exclude_max=True),
    "grid.close_radius": _ints(0, 8),
    "eval.aggregate": st.sampled_from(["macro", "micro"]),
    "folds.k": _ints(2, 20),
    "folds.seed": _ints(-(10**6)),
    "slice_policy": st.sampled_from(["auto", "diseased_only", "all"]),
    "preprocess.target_2d": _dims,
    "preprocess.target_vol": _dims,
    "preprocess.denoiser": st.sampled_from(["none", "gaussian", "nlm"]),
    "preprocess.sigma": _floats(1e-3, 10.0),
    "preprocess.search_radius": _ints(1, 9),
    "preprocess.patch_radius": _ints(1, 5),
    "preprocess.h": _floats(1e-3, 10.0),
    "preprocess.normalize": st.sampled_from(["auto", "always", "never"]),
    "training.optimizer": _words,
    "training.decay": _floats(-1e6),
    "training.epochs": _ints(1, 1000),
    "training.shuffle_each_epoch": st.sampled_from(["true", "false"]),
    "training.loss": _words,
}


@st.composite
def settings_mappings(draw):
    """A valid value for every key; optional path keys are sometimes left out."""
    mapping = {name: draw(strategy) for name, strategy in VALUE_STRATEGIES.items()}
    lr_end = draw(st.floats(1e-8, 1.0))
    mapping["training.lr_end"] = repr(lr_end)
    mapping["training.lr_start"] = repr(draw(st.floats(lr_end, 10.0)))
    for optional in ("data_root", "output_dir"):
        if draw(st.booleans()):
            del mapping[optional]
    return mapping


def test_value_strategies_cover_every_key():
    lr_keys = {"training.lr_start", "training.lr_end"}
    assert set(VALUE_STRATEGIES) | lr_keys == {key.name for key in KEYS}


# spellings the depth-mode, boolean and size parsers once read, none of which a renderer writes
FORMER_ALIASES = [
    *(("depth_mode", text) for text in ("2", "2.5", "25d", "3", "3D", "2.5D", " 2d ", "2D")),
    *(("training.shuffle_each_epoch", text) for text in ("yes", "no", "1", "0", "True", "FALSE", "No ")),
    ("preprocess.target_vol", "96X80"),
    ("preprocess.target_2d", "96X80"),
]


@settings(max_examples=200, deadline=None)
@given(mapping=settings_mappings(), data=st.data())
def test_render_config_is_a_fixed_point_in_any_order(mapping, data):
    cfg = apply_settings(RunConfig(), mapping)
    text = render_config(cfg)
    again = apply_settings(RunConfig(), parse_config_text(text))
    assert again == cfg
    assert render_config(again) == text
    shuffled = dict(data.draw(st.permutations(list(mapping.items()))))
    assert apply_settings(RunConfig(), shuffled) == cfg
    name, alias = data.draw(st.sampled_from(FORMER_ALIASES))
    with pytest.raises(ConfigError, match=re.escape(f"bad value for {name!r}")):
        apply_settings(RunConfig(), {**mapping, name: alias})


CODEC_VALUES = {
    str: st.text(),
    int: st.integers(),
    float: st.floats(allow_nan=False) | st.just(float("nan")) | st.floats(width=32).map(np.float32),
    bool: st.booleans(),
    Path | None: _paths.map(Path),
    DepthMode: st.sampled_from(DepthMode),
    tuple[int, int]: st.tuples(st.integers(1, 10**9), st.integers(1, 10**9)),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_codec_reads_back_what_it_renders(data):
    assert set(CODEC_VALUES) == set(CODECS)
    for kind, (parse, render) in CODECS.items():
        value = data.draw(CODEC_VALUES[kind], label=str(kind))
        text = render(value)
        assert render(parse(text)) == text
        if kind is not float or value == value:
            assert parse(text) == value


def test_render_config_stores_canonical_spellings():
    def rendered(**settings):
        return render_config(apply_settings(RunConfig(), settings))

    assert "depth_mode=3d\n" in rendered(depth_mode="3d")
    assert "depth_mode=2.5d\n" in rendered(depth_mode="2.5d")
    assert "training.shuffle_each_epoch=false\n" in rendered(**{"training.shuffle_each_epoch": "false"})
    assert "preprocess.target_vol=96x80\n" in rendered(**{"preprocess.target_vol": "96x80"})
    assert CODECS[DepthMode][0] is DepthMode
    for name, alias in FORMER_ALIASES:
        with pytest.raises(ConfigError, match=re.escape(f"bad value for {name!r}")):
            rendered(**{name: alias})
    assert rendered(backend="Oracle") == rendered(backend="oracle")
    assert "backend=oracle\n" in rendered(backend=" ORACLE")
    assert "backend=external:/Some/Probs\n" in rendered(backend="External:/Some/Probs")


def _spelling_variants(spellings):
    """Each of ``spellings`` in another case, with whitespace around it."""
    cases = st.sampled_from([str.lower, str.upper, str.title, str.swapcase])
    space = st.text(" \t\n", max_size=2)
    return st.builds(lambda text, case, before, after: before + case(text) + after,
                     st.sampled_from(spellings), cases, space, space)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bool_and_depth_mode_read_exactly_what_they_render(data):
    """A text parses if and only if the renderer writes it, and then as the
    value the renderer wrote it from."""
    for kind, values, aliases in (
        (bool, (False, True), ("yes", "no", "1", "0", "on", "off")),
        (DepthMode, tuple(DepthMode), ("2", "2.5", "25d", "3", "2d5")),
    ):
        parse, render = CODECS[kind]
        spelled = {render(value): value for value in values}
        text = data.draw(
            st.text() | st.sampled_from(aliases) | _spelling_variants(sorted(spelled)), label=kind.__name__
        )
        if text in spelled:
            assert parse(text) is spelled[text]
        else:
            with pytest.raises(ValueError):
                parse(text)


def test_run_config_stores_the_canonical_backend():
    assert RunConfig(backend="Oracle").backend == "oracle"
    assert RunConfig(backend=" THRESHOLD").backend == "threshold"
    assert RunConfig(backend="External:./probs/").backend == "external:probs"
    assert RunConfig(backend="external:/abs/probs").backend == "external:/abs/probs"


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration file", 1)[1]
    block = section.split("```", 2)[1]
    listed = re.sub(r"\([^)]*\)", "", block)
    names = {word for word in re.split(r"[\s,]+", listed) if word}
    assert names == {key.name for key in KEYS}
