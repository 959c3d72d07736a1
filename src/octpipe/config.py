"""Run configuration: defaults, flat key=value config files, flag overrides.

The file format is one ``section.key=value`` pair per line (``#`` comments,
blank lines ignored), flat on purpose so resolved configs diff cleanly.
Each setting is declared once, as a field of ``RunConfig`` or of its
``preprocess`` and ``training`` sections: its type picks its parser and
renderer in ``CODECS``, its metadata holds the rest (see ``_setting``),
and ``KEYS`` is built by walking those fields.  Keys only convert text;
values are range-checked when the dataclass holding them is built, so a
flag, a file and library code meet the same checks.  ``apply_settings``
turns a bad value into ``ConfigError`` naming its key.
``render_config(cfg)`` emits every resolved setting in sorted order;
parsing that text back yields an identical configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator, get_type_hints

from .backends import TrainingConfig, parse_backend_descriptor
from .errors import ConfigError, ValidationError, check_fields
from .patch_engine import DepthMode, PatchGrid, plan_grid
from .preprocess import SLICE_POLICIES, PreprocessConfig
from .volume_io import parse_float, parse_int, render_float

DATA_ROOT_ENV = "OCTPIPE_DATA_ROOT"
VARIANTS = ("F", "P")  # full image, overlapping patches; reports list them in this order


def _setting(default: Any, **meta: Any) -> Any:
    """A field whose metadata holds what its type cannot say: its file
    ``key`` (default: the attribute name), ``flag``, ``help``, ``choices``,
    a lower bound ``low`` and an exclusive upper bound ``below``."""
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """One run: every setting ``run_experiment`` and the commands read.

    Each range check names the setting by its file key."""

    data_root: Path | None = _setting(None, flag="--data-root")
    output_dir: Path | None = _setting(None, flag="--output-dir")
    variant: str = _setting("P", flag="--variant", choices=VARIANTS)
    depth_mode: DepthMode = _setting(
        DepthMode.D25, flag="--depth-mode", help=" | ".join(mode.value for mode in DepthMode)
    )
    backend: str = _setting("threshold", flag="--backend", help="threshold | oracle | external:DIR")
    jobs: int = _setting(0, flag="--jobs", help="0 = one thread per CPU this process may run on", low=0)
    patch_size: int = _setting(128, key="grid.patch_size", flag="--patch-size", low=1)
    overlap: float = _setting(0.75, key="grid.overlap", flag="--overlap", low=0, below=1)
    close_radius: int = _setting(1, key="grid.close_radius", flag="--close-radius", low=0)
    aggregate: str = _setting(
        "macro", key="eval.aggregate", flag="--aggregate", choices=("macro", "micro")
    )
    folds_k: int = _setting(
        3, key="folds.k", flag="--folds", help="number of cross-validation folds", low=2
    )
    seed: int = _setting(0, key="folds.seed", flag="--seed")
    slice_policy: str = _setting("auto", flag="--slice-policy", choices=("auto", *SLICE_POLICIES))
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.depth_mode, DepthMode):
            raise ValidationError(f"depth_mode must be a DepthMode, got {self.depth_mode!r}")
        # the model column of every report: kind lower-cased, a path as Path spells it
        kind, arg = parse_backend_descriptor(self.backend)
        object.__setattr__(self, "backend", f"{kind}:{Path(arg)}" if arg else kind)

    @property
    def resolved_jobs(self) -> int:
        """``jobs``, or for 0 the number of CPUs this process may run on."""
        if self.jobs > 0:
            return self.jobs
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    @property
    def working_size(self) -> tuple[int, int]:
        """The (width, height) every volume is preprocessed to:
        ``preprocess.target_2d`` in 2d, else ``preprocess.target_vol``."""
        if self.depth_mode is DepthMode.D2:
            return self.preprocess.target_2d
        return self.preprocess.target_vol

    def grid(self, image_dims: tuple[int, int]) -> PatchGrid:
        """The grid this run tiles each (width, height) plane with: one
        image-sized patch for variant F, overlapping ``patch_size`` patches
        at ``overlap`` for variant P."""
        if self.variant == "F":
            return plan_grid(image_dims, tuple(image_dims), 0.0, self.depth_mode)
        return plan_grid(image_dims, self.patch_size, self.overlap, self.depth_mode)


@dataclass(frozen=True)
class Key:
    """One setting: file key ``name``, ``RunConfig`` attribute ``path``
    (``section.attr`` for nested configs), text parser and renderer, and the
    command-line ``flag`` (None for file-only keys) with its ``help``."""

    name: str
    parse: Callable[[str], Any]
    render: Callable[[Any], str]
    flag: str | None
    help: str | None
    path: str

    def read(self, text: str) -> Any:
        """Parse one value; unparseable text raises ConfigError naming this key."""
        try:
            return self.parse(text)
        except (ValueError, TypeError, ConfigError) as exc:
            raise ConfigError(f"bad value for {self.name!r}: {exc}") from exc

    def get(self, cfg: RunConfig) -> Any:
        return attrgetter(self.path)(cfg)


def parse_dims(text: str, parts: int) -> tuple[int, ...]:
    """``WxH`` (two parts) or ``WxHxD`` (three) as positive integers."""
    try:
        dims = tuple(parse_int(part) for part in text.split("x"))
    except ValueError:
        dims = ()
    if len(dims) != parts or min(dims) < 1:
        form = "x".join(("WIDTH", "HEIGHT", "DEPTH")[:parts])
        raise ConfigError(f"expected {form} as positive integers, got {text!r}")
    return dims


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# (parser, renderer) for each annotated type of a setting or a report column
CODECS: dict[Any, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    str: (str, str),
    int: (parse_int, str),
    float: (parse_float, render_float),
    bool: (_parse_bool, lambda value: "true" if value else "false"),
    Path | None: (Path, str),
    DepthMode: (DepthMode, attrgetter("value")),
    tuple[int, int]: (partial(parse_dims, parts=2), lambda dims: "x".join(map(str, dims))),
}


def _keys(settings: type, prefix: str = "") -> Iterator[Key]:
    """One Key per field of the dataclass ``settings``, in field order,
    walking into each nested section; help defaults to the choices."""
    types = get_type_hints(settings)
    for f in fields(settings):
        if is_dataclass(types[f.name]):
            yield from _keys(types[f.name], f"{f.name}.")
            continue
        meta, path, choices = f.metadata, prefix + f.name, f.metadata.get("choices")
        text = meta.get("help", choices and " | ".join(choices))
        yield Key(meta.get("key", path), *CODECS[types[f.name]], meta.get("flag"), text, path)


KEYS: tuple[Key, ...] = tuple(_keys(RunConfig))
DATA_ROOT, OUTPUT_DIR = KEYS[:2]  # RunConfig's first two fields
_BY_NAME = {key.name: key for key in KEYS}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Flat ``key=value`` lines into a mapping; malformed lines are rejected."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def apply_settings(cfg: RunConfig, mapping: dict[str, str]) -> RunConfig:
    """Overlay flat settings onto a configuration; unknown keys are errors.

    Each nested section is rebuilt once from all of its settings together,
    so cross-field checks (``lr_start >= lr_end``) never see a half-applied
    mapping and the result does not depend on the mapping's order.
    """
    sections: dict[str, dict[str, Any]] = {}
    for name, text in mapping.items():
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"unknown configuration key {name!r}")
        section, _, attr = key.path.rpartition(".")
        sections.setdefault(section, {})[attr] = key.read(text)
    top = sections.pop("", {})
    for section, values in sections.items():
        try:
            top[section] = replace(getattr(cfg, section), **values)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad {section} settings: {exc}") from exc
    try:
        return replace(cfg, **top)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad settings: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return apply_settings(RunConfig(), parse_config_text(text, origin=str(path)))


def resolve_data_root(cfg: RunConfig) -> RunConfig:
    """Fill data_root from the environment when the config leaves it unset."""
    if cfg.data_root is None and os.environ.get(DATA_ROOT_ENV):
        return replace(cfg, data_root=Path(os.environ[DATA_ROOT_ENV]))
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Every resolved setting, one per line, sorted; parses back identically."""
    lines = [
        f"{key.name}={key.render(value)}"
        for key in sorted(KEYS, key=lambda k: k.name)
        if (value := key.get(cfg)) is not None
    ]
    return "\n".join(lines) + "\n"
