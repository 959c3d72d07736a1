"""Run configuration: defaults, flat key=value config files, flag overrides.

The file format is one ``section.key=value`` pair per line (``#`` comments,
blank lines ignored), flat on purpose so resolved configs diff cleanly.
Every setting is declared once, as a row of ``KEYS``: its file key, where it
lives in ``RunConfig``, how it is parsed and rendered, and its command-line
flag.  Keys only convert text; values are range-checked when the dataclass
holding them is built, so a flag, a file and library code meet the same
checks.  ``apply_settings`` turns a bad value into ``ConfigError`` naming its
key.  ``render_config(cfg)`` emits every resolved setting in
sorted order; parsing that text back yields an identical configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from .backends import TrainingConfig, parse_backend_descriptor
from .errors import ConfigError, ValidationError
from .patch_engine import DepthMode, PatchGrid, plan_grid
from .preprocess import DENOISERS, SLICE_POLICIES, PreprocessConfig

DATA_ROOT_ENV = "OCTPIPE_DATA_ROOT"
_SLICE_CHOICES = ("auto", *SLICE_POLICIES)
AGGREGATES = ("macro", "micro")
VARIANTS = ("F", "P")  # full image, overlapping patches; reports list them in this order


@dataclass(frozen=True)
class RunConfig:
    """One run: every setting ``run_experiment`` and the commands read.

    Each range check names the setting by its file key."""

    data_root: Path | None = None
    output_dir: Path | None = None
    variant: str = "P"
    depth_mode: DepthMode = DepthMode.D25
    backend: str = "threshold"
    jobs: int = 0  # 0 means "use logical core count"
    patch_size: int = 128
    overlap: float = 0.75
    close_radius: int = 1
    aggregate: str = "macro"
    folds_k: int = 3
    seed: int = 0
    slice_policy: str = "auto"
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        for name, value, choices in (
            ("variant", self.variant, VARIANTS),
            ("eval.aggregate", self.aggregate, AGGREGATES),
            ("slice_policy", self.slice_policy, _SLICE_CHOICES),
        ):
            if value not in choices:
                raise ValidationError(f"{name} must be one of {choices}, got {value!r}")
        for name, value, low in (
            ("jobs", self.jobs, 0),
            ("grid.patch_size", self.patch_size, 1),
            ("grid.close_radius", self.close_radius, 0),
            ("folds.k", self.folds_k, 2),
        ):
            if value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.overlap < 1.0:
            raise ValidationError(f"grid.overlap must lie in [0, 1), got {self.overlap}")
        if not isinstance(self.depth_mode, DepthMode):
            raise ValidationError(f"depth_mode must be a DepthMode, got {self.depth_mode!r}")
        # the model column of every report: kind lower-cased, a path as Path spells it
        kind, arg = parse_backend_descriptor(self.backend)
        object.__setattr__(self, "backend", f"{kind}:{Path(arg)}" if arg else kind)

    @property
    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

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
    (``section.attr`` for nested configs; defaults to ``name``), text parser
    and renderer, and the command-line ``flag`` (None for file-only keys)
    with its ``help``."""

    name: str
    parse: Callable[[str], Any] = str
    render: Callable[[Any], str] = str
    flag: str | None = None
    help: str | None = None
    path: str | None = None

    def __post_init__(self):
        if self.path is None:
            object.__setattr__(self, "path", self.name)

    def read(self, text: str) -> Any:
        """Parse one value; unparseable text raises ConfigError naming this key."""
        try:
            return self.parse(text)
        except (ValueError, TypeError, ConfigError) as exc:
            raise ConfigError(f"bad value for {self.name!r}: {exc}") from exc

    def get(self, cfg: RunConfig) -> Any:
        section, _, attr = self.path.rpartition(".")
        return getattr(getattr(cfg, section) if section else cfg, attr)


def parse_dims(text: str, parts: int) -> tuple[int, ...]:
    """``WxH`` (two parts) or ``WxHxD`` (three) as positive integers."""
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        dims = ()
    if len(dims) != parts or min(dims) < 1:
        form = "x".join(("WIDTH", "HEIGHT", "DEPTH")[:parts])
        raise ConfigError(f"expected {form} as positive integers, got {text!r}")
    return dims


def _render_dims(dims: tuple[int, ...]) -> str:
    return "x".join(map(str, dims))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _render_bool(value: bool) -> str:
    return "true" if value else "false"


def _one_of(choices: tuple[str, ...]) -> str:
    return " | ".join(choices)


DATA_ROOT = Key("data_root", Path, flag="--data-root")
OUTPUT_DIR = Key("output_dir", Path, flag="--output-dir")

KEYS: tuple[Key, ...] = (
    DATA_ROOT,
    OUTPUT_DIR,
    Key("variant", flag="--variant", help=_one_of(VARIANTS)),
    Key(
        "depth_mode",
        DepthMode.parse,
        attrgetter("value"),
        flag="--depth-mode",
        help=_one_of(tuple(mode.value for mode in DepthMode)),
    ),
    Key("backend", flag="--backend", help="threshold | oracle | external:DIR"),
    Key("jobs", int, flag="--jobs", help="0 = all cores"),
    Key("grid.patch_size", int, flag="--patch-size", path="patch_size"),
    Key("grid.overlap", float, repr, flag="--overlap", path="overlap"),
    Key("grid.close_radius", int, flag="--close-radius", path="close_radius"),
    Key("eval.aggregate", flag="--aggregate", help=_one_of(AGGREGATES), path="aggregate"),
    Key(
        "folds.k",
        int,
        flag="--folds",
        help="number of cross-validation folds",
        path="folds_k",
    ),
    Key("folds.seed", int, flag="--seed", path="seed"),
    Key("slice_policy", flag="--slice-policy", help=_one_of(_SLICE_CHOICES)),
    Key("preprocess.target_2d", partial(parse_dims, parts=2), _render_dims),
    Key("preprocess.target_vol", partial(parse_dims, parts=2), _render_dims),
    Key("preprocess.denoiser", flag="--denoiser", help=_one_of(DENOISERS)),
    Key("preprocess.sigma", float, repr),
    Key("preprocess.search_radius", int),
    Key("preprocess.patch_radius", int),
    Key("preprocess.h", float, repr),
    Key("preprocess.normalize"),
    Key("training.optimizer"),
    Key("training.decay", float, repr),
    Key("training.lr_start", float, repr),
    Key("training.lr_end", float, repr),
    Key("training.epochs", int),
    Key("training.shuffle_each_epoch", _parse_bool, _render_bool),
    Key("training.loss"),
)

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
