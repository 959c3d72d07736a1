"""Exception types shared across the pipeline, and the range check that
raises ``ValidationError`` from a settings field's declared bounds."""

from dataclasses import fields


class FormatError(Exception):
    """A file does not conform to the expected on-disk format."""


class ValidationError(ValueError):
    """Loaded or computed data violates a contract (value alphabet, simplex sums, ...)."""


def check_fields(settings, prefix: str = "") -> None:
    """Raise ValidationError for the first field of the dataclass ``settings``
    outside what its metadata declares: ``choices``, a lower bound ``low``,
    or with ``below`` as well the range [low, below).  The message names the
    field by its file key: metadata ``key``, else ``prefix`` + its name."""
    for f in fields(settings):
        meta, value = f.metadata, getattr(settings, f.name)
        name, low, below = meta.get("key", prefix + f.name), meta.get("low"), meta.get("below")
        if "choices" in meta and value not in meta["choices"]:
            raise ValidationError(f"{name} must be one of {meta['choices']}, got {value!r}")
        if below is not None and not low <= value < below:
            raise ValidationError(f"{name} must lie in [{low}, {below}), got {value}")
        if low is not None and value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")


class CoverageError(RuntimeError):
    """A stitched output voxel was not covered by any patch."""


class StageError(RuntimeError):
    """A pipeline stage failed for a specific volume."""

    def __init__(self, stage: str, volume_id: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed for volume '{volume_id}': {cause}")
        self.stage = stage
        self.volume_id = volume_id
        self.cause = cause


class ConfigError(Exception):
    """The run configuration is unreadable or inconsistent (a usage error)."""
