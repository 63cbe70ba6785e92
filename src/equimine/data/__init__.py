"""Bundled sample dataset for demos and smoke tests."""

from importlib import resources
from pathlib import Path

from ..errors import ValidationError


def sample_dir() -> Path:
    """Directory holding the bundled sample input files."""
    return Path(resources.files(__package__) / "sample")


def sample_path(name: str) -> Path:
    path = sample_dir() / name
    if not path.is_file():
        raise ValidationError(f"no bundled sample file named {name!r}")
    return path
