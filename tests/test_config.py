"""The threshold configuration holds exactly the keys the program reads."""

import dataclasses
import pathlib
import re
import typing

import rangegov
from rangegov.config import _FIELD_TYPES, Config


def test_every_key_is_read_outside_config():
    root = pathlib.Path(rangegov.__file__).parent
    source = "\n".join(p.read_text(encoding="utf-8") for p in sorted(root.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Config)
              if not re.search(r"\bcfg\.%s\b" % f.name, source)]
    assert unread == []


def _mistyped(cls) -> list:
    """The fields whose default is not exactly of the annotated type."""
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if type(f.default) is not hints[f.name]]


def test_every_default_has_its_annotated_type():
    """`config` reads each field's type from its default, so a default of
    another type would change which overrides the field takes."""
    assert _mistyped(Config) == []
    assert _FIELD_TYPES == typing.get_type_hints(Config)

    @dataclasses.dataclass(frozen=True)
    class Planted:
        x: float = 1
        y: int = 2

    assert _mistyped(Planted) == ["x"]
