"""The threshold configuration holds exactly the keys the program reads."""

import pathlib
import re
import typing

import pytest

import rangegov
from rangegov.config import _FIELD_TYPES, DEFAULTS, Config
from rangegov.errors import SchemaError
from rangegov.model import d12


def test_every_key_is_read_outside_config():
    root = pathlib.Path(rangegov.__file__).parent
    source = "\n".join(p.read_text(encoding="utf-8") for p in sorted(root.glob("*.py"))
                       if p.name != "config.py")
    unread = [name for name in Config._fields
              if not re.search(r"\bcfg\.%s\b" % name, source)]
    assert unread == []


def test_the_readme_states_the_number_of_fields():
    """The README's "each of its N fields" counts `Config`'s fields; each
    change that removed keys had to edit that number by hand."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    stated = re.search(r"each of its (\d+) fields", readme.read_text(encoding="utf-8"))
    assert int(stated.group(1)) == len(Config._fields)


def _mistyped(cls) -> list:
    """The fields whose default is not exactly of the annotated type."""
    hints = typing.get_type_hints(cls)
    return [name for name, default in cls._field_defaults.items()
            if type(default) is not hints[name]]


def test_every_default_has_its_annotated_type():
    """`config` reads each field's type from its default, so a default of
    another type would change which overrides the field takes."""
    assert _mistyped(Config) == []
    assert _FIELD_TYPES == typing.get_type_hints(Config)

    class Planted(typing.NamedTuple):
        x: float = 1
        y: int = 2

    assert _mistyped(Planted) == ["x"]


FLOAT_KEYS = sorted(k for k, t in _FIELD_TYPES.items() if t is float)


@pytest.mark.parametrize("value", [1e16, -1e16, 1e300, -1e17, 10 ** 16, -(10 ** 20)])
@pytest.mark.parametrize("key", ["depth_extreme_band", "absorption_min_usd",
                                 "spread_uncertainty", "funding_elevated_abs"])
def test_a_float_key_past_d12_is_refused_by_name(key, value):
    with pytest.raises(SchemaError, match="config %s: must be > -1e16 and < 1e16" % key):
        DEFAULTS.replace(**{key: value})


def test_every_float_key_takes_any_value_d12_holds():
    for key in FLOAT_KEYS:
        for value in (9999999999999998.0, 10 ** 16 - 1):
            assert d12(getattr(DEFAULTS.replace(**{key: value}), key)) == value
        with pytest.raises(SchemaError, match=key):
            DEFAULTS.replace(**{key: 1e16})
