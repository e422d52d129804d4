"""The threshold configuration holds exactly the keys the program reads."""

import dataclasses
import pathlib
import re

import rangegov
from rangegov.config import Config


def test_every_key_is_read_outside_config():
    root = pathlib.Path(rangegov.__file__).parent
    source = "\n".join(p.read_text(encoding="utf-8") for p in sorted(root.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Config)
              if not re.search(r"\bcfg\.%s\b" % f.name, source)]
    assert unread == []
