"""Re-serialization relation: a panel file's bytes are one spelling of its
document. Each packaged scenario's panel file, rewritten with every object's
keys in reverse order and no indentation, loads to an equal panel, and the
`metrics`, `hypotheses` and `regime` commands write byte-identical reports
and exit with the same code from it.
"""
import json

import pytest

from rangegov import formats
from rangegov.cli import main

from conftest import SCENARIO_NAMES


def _keys_reversed(value):
    if isinstance(value, dict):
        return {key: _keys_reversed(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_keys_reversed(v) for v in value]
    return value


def _run(tmp_path, panel, command) -> tuple:
    out = tmp_path / ("%s-%s.json" % (panel.stem, command))
    code = main([command, "--panel", str(panel), "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_respelled_panel_gives_the_same_reports(scenario_panels, tmp_path, capsys, name):
    panel, respelled = tmp_path / "panel.json", tmp_path / "respelled.json"
    formats.save_panel(str(panel), scenario_panels[name][0])
    with open(panel, encoding="utf-8") as fh:
        doc = json.load(fh)
    respelled.write_text(json.dumps(_keys_reversed(doc)), encoding="utf-8")
    assert json.loads(respelled.read_text(encoding="utf-8")) == doc
    assert respelled.read_bytes() != panel.read_bytes()

    assert formats.load_panel(str(respelled)) == formats.load_panel(str(panel))
    for command in ("metrics", "hypotheses", "regime"):
        assert _run(tmp_path, respelled, command) == _run(tmp_path, panel, command), command
    capsys.readouterr()
