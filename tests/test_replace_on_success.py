"""Every file the package writes is replaced only when its write completes.

`formats.replacing` writes a temporary file beside the target and renames it
over the target on success. A write that fails part way (an unserializable
value, a bad record) leaves the old bytes and no stray file. The new file has
the mode a plain `open(path, "w")` gives it, a target the user may not write
is refused as `open` refuses it, a symlink's target is replaced, and a target
that is not a regular file (a FIFO) or is under /dev or /proc (`/dev/stdout`,
whatever stdout is) is written in place.
"""
import errno
import os
import stat
import subprocess
import sys
import threading
from decimal import Decimal

import pytest

import rangegov
from rangegov import formats
from rangegov.cli import main

from conftest import scenario_path

OLD = b'{\n  "kind": "old",\n  "schema_version": "1"\n}\n'


def _old_file(tmp_path, name="out.json"):
    path = tmp_path / name
    path.write_bytes(OLD)
    return path


def _report_over_budget() -> dict:
    """A doc whose first member is large enough that the streamed write has
    passed text on before it reaches the `Decimal`, which it cannot encode."""
    return {"a": [{"row": i, "text": "x" * 40} for i in range(2000)], "z": Decimal("1.5")}


def test_a_failing_report_write_keeps_the_old_file(tmp_path):
    """It had left a truncated file, which `load_report` then refused."""
    path = _old_file(tmp_path)
    with pytest.raises(TypeError):
        formats.write_report(str(path), _report_over_budget())
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_failing_panel_save_keeps_the_old_file(tmp_path, scenario_panels):
    panel, _ = scenario_panels["h4-confirm"]
    bad = panel._replace(annotations={**panel.annotations, "z": Decimal("1.5")})
    path = _old_file(tmp_path, "panel.json")
    with pytest.raises(TypeError):
        formats.save_panel(str(path), bad)
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["panel.json"]


def test_a_failing_book_write_keeps_the_old_file(tmp_path, scenario_panels):
    panel, _ = scenario_panels["h4-confirm"]
    path = _old_file(tmp_path, "books.txt")
    with pytest.raises(AttributeError):
        formats.write_books(str(path), list(panel.books) + [None])
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["books.txt"]


def test_a_completed_write_replaces_the_file(tmp_path):
    path = _old_file(tmp_path)
    formats.write_report(str(path), {"kind": "new"})
    assert formats.load_report(str(path)) == {"kind": "new", "schema_version": "1"}
    assert os.listdir(tmp_path) == ["out.json"]


def test_the_written_file_has_the_mode_open_gives(tmp_path):
    with open(tmp_path / "plain.json", "w", encoding="utf-8"):
        pass
    formats.write_report(str(tmp_path / "new.json"), {"kind": "new"})
    assert os.stat(tmp_path / "new.json").st_mode == os.stat(tmp_path / "plain.json").st_mode
    # over an existing file, open keeps that file's mode, and so does the writer
    path = _old_file(tmp_path)
    os.chmod(path, 0o640)
    formats.write_report(str(path), {"kind": "new"})
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640


def test_a_symlink_target_is_replaced_and_the_link_kept(tmp_path):
    target = _old_file(tmp_path)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    formats.write_report(str(link), {"kind": "new"})
    assert link.is_symlink()
    assert formats.load_report(str(target))["kind"] == "new"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "out.json"]


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    formats.write_report(str(fifo), {"kind": "new"})
    reader.join(10)
    assert got == [formats.dump_json({"kind": "new", "schema_version": "1"}).encode()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_a_target_the_user_may_not_write_is_refused_as_open_refuses_it(tmp_path):
    """A read-only report kept as a reference is not renamed over: whether it
    is written follows `open(path, "a")`'s permission rule for this user."""
    path = _old_file(tmp_path)
    os.chmod(path, 0o444)
    try:
        open(path, "a").close()
        writable = True
    except PermissionError:
        writable = False
    if writable:   # a user who may write any file (root): open would write it
        formats.write_report(str(path), {"kind": "new"})
        assert formats.load_report(str(path))["kind"] == "new"
    else:
        with pytest.raises(PermissionError):
            formats.write_report(str(path), {"kind": "new"})
        assert path.read_bytes() == OLD
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o444
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_refused_target_keeps_its_bytes_and_is_named(tmp_path, monkeypatch):
    """The refusal itself, for a user the kernel denies write to (here
    simulated, so that it runs as root too)."""
    path = _old_file(tmp_path)
    real_open = os.open

    def denying_open(name, flags, *rest):
        if name == str(path) and flags & (os.O_WRONLY | os.O_RDWR):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
        return real_open(name, flags, *rest)

    monkeypatch.setattr(os, "open", denying_open)
    with pytest.raises(PermissionError) as err:
        formats.write_report(str(path), {"kind": "new"})
    assert (err.value.errno, err.value.filename) == (errno.EACCES, str(path))
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_failed_cleanup_does_not_hide_the_write_error(tmp_path, monkeypatch):
    path = _old_file(tmp_path)

    def unlink(p):
        raise FileNotFoundError(errno.ENOENT, "gone", p)

    monkeypatch.setattr(os, "unlink", unlink)
    with pytest.raises(TypeError):
        formats.write_report(str(path), _report_over_budget())
    assert path.read_bytes() == OLD


def _rangegov(argv, stdout):
    src = os.path.dirname(os.path.dirname(rangegov.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("RG_CONFIG", None)
    return subprocess.run([sys.executable, "-m", "rangegov", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.fixture(scope="module")
def validated(tmp_path_factory):
    """A panel file and the report `validate` prints for it to stdout."""
    panel = str(tmp_path_factory.mktemp("stdout") / "p.json")
    assert main(["synth", "--scenario", scenario_path("h4-confirm"), "--out", panel]) == 0
    done = _rangegov(["validate", "--panel", panel], subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    return panel, done.stdout


@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"])
def test_out_naming_stdout_writes_to_a_pipe(validated, out):
    """`realpath` reads the link of a pipe as `pipe:[N]`, no path to rename over."""
    panel, expected = validated
    done = _rangegov(["validate", "--panel", panel, "--out", out], subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == expected


def test_out_naming_stdout_writes_into_the_redirected_file(validated, tmp_path):
    """The file stdout is open on is written, not renamed over behind it."""
    panel, expected = validated
    path = tmp_path / "stdout.json"
    with open(path, "wb") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        done = _rangegov(["validate", "--panel", panel, "--out", "/dev/stdout"], fh)
    assert (done.returncode, done.stderr) == (0, b"")
    assert os.stat(path).st_ino == inode
    assert path.read_bytes() == expected
    assert os.listdir(tmp_path) == ["stdout.json"]


def test_a_missing_directory_is_named_as_open_names_it(tmp_path):
    path = str(tmp_path / "nodir" / "out.json")
    with pytest.raises(FileNotFoundError) as err:
        formats.write_report(path, {"kind": "new"})
    assert err.value.filename == path


def test_a_failed_rename_is_named_as_the_target(tmp_path, monkeypatch):
    path = _old_file(tmp_path)

    def replace(src, dst):
        raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError) as err:
        formats.write_report(str(path), {"kind": "new"})
    assert (err.value.errno, err.value.filename) == (errno.EBUSY, str(path))
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["out.json"]


def test_cli_outputs_leave_no_stray_file(tmp_path, capsys):
    panel = str(tmp_path / "p.json")
    report = str(tmp_path / "m.json")
    assert main(["synth", "--scenario", scenario_path("h4-confirm"), "--out", panel]) == 0
    assert main(["metrics", "--panel", panel, "--out", report]) == 0
    assert main(["plot", "--report", report, "--kind", "range",
                 "--out", str(tmp_path / "fig.svg")]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["fig.csv", "fig.svg", "m.json", "p.json"]
