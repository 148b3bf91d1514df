"""qcomb.fileio.overwrite: the bytes of open(path, "w"), written in place."""

import os

import pytest

from qcomb import fileio
from qcomb.cli import _write_json
from qcomb.fileio import overwrite


def test_new_file_gets_the_text_and_the_mode_of_open_w(tmp_path):
    with overwrite(tmp_path / "a.txt") as fh:
        fh.write("hello\n")
    with open(tmp_path / "b.txt", "w") as fh:
        fh.write("hello\n")
    assert (tmp_path / "a.txt").read_bytes() == b"hello\n"
    assert os.stat(tmp_path / "a.txt").st_mode == os.stat(tmp_path / "b.txt").st_mode


@pytest.mark.parametrize("old", ["", "x", "a much longer old text\n" * 50])
@pytest.mark.parametrize("new", ["", "short\n", "a new text of middling length\n" * 3])
def test_existing_file_holds_exactly_the_new_text(tmp_path, old, new):
    path = tmp_path / "f.txt"
    path.write_text(old)
    ino = os.stat(path).st_ino
    with overwrite(path) as fh:
        fh.write(new)
    assert path.read_text() == new
    assert os.stat(path).st_ino == ino


def test_file_is_not_truncated_on_open(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(fileio.os, "open", spy)
    path = tmp_path / "f.txt"
    path.write_text("old contents\n")
    with overwrite(path) as fh:
        fh.write("new\n")
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert path.read_text() == "new\n"


def test_exception_leaves_what_was_written(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0123456789" * 10)
    with pytest.raises(RuntimeError, match="stop"):
        with overwrite(path) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert path.read_text() == "partial"


def test_newline_and_encoding_are_passed_to_open(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"z" * 100)
    with overwrite(path, encoding="utf-8", newline="") as fh:
        fh.write("a,é\r\nb\n")
    assert path.read_bytes() == "a,é\r\nb\n".encode("utf-8")


def test_non_regular_file_is_written_without_truncation():
    with overwrite(os.devnull) as fh:
        fh.write("discarded\n")


def test_write_json_over_a_longer_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("{" + " " * 5000 + "}\n")
    _write_json(str(path), {"b": [1.5, 2.0], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1.5,\n    2.0\n  ]\n}\n'
