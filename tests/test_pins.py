"""The re-pin command (``python -m tests.pins``), driven with stub
compute functions: it reports each moved entry, writes only what
``--write`` names, and refuses when anything outside that moved."""

import json

import pytest

from tests import pins

PINNED = {
    "a.json": {"seed": 1, "figures": {"x": {"digest": "aa", "payload": 1},
                                      "y": {"digest": "bb", "payload": 2}}},
    "b.json": {"digests": [["P", "cc"], ["P", "dd"]]},
}


def _pin_files(tmp_path, computed):
    """Write :data:`PINNED` under ``tmp_path`` and return stub compute
    functions answering ``computed``.  ``b.json`` is written compactly,
    so any rewrite of it shows in its bytes."""
    (tmp_path / "a.json").write_text(
        json.dumps(PINNED["a.json"], indent=2, sort_keys=True) + "\n")
    (tmp_path / "b.json").write_text(json.dumps(PINNED["b.json"]))
    return {name: (lambda doc=doc: doc) for name, doc in computed.items()}


def _moved_x():
    computed = json.loads(json.dumps(PINNED))
    computed["a.json"]["figures"]["x"] = {"digest": "ee", "payload": 3}
    return computed


def _files(tmp_path):
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_clean_pins_exit_zero(tmp_path, capsys):
    stubs = _pin_files(tmp_path, PINNED)
    assert pins.main([], stubs, tmp_path) == 0
    assert " -> " not in capsys.readouterr().out


def test_one_moved_entry_is_one_line(tmp_path, capsys):
    stubs = _pin_files(tmp_path, _moved_x())
    before = _files(tmp_path)
    assert pins.main([], stubs, tmp_path) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if " -> " in line] == \
        ["a.json: figures/x: aa -> ee"]
    assert _files(tmp_path) == before


def test_write_rewrites_only_the_named_file(tmp_path, capsys):
    stubs = _pin_files(tmp_path, _moved_x())
    before = _files(tmp_path)
    assert pins.main(["--write", "a.json:figures/x"], stubs, tmp_path) == 0
    assert "a.json: figures/x: aa -> ee" in capsys.readouterr().out
    assert pins.load("a.json", tmp_path) == _moved_x()["a.json"]
    assert _files(tmp_path)["b.json"] == before["b.json"]


@pytest.mark.parametrize("scope", ["a.json:figures/y", "b.json"])
def test_drift_outside_the_scope_refuses(tmp_path, capsys, scope):
    stubs = _pin_files(tmp_path, _moved_x())
    before = _files(tmp_path)
    assert pins.main(["--write", scope], stubs, tmp_path) == 1
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1 and "a.json: figures/x" in lines[0]
    assert _files(tmp_path) == before


@pytest.mark.parametrize("relative", [False, True],
                         ids=["absolute", "relative"])
def test_write_takes_a_path_in_the_data_directory(tmp_path, capsys,
                                                  monkeypatch, relative):
    """``tests/data/FILE`` names the same pin file as ``FILE``."""
    stubs = _pin_files(tmp_path, _moved_x())
    before = _files(tmp_path)
    path = tmp_path / "a.json"
    if relative:
        monkeypatch.chdir(tmp_path.parent)
        path = path.relative_to(tmp_path.parent)
    assert pins.main(["--write", f"{path}:figures/x"], stubs,
                     tmp_path) == 0
    assert "a.json: figures/x: aa -> ee" in capsys.readouterr().out
    assert pins.load("a.json", tmp_path) == _moved_x()["a.json"]
    assert _files(tmp_path)["b.json"] == before["b.json"]


@pytest.mark.parametrize("name", ["elsewhere/a.json", "c.json"])
def test_write_refuses_a_file_outside_the_pins(tmp_path, capsys, name):
    """A path in another directory, or a name that is no pin file, is
    refused with one line, and nothing is written."""
    stubs = _pin_files(tmp_path, _moved_x())
    before = _files(tmp_path)
    assert pins.main(["--write", str(tmp_path / name)], stubs,
                     tmp_path) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1 and "unknown pin file" in lines[0]
    assert _files(tmp_path) == before


def test_list_entries_keep_their_positions():
    """Two list children with one name stay two entries, so replacing
    one shows as one move, not as a merge."""
    old = {"digests": [["P", "cc"], ["P", "dd"]]}
    new = {"digests": [["P", "cc"], ["Q", "ff"]]}
    assert pins.drift(old, new) == \
        {"digests/1": '["P", "dd"] -> ["Q", "ff"]'}
