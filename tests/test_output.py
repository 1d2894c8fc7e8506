"""The staging every command writes its files through."""

import re

import pytest

from superlens_imaging.errors import UsageError
from superlens_imaging.output import staged


def test_staged_moves_entries_over_their_namesakes(tmp_path):
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "stale.txt").write_text("earlier\n")
    (tmp_path / "file.txt").write_text("earlier\n")
    (tmp_path / "other.txt").write_text("kept\n")
    with staged(tmp_path) as tmp:
        assert tmp.parent == tmp_path and tmp.name.startswith(".staging-")
        (tmp / "old").mkdir()
        (tmp / "old" / "new.txt").write_text("new\n")
        (tmp / "file.txt").write_text("new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "file.txt", "old", "other.txt"]
    # a directory is replaced whole, not merged
    assert [p.name for p in (tmp_path / "old").iterdir()] == ["new.txt"]
    assert (tmp_path / "file.txt").read_text() == "new\n"
    assert (tmp_path / "other.txt").read_text() == "kept\n"


def test_staged_error_removes_what_it_made(tmp_path):
    out = tmp_path / "a" / "b"
    with pytest.raises(KeyError):
        with staged(out) as tmp:
            (tmp / "half.txt").write_text("written\n")
            raise KeyError("later failure")
    assert not any(tmp_path.iterdir())

    (tmp_path / "kept.txt").write_text("kept\n")
    with pytest.raises(KeyError):
        with staged(tmp_path) as tmp:
            (tmp / "kept.txt").write_text("replaced\n")
            raise KeyError("later failure")
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


def test_staged_unusable_out_is_usage_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        with pytest.raises(UsageError, match=re.escape(f"cannot write to {out}")):
            with staged(out):
                pytest.fail("the body must not run")


def test_staged_clash_moves_nothing(tmp_path):
    # a directory where a file goes, and a file where a directory goes:
    # a.txt, staged beside the clash, must not replace its namesake either
    (tmp_path / "a.txt").write_text("kept\n")
    (tmp_path / "b.txt").mkdir()
    (tmp_path / "exp1").write_text("kept\n")
    for clash, kind in (("b.txt", "a directory"), ("exp1", "a file")):
        with pytest.raises(UsageError, match=re.escape(
                f"cannot write to {tmp_path}: {tmp_path / clash} is {kind}")):
            with staged(tmp_path) as tmp:
                (tmp / "a.txt").write_text("new\n")
                if clash == "exp1":
                    (tmp / clash).mkdir()
                else:
                    (tmp / clash).write_text("new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.txt", "b.txt", "exp1"]
        assert (tmp_path / "a.txt").read_text() == "kept\n"



def test_staged_removes_the_owned_files_it_did_not_write(tmp_path):
    for name in ("a_1.csv", "a_2.csv", "a_index.json", "b.csv"):
        (tmp_path / name).write_text("earlier\n")
    # a failed run removes none of them
    with pytest.raises(KeyError):
        with staged(tmp_path, owns=("a_*.csv",)):
            raise KeyError("later failure")
    with staged(tmp_path, owns=("a_*.csv",)) as tmp:
        (tmp / "a_1.csv").write_text("new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a_1.csv", "a_index.json", "b.csv"]
    assert (tmp_path / "a_1.csv").read_text() == "new\n"
    assert (tmp_path / "b.csv").read_text() == "earlier\n"
