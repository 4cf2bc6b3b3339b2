"""Atomic replacement of dataset and checkpoint files."""

import errno
import os

import numpy as np
import pytest

from cqakit import files
from cqakit.encoders import load_checkpoint, save_checkpoint
from cqakit.queries import parse_grounded
from cqakit.sampler import Dataset, GroundedQueryRecord, read_dataset, write_dataset
from conftest import answer_set


class FullDisk:
    """A file whose writes fail, as on a full disk, after the first ``allowed``."""

    def __init__(self, fh, allowed):
        self.fh, self.allowed = fh, allowed

    def write(self, data):
        if not self.allowed:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.allowed -= 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def failing_open(allowed):
    return lambda *args, **kwargs: FullDisk(open(*args, **kwargs), allowed)


def small_dataset() -> Dataset:
    query = parse_grounded("(p,(0),(e,(2)))")
    record = GroundedQueryRecord("(p,(e))", query, answer_set({4}), answer_set({4, 7}), answer_set({4, 7, 9}))
    return Dataset({"(p,(e))": [record]}, num_entities=10, num_relations=1)


def write_small_dataset(path):
    write_dataset(small_dataset(), path)


def write_small_checkpoint(path):
    save_checkpoint(path, {"note": "small"}, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4, np.float32)})


WRITERS = pytest.mark.parametrize(
    "write", [write_small_dataset, write_small_checkpoint], ids=["dataset", "checkpoint"]
)


@WRITERS
def test_a_failed_write_leaves_the_target_untouched(write, tmp_path, monkeypatch):
    target = tmp_path / "out"
    target.write_bytes(b"earlier contents")
    monkeypatch.setattr(files, "open", failing_open(1), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(target)
    assert target.read_bytes() == b"earlier contents"
    assert sorted(os.listdir(tmp_path)) == ["out"]


@WRITERS
def test_a_failed_write_without_a_target_leaves_no_file(write, tmp_path, monkeypatch):
    monkeypatch.setattr(files, "open", failing_open(1), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(tmp_path / "out")
    assert os.listdir(tmp_path) == []


@WRITERS
def test_a_write_replaces_the_target_with_the_mode_of_a_new_file(write, tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"earlier contents")
    target.chmod(0o600)
    write(target)
    fresh = tmp_path / "fresh"
    open(fresh, "w").close()
    assert target.stat().st_mode == fresh.stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]
    if write is write_small_dataset:
        assert read_dataset(target) == small_dataset()
    else:
        meta, tensors = load_checkpoint(target)
        assert meta == {"note": "small"} and tensors["a"].tolist() == [[0, 1, 2], [3, 4, 5]]


def test_an_exception_in_the_block_removes_the_temporary_file(tmp_path):
    target = tmp_path / "out"
    target.write_text("kept")
    with pytest.raises(KeyError):
        with files.replacing(target, "x") as fh:
            fh.write("partial")
            assert sorted(os.listdir(tmp_path)) == ["out", f"out.tmp-{os.getpid()}"]
            raise KeyError("stop")
    assert target.read_text() == "kept"
    assert os.listdir(tmp_path) == ["out"]
