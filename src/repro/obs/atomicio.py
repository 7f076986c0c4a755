"""Atomic artifact writes shared by every file-producing subsystem.

An interrupted harness run must never leave a truncated ``results/*.json``,
result-store entry, or trace-cache entry behind — downstream tooling
treats those files as ground truth.  Every writer funnels through
:func:`atomic_output_file`: the content is written to a temp file in the
destination directory, **fsynced**, and moved into place with
``os.replace``, which is atomic on POSIX filesystems (and the same
pattern the trace cache has always used, now shared instead of
re-implemented per writer); the destination directory is then fsynced
so the rename itself is durable.

``os.replace`` alone only orders the rename against other *metadata*
operations — after a power loss, an un-fsynced temp file can be
replayed as empty or truncated even though the rename committed, which
is exactly the "truncated results/*.json" this module promises never to
leave behind.  The fsync pair (file before rename, directory after)
closes that hole; the persistent result store of
:mod:`repro.harness.resultstore` inherits the guarantee through this
helper, which is what lets a killed ``--result-store`` sweep resume from
every entry it committed.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, Iterator, Union

PathLike = Union[str, "os.PathLike[str]"]


def _fsync_path(path: str) -> None:
    """fsync a file by path (the writer closed its own handle)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: str) -> None:
    """fsync a directory so a just-committed rename survives power loss.

    Best-effort: directories cannot be opened for fsync on some
    platforms (notably Windows); there ``os.replace`` atomicity is all
    we can get and the rename's durability rides on the next metadata
    flush.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_output_file(path: PathLike) -> Iterator[str]:
    """Yield a temp path that replaces ``path`` atomically on success.

    The temp file lives in the destination directory so ``os.replace``
    never crosses filesystems.  Before the rename the temp file is
    fsynced (so the committed name can never point at truncated data
    after a crash) and after it the directory is fsynced (so the rename
    itself is durable).  On any exception the temp file is removed and
    ``path`` is left untouched (pre-existing content included).  Parent
    directories are created as needed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path), suffix=".tmp"
    )
    os.close(fd)
    try:
        yield tmp
        _fsync_path(tmp)
        os.replace(tmp, path)
        _fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> None:
    """Atomically write ``text`` to ``path``."""
    with atomic_output_file(path) as tmp:
        with open(tmp, "w", encoding=encoding) as fh:
            fh.write(text)


def atomic_write_json(
    path: PathLike,
    doc: Any,
    indent: int = 1,
    sort_keys: bool = True,
    trailing_newline: bool = True,
) -> None:
    """Atomically write ``doc`` as JSON to ``path``.

    ``trailing_newline=False`` reproduces the historical byte format of
    ``results/*.json`` (plain ``json.dump``), which CI compares with
    ``cmp`` across serial/parallel/interpreted runs.
    """
    text = json.dumps(doc, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    atomic_write_text(path, text)
