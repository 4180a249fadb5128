"""Output files that appear whole or not at all.

A command opens its outputs as ``OutputFile``s inside one ``replacing()``
block. Each is written to a temporary file beside its target; when the block
ends, each temporary file is synced to disk and renamed over its target, or
removed if the block raised. The block decides, not the file: closing an
``OutputFile`` only flushes it, so no wrapper that closes a file can publish
a partial output. A target that exists and is not a regular file
(``/dev/null``, a FIFO, a terminal) has nothing to replace and is written
in place.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
import stat

_opened: list | None = None  # the OutputFiles of the enclosing replacing() block


@contextlib.contextmanager
def replacing():
    """Rename each OutputFile opened in the block over its target when the block ends; remove them if it raises."""
    global _opened
    if _opened is not None:
        raise RuntimeError("replacing() blocks do not nest")
    _opened = files = []
    try:
        yield
        for f in files:
            f.commit()
    except BaseException:
        for f in files:
            f.discard()
        raise
    finally:
        _opened = None


def _in_place(path) -> bool:
    """Whether ``path`` names something other than a regular file, so it is written where it is."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # missing, or a parent is not a directory
        return False


def _temp_path(target: str) -> str:
    return f"{target}.{os.urandom(4).hex()}.tmp"


def check_writable(path, targets: set) -> None:
    """Raise the OSError that writing ``path`` as an ``OutputFile`` would raise; write nothing.

    The resolved target (a symlink's file, even a missing one) must open for
    appending, as ``open(path, "w")`` requires, and a temporary file must be
    creatable beside it. Missing parent directories are created, as
    ``OutputFile`` would create them. ``targets`` holds the resolved targets
    of the command's outputs checked so far: a second output that would
    replace one of them is an error, since one rename would lose the other.
    A target written in place is only checked for permission: opening a FIFO
    would wait for its reader.
    """
    if _in_place(path) and not os.path.isdir(path):
        if not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return
    target = os.path.realpath(path)
    if target in targets:
        raise OSError(f"another output of this command also writes {target!r}")
    targets.add(target)
    existed = os.path.lexists(target)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    open(target, "a").close()
    if not existed:
        os.remove(target)
    tmp = _temp_path(target)
    open(tmp, "x").close()
    os.remove(tmp)


class OutputFile:
    """A text output, written to a temporary file beside ``path`` until ``replacing()`` commits it.

    ``path`` is resolved first, so a symlinked output stays a link and the
    file it points at is replaced. Each line is flushed to the operating
    system as it is written; ``commit`` syncs the file before renaming it. A
    killed process leaves the ``*.tmp`` file behind.
    """

    def __init__(self, path):
        if _opened is None:
            raise RuntimeError("an OutputFile is opened inside outputs.replacing()")
        if _in_place(path):
            self.target, self.tmp = os.fspath(path), None
            self._fh = open(path, "w", encoding="utf-8", newline="\n", buffering=1)
        else:
            self.target = os.path.realpath(path)
            os.makedirs(os.path.dirname(self.target), exist_ok=True)
            self.tmp = _temp_path(self.target)
            # "x" creates the file with the mode open(path, "w") gives a new file;
            # tempfile.mkstemp would make it 0600.
            self._fh = open(self.tmp, "x", encoding="utf-8", newline="\n", buffering=1)
        self.write = self._fh.write
        _opened.append(self)

    def close(self) -> None:
        """Flush what was written; whether it replaces the target is ``replacing()``'s decision."""
        self._fh.flush()

    def commit(self) -> None:
        if self.tmp is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._fh.close()
        if self.tmp is not None:
            if os.path.exists(self.target):
                shutil.copymode(self.target, self.tmp)  # as "w" keeps an existing file's mode
            os.replace(self.tmp, self.target)

    def discard(self) -> None:
        with contextlib.suppress(OSError):
            self._fh.close()  # a failed flush of a file being thrown away does not matter
        if self.tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.tmp)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
