"""Output files that appear whole or not at all.

A command opens its outputs as ``OutputFile``s at the start of one
``replacing()`` block, before any other work, so a path that cannot be
written fails first. Each is written to a temporary file beside its target;
when the block ends, each temporary file is synced to disk and renamed over
its target, or removed if the block raised, along with the directories its
opening created. The block decides, not the file: closing an ``OutputFile``
only flushes it, so no wrapper that closes a file can publish a partial
output. A target that exists and is not a regular file (``/dev/null``, a
FIFO, a terminal) has nothing to replace and is written in place.
"""

from __future__ import annotations

import contextlib
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
        for f in reversed(files):  # a later file may lie in a directory an earlier one created
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


def _make_dirs(path: str, made: list) -> None:
    """Create directory ``path`` and its missing ancestors; each one created goes to the front of ``made``."""
    if not os.path.isdir(path):
        _make_dirs(os.path.dirname(path), made)
        os.mkdir(path)
        made.insert(0, path)


class OutputFile:
    """A text output, written to a temporary file beside ``path`` until ``replacing()`` commits it.

    ``path`` is resolved first, so a symlinked output stays a link and the
    file it points at is replaced. Opening raises the OSError that
    ``open(path, "w")`` would: an existing target must open for appending,
    and missing parent directories are created (``discard`` removes those
    still empty). A second output of the block that resolves to the same file
    is an OSError too, since one rename would lose the other. Each line is
    flushed to the operating system as it is written; ``commit`` syncs the
    file before renaming it. A process killed by a signal it does not turn
    into an exception (the CLI turns SIGTERM into one) leaves the ``*.tmp``
    file behind.
    """

    def __init__(self, path):
        if _opened is None:
            raise RuntimeError("an OutputFile is opened inside outputs.replacing()")
        self.made: list[str] = []  # the directories created for the target, innermost first
        if _in_place(path):
            self.target, self.tmp = os.fspath(path), None
            self._fh = open(path, "w", encoding="utf-8", newline="\n", buffering=1)
        else:
            self.target = os.path.realpath(path)
            if any(f.tmp is not None and f.target == self.target for f in _opened):
                raise OSError(f"another output of this command also writes {self.target!r}")
            if os.path.lexists(self.target):
                open(self.target, "a").close()  # a directory, or a file that may not be written
            self.tmp = f"{self.target}.{os.urandom(4).hex()}.tmp"
            try:
                _make_dirs(os.path.dirname(self.target), self.made)
                # "x" creates the file with the mode open(path, "w") gives a new file;
                # tempfile.mkstemp would make it 0600.
                self._fh = open(self.tmp, "x", encoding="utf-8", newline="\n", buffering=1)
            except OSError:
                self._remove_made()
                raise
        self.write = self._fh.write
        _opened.append(self)

    def _remove_made(self) -> None:
        for parent in self.made:
            with contextlib.suppress(OSError):  # not empty: something else was put there
                os.rmdir(parent)

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
        self._remove_made()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
