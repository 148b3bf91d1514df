"""Writing output files without waiting for the disk.

``open(path, "w")`` truncates an existing file to zero length.  On ext4
with its default ``auto_da_alloc`` option, closing a file that was
truncated to zero starts writeback of its new contents and blocks the
writer until the block layer has taken them: about 0.25 ms for a 4 KiB
file on an idle virtual disk, over 3 ms at the 99th percentile.  Commands that
rewrite the same output file, such as a loop of ``qcomb unravel --out``,
paid that wait on every run.  :func:`overwrite` writes the new contents
over the old ones and then cuts the file to their length, which leaves
the writeback to the kernel's flusher.

Neither way calls ``fsync``, so neither makes the file durable.  After a
system crash that comes before the writeback, a file truncated to zero is
empty; a file overwritten in place may still hold its old contents.
"""

from __future__ import annotations

import contextlib
import os
import stat
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def overwrite(
    path: str | Path, encoding: str | None = None, newline: str | None = None
) -> Iterator[IO[str]]:
    """Open ``path`` for text output, replacing its contents, like ``open(path, "w")``.

    A regular file is written in place and cut to the written length when
    the block ends, also when it ends with an exception, so the file then
    holds what was written, as with ``"w"``.  Other files (a terminal, a
    pipe, ``/dev/null``) are written as ``"w"`` would write them.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding=encoding, newline=newline) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()
