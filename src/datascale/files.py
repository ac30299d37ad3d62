"""Output files that are written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def replace_on_success(path, newline: str | None = None):
    """Open ``path`` for writing UTF-8 text that appears only if the block
    completes.

    The text goes to a new file beside the target, created exclusively so
    that the umask sets its mode, which then replaces the target in one
    ``os.replace``.  If the block raises, the new file is removed and the
    target keeps its old bytes (or stays absent).  A target that exists but
    is not a regular file, such as ``/dev/null``, is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.partial"
    fh = open(partial, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        os.remove(partial)
        raise
