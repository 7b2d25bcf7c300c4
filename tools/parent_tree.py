"""The parent commit's tree in a temporary directory, for the tools that compare it with this checkout.

    with parent_tree(REF, "prefix_") as (tmp, root):
        ...

``git archive REF`` is extracted into ``tmp/parent``.  The directory is
removed when the block ends, also on SIGTERM, which raises SystemExit from
the moment the block is entered.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def parent_tree(ref: str, prefix: str):
    """(tmp, root): a temporary directory and REF's tree extracted into tmp/parent."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        root = Path(tmp) / "parent"
        root.mkdir()
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(root)], input=archive.stdout, check=True)
        yield Path(tmp), root
