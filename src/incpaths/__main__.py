"""The command-line entry: ``python -m incpaths`` and the ``incpaths`` script."""

import gc
import sys

from .harness import main


def entry() -> None:
    """Run the command, then exit with its code.  The collector is frozen
    first: the interpreter's collections at shutdown then skip every object
    already alive, which a short command would otherwise pay on each exit.
    atexit handlers and stream flushes still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
