"""``python -m knotmpc``: the same command line as the ``knotmpc`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
