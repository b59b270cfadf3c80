"""``python -m pointerlab ...``: the command-line front end, as ``pointerlab ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
