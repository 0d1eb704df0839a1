"""``python -m juxtaspec``: the command-line front end (see :mod:`juxtaspec.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
