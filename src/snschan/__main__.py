"""``python -m snschan``: the command-line entry point, `cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
