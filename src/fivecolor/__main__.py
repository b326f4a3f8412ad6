"""`python -m fivecolor`: the same command line as the `fivecolor` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
