"""`python -m fractaloid`: the same command line as the `fractaloid` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
