"""`python -m cacforge`: the command line of `cacforge.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
