"""``python -m qciore``: the command-line interface of ``qciore.cli``."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
