"""``python -m bvn``: the command-line front end, ``bvn.cli.main``."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
