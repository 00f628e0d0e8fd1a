"""``python -m lucaskit``: the same command line as the ``lucaskit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
