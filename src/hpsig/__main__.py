"""``python -m hpsig``: the same entry point as the ``hpsig`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
