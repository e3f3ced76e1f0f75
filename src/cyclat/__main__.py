"""``python -m cyclat``: the command line of :mod:`cyclat.cli`."""

import sys

from .cli import main

sys.exit(main())
