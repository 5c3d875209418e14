"""``python -m lieseek``: the command-line interface, runnable from a
source checkout with ``PYTHONPATH=src`` and without installing."""

import sys

from .cli import main

sys.exit(main())
