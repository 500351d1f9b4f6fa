"""``python -m skeinforge``: the same entry point as the ``skeinforge`` script."""

import sys

from .cli import main

sys.exit(main())
