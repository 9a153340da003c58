"""``python -m charmat``: the ``charmat`` command line."""
import sys

from .cli import main

sys.exit(main())
