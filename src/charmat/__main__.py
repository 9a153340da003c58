"""``python -m charmat``: the ``charmat`` command line."""
from .cli import run

run()
