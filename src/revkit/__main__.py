"""Entry point for ``python -m revkit``, equivalent to the ``revkit`` script."""
import sys

from .cli import main

sys.exit(main())
