"""``python -m covertower``: the same entry point as the ``covertower`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
