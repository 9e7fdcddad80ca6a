"""`python -m iirsim`: the same command-line front end as `iirsim`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
