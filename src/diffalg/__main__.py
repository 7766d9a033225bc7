"""Run the command line front end as ``python -m diffalg``."""

import sys

from .cli import main

sys.exit(main())
