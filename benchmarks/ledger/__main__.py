"""``python -m benchmarks.ledger``: same program as ``run.py``."""

import sys

from benchmarks.ledger.run import _bootstrap

_bootstrap()

from benchmarks.ledger.cli import main  # noqa: E402 - needs the path set up

sys.exit(main())
