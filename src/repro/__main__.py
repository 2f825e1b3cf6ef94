"""``python -m repro`` — the one command-line front end.

Passes argv unchanged to :func:`repro.harness.cli.main`, so
``python -m repro run --quick`` runs the reduced roster,
``python -m repro run --list`` prints it, and ``python -m repro show
RUN_ID --render`` prints a stored run's tables, shape checks and
timelines.  ``python -m repro.harness`` is the same CLI.
"""

from __future__ import annotations

import sys

from repro.harness.cli import main

if __name__ == "__main__":
    sys.exit(main())
