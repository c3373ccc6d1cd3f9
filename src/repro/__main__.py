"""``python -m repro`` entry point."""

import signal
import sys

from .cli import main

# SIGTERM takes the Ctrl-C path, so `repro serve` runs its shutdown
# (drain, then stop the shard workers, which hold the inherited
# listening socket) instead of dying with its children still bound.
signal.signal(signal.SIGTERM, signal.default_int_handler)
sys.exit(main())
