"""Settings for every test session, under ``tests/`` and ``bench/`` alike.

No test writes bytecode into the checkout: a warm ``__pycache__`` left by a
test run makes the next benchmark run start faster than one on a fresh
checkout.  The environment variable carries the setting into the
subprocesses that tests start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
