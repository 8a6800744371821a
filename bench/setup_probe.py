"""Time ``import boxlab.cli`` in a fresh interpreter and print the seconds as JSON.

    PYTHONPATH=src python3 bench/setup_probe.py src

Nothing is imported before the timed import except ``time``, so modules that
boxlab shares with the harness are paid for here, as a user pays for them.
"""

import time

_start = time.perf_counter()
import boxlab.cli  # noqa: E402

_elapsed = time.perf_counter() - _start

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    where = os.path.realpath(boxlab.cli.__file__)
    if not where.startswith(os.path.realpath(sys.argv[1]) + os.sep):
        sys.exit(f"boxlab was imported from {where}, not from {sys.argv[1]}")
    print(json.dumps({"setup_s": _elapsed}))
