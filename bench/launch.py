"""Run one electronlab invocation the way its console script does, timed.

Usage: python3 bench/launch.py TIMES_FILE ARG...

Calls `electronlab.cli.main(ARG...)` and exits with its return code,
like the `electronlab` entry point. It also writes TIMES_FILE, a JSON
object with `setup_s` (importing electronlab.cli and building its
parser), `main_s` (the call to main) and the path the package was
imported from. Nothing else is imported before the clock starts.
"""

import sys
import time

start = time.perf_counter()
from electronlab import cli  # noqa: E402

cli.build_parser()
ready = time.perf_counter()
code = cli.main(sys.argv[2:])
done = time.perf_counter()

import json  # noqa: E402  (already loaded by electronlab.cli)

with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"setup_s": ready - start, "main_s": done - ready, "package": cli.__file__}, fh)
sys.exit(code)
