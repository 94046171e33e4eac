"""Run a command and fail if its peak resident set reaches a limit.

    python peak_rss.py LIMIT_MB COMMAND [ARG ...]

The command inherits standard input and output. The wrapper exits with the
command's status, or with 1 when the command (with its own children) peaked
at LIMIT_MB MB or more, ``ru_maxrss`` counted in KiB as Linux reports it.
"""

import resource
import subprocess
import sys

limit_mb = float(sys.argv[1])
status = subprocess.run(sys.argv[2:]).returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)", file=sys.stderr)
if status == 0 and peak_mb >= limit_mb:
    status = 1
sys.exit(status)
