"""Run a command and fail when its peak RSS is over a limit.

Usage: python3 tools/peak_rss.py LIMIT_MB COMMAND [ARG ...]

The command inherits standard input, output and error.  Its peak RSS is
printed to standard error.  The exit code is the command's, or 1 when the
command exits 0 but peaked over LIMIT_MB.  The command is this process's
only child, so ``RUSAGE_CHILDREN`` holds its peak alone.
"""

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    limit = float(sys.argv[1])
    code = subprocess.call(sys.argv[2:])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak:.1f} MB (limit {limit:g} MB): {' '.join(sys.argv[2:])}",
          file=sys.stderr)
    if code == 0 and peak > limit:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
