"""Time one stiffid command in-process and count its minor page faults.

    python tools/faults.py ARGV...

Runs ``stiffid.cli.main(ARGV)`` 3 times to warm up (numpy's lazy
imports, the parser, the heap), then 20 times more, and prints the
median wall time and the median minor page faults per timed call, as
``resource.getrusage(RUSAGE_SELF)`` counts them.  The command's own
stdout is discarded; a call that does not exit 0 stops the tool with
its exit code.  The package is imported from ``src/`` beside this
script.  For example:

    python tools/faults.py benchmark zero-detection --trials 100 --out /tmp/zd

Minor faults depend on the heap's history as well as on the code, so
compare counts from this tool only, with the same arguments.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stiffid.cli import main as stiffid_main  # noqa: E402

WARMUP_CALLS = 3
TIMED_CALLS = 20


def _call(argv: list[str]) -> tuple[float, int]:
    """Run the command once; return its wall time (s) and minor faults."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = stiffid_main(argv)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if status != 0:
        raise SystemExit(status)
    return wall, faults


def main(argv=None) -> int:
    command = sys.argv[1:] if argv is None else argv
    if not command:
        sys.exit(__doc__)
    for _ in range(WARMUP_CALLS):
        _call(command)
    walls, faults = zip(*(_call(command) for _ in range(TIMED_CALLS)))
    print(f"stiffid {' '.join(command)}")
    print(f"  {TIMED_CALLS} calls after {WARMUP_CALLS} warm-up: median "
          f"{statistics.median(walls) * 1e3:.2f} ms and "
          f"{statistics.median(faults):g} minor faults per call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
