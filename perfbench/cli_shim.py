"""Run one bbstl CLI command with spans installed (traced CLI cycle only).

Usage, from the repository root:

    python perfbench/cli_shim.py RESULT.json COMMAND [ARG...]

Runs ``bbstl.cli.main([COMMAND, ARG...])`` and writes to RESULT.json the
time this script started, the interval spent importing ``bbstl.cli``, and
the spans and counts recorded while the command ran.  Exits with the
command's exit code.  Times come from ``time.perf_counter``, the same
system-wide clock the client reads.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
IMPORT_START = time.perf_counter()
from bbstl import cli  # noqa: E402

IMPORT_END = time.perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    result, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    result.write_text(json.dumps({
        "start": START, "import": [IMPORT_START, IMPORT_END],
        "spans": tracer.spans, "counters": tracer.counters}))
    return code


if __name__ == "__main__":
    sys.exit(main())
