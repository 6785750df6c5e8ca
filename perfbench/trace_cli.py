"""Run the mcde command with spans recorded around the library's calls.

    python3 perfbench/trace_cli.py SPAN_DIR gen-data --scenes 8 --out data

The spans of this process go to SPAN_DIR/spans-main-<pid>.npz when the
command ends; fold workers forked by ``mcde bench`` write their own
files there after each fold (see tracer.py).
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    span_dir = Path(sys.argv[1])
    tracer = Tracer(flush_dir=span_dir)
    install(tracer)
    import mcde.cli

    try:
        return mcde.cli.main(sys.argv[2:])
    finally:
        tracer.dump(span_dir / f"spans-main-{os.getpid()}.npz")


if __name__ == "__main__":
    sys.exit(main())
