"""Set-up probe: time to import matguard and make the first (cold) calls.

Usage: python3 cold.py SPEC.json, where SPEC holds {"src": <dir that
contains the matguard package>, "ops": [[cli args], ...]}.  Prints
{"setup_s": seconds, "exit_codes": [...]} as JSON; a call that raises
has its exception text in place of an exit code.  The clock starts
before numpy or matguard is imported.
"""

import time

START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from matguard.cli import main as cli_main

    codes = []
    for argv in spec["ops"]:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                codes.append(cli_main(argv))
            except Exception as exc:  # reported to the parent as a failed op
                codes.append(repr(exc))
    print(json.dumps({"setup_s": time.perf_counter() - START, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
