#!/usr/bin/env python3
"""Run the CLI over every fixture input and print each report.

Usage: python3 scripts/run_fixtures.py [--json] [extra CLI flags...]

Fixtures that exist to exercise error paths (malformed input, resource
blow-ups) are run with the flags that make their failure mode visible.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fibrecheck.cli import run  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

SPECIAL_FLAGS = {
    "oversized.alg": ["--pair-limit", "200", "--timeout-seconds", "2"],
}


def main() -> int:
    extra = sys.argv[1:]
    worst = 0
    for path in sorted(FIXTURES.glob("*.alg")):
        flags = SPECIAL_FLAGS.get(path.name, [])
        print(f"=== {path.name} ===")
        code = run(["--input", str(path), *flags, *extra])
        print(f"--- exit code {code}\n")
        worst = max(worst, 0 if code in (1, 2, 3) and path.name in (
            "malformed.alg", "oversized.alg") else code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
