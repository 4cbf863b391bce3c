"""Alias of ``repro sweep`` — the full Table 3 sweep (``--help`` lists the flags)."""

import sys

from repro.cli import main as repro_main


def main(argv=None) -> int:
    """Run ``repro sweep`` with this script's arguments."""
    return repro_main(["sweep", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
