"""``python -m repro.obs lint PATH...``: print schema issues, exit 1 if any."""

import argparse
import sys

from .schema import lint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs",
                                     description=__doc__)
    parser.add_argument("command", choices=["lint"])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    issues = [f"{path}: {issue}"
              for path in parser.parse_args(argv).paths
              for issue in lint(path)]
    print("\n".join(issues) or "no schema issues")
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main())
