"""The radius ladder of the sweep scripts: its check and its geometric radii.

A script run by path has its own directory on sys.path, so each sweep
script imports this module as ``ladder``.
"""

import argparse
import math


def check_ladder(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exit 2 with one usage line unless --points >= 3 and 0 < --r-min < --r-max < inf."""
    if args.points < 3 or not 0.0 < args.r_min < args.r_max < math.inf:
        parser.error("the ladder needs --points >= 3 and 0 < --r-min < --r-max < inf")


def geometric_ladder(r_min: float, r_max: float, points: int) -> list[float]:
    """points radii in equal ratios from r_min to r_max, both end points exact."""
    ratio = r_max / r_min
    inner = [r_min * ratio ** (k / (points - 1)) for k in range(1, points - 1)]
    return [r_min, *inner, r_max]
