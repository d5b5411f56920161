"""Command-line verification harness.

    verify <suite> [--n N] [--nu NU] [--c C] [--eps +1|-1] [--seed S]
                   [--tol T] [--points P] [--samples K]
                   [--format json|text]

The report goes to stdout (JSON by default); diagnostics go to stderr.
Exit code 0 when every check passes, 1 when any check fails, 2 on a
configuration error, including a space form that cannot be built or
validated and one whose geometry the samplers cannot sample.  The
``SASAKIGEO_SEED`` environment variable supplies the default seed and is
overridden by ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InvalidConfig, SamplingFailure
from .report import emit_report
from .suites import SUITES, SuiteConfig, run_suite


def _default_seed() -> int:
    raw = os.environ.get("SASAKIGEO_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer SASAKIGEO_SEED={raw!r}", file=sys.stderr)
        return 42


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run numerical verification suites for the tangent sphere bundle geometry.",
    )
    parser.add_argument("suite", choices=SUITES, help="verification suite to run")
    parser.add_argument("--n", type=int, default=2, help="base manifold dimension (default 2)")
    parser.add_argument("--nu", type=int, default=0, help="metric index of the base (default 0)")
    parser.add_argument("--c", type=float, default=1.0, help="constant sectional curvature (default 1)")
    parser.add_argument("--eps", type=int, default=1, choices=(1, -1), help="fiber sign g(u,u) (default +1)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 42 or $SASAKIGEO_SEED)")
    parser.add_argument("--tol", type=float, default=None, help="override every check tolerance (finite, >= 0)")
    parser.add_argument("--points", type=int, default=10, help="sample points per suite (default 10)")
    parser.add_argument("--samples", type=int, default=20, help="samples per point (default 20)")
    parser.add_argument("--format", choices=("json", "text"), default="json", help="report format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = SuiteConfig(
        suite=args.suite,
        n=args.n,
        nu=args.nu,
        c=args.c,
        eps=args.eps,
        seed=seed,
        tol=args.tol,
        num_points=args.points,
        num_samples=args.samples,
    )
    try:
        cfg.validate()
    except InvalidConfig as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(f"running suite {cfg.suite!r} (seed {cfg.seed})", file=sys.stderr)
    try:
        report = run_suite(cfg)
    except InvalidConfig as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SamplingFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit_report(report, args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
