"""Check-report containers and serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import IOFailure


def worst_of(*values: float) -> float:
    """The largest of ``values``, or NaN when any of them is NaN.

    The builtin ``max`` keeps its running value when compared with NaN, so
    ``max(0.0, nan)`` is 0.0 and a NaN residual would pass its check.
    """
    vals = [float(v) for v in values]
    return math.nan if any(v != v for v in vals) else max(vals)


@dataclass
class CheckItem:
    """One named residual with its tolerance and verdict."""

    name: str
    max_residual: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.max_residual = float(self.max_residual)
        self.tol = float(self.tol)
        self.passed = bool(self.max_residual <= self.tol)


def fold(rows, tol: float | None = None) -> list:
    """One ``CheckItem`` per check of ``(check name, residual, tolerance)`` rows.

    A check keeps the ``worst_of`` its residuals (so a NaN wins), the checks
    are listed in the order of their first row, and ``tol``, when given,
    replaces every tolerance.
    """
    worst: dict = {}
    tols: dict = {}
    for name, residual, row_tol in rows:
        worst[name] = worst_of(worst.get(name, 0.0), residual)
        tols[name] = row_tol
    return [CheckItem(name, worst[name], tols[name] if tol is None else tol) for name in worst]


@dataclass
class CheckReport:
    """Named residuals, tolerances and verdicts for one verification suite."""

    suite: str
    params: dict
    checks: list
    passed: bool
    runtime_ms: float = 0.0

    @classmethod
    def build(cls, suite: str, params: dict, checks: list, runtime_ms: float = 0.0) -> "CheckReport":
        return cls(suite, params, list(checks), all(c.passed for c in checks), runtime_ms)


def report_to_dict(r: CheckReport) -> dict:
    return {
        "suite": r.suite,
        "params": dict(r.params),
        "checks": [
            {"name": c.name, "max_residual": c.max_residual, "tol": c.tol, "pass": c.passed}
            for c in r.checks
        ],
        "pass": r.passed,
        "runtime_ms": r.runtime_ms,
    }


def emit_report(r: CheckReport, fmt: str = "json") -> str:
    """Serialize a report; JSON key order is fixed by construction order."""
    if fmt == "json":
        try:
            return json.dumps(report_to_dict(r), indent=2)
        except (TypeError, ValueError) as exc:
            raise IOFailure(f"cannot serialize report: {exc}") from exc
    if fmt == "text":
        lines = [f"suite: {r.suite}"]
        lines.append("params: " + " ".join(f"{k}={v}" for k, v in r.params.items()))
        for c in r.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(f"  [{verdict}] {c.name}: max_residual={c.max_residual:.3e} tol={c.tol:.1e}")
        lines.append(f"overall: {'pass' if r.passed else 'FAIL'} ({r.runtime_ms:.1f} ms)")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")
