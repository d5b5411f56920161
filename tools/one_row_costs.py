"""Time the per-vector entry points of the stacked kernels on two trees, side by side.

    python tools/one_row_costs.py PARENT_DIR CHANGE_DIR [--rounds R] [--number N]

Each per-vector function whose stacked kernel serves the sampled suite
checks (``FUNCTIONS``) is called warm at one bundle point of a space form
(n = 3, nu = 1, c = 2, eps = +1), on vectors drawn once from a fixed seed.
Both trees' ``src/sasakigeo`` packages are loaded into this one process
under their own names, each with its own chart, point and vectors, so the
two sides see the same host at the same moment.  A round times every
function on both sides, one ``timeit`` sample of N calls each, the parent
first in odd rounds and the change first in even rounds, so a drift of the
host's speed favours neither, and a burst of load on the host spoils the
samples of one round only.  The table gives each function's least time per
call over the rounds in microseconds on both sides, each beside the
interquartile range of that side's rounds (0 for one round), so a reader
can tell a difference from the host's noise; then their difference, and
"ok" when the change's least time stays within max(3 %, 0.3 us) of the
parent's.
Both trees must hold each function under its name and signature.  The tool
writes nothing.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import timeit
from pathlib import Path

REL_BOUND, ABS_BOUND_US = 0.03, 0.3  # the change is within max(3 %, 0.3 us) of the parent
KINDS = ("hh", "ht", "th", "tt")

FUNCTIONS = {
    "manifold.metric_at": "manifold.metric_at(m, p.x)",
    "manifold.christoffel_at": "manifold.christoffel_at(m, p.x)",
    "manifold.riemann_at": "manifold.riemann_at(m, p.x)",
    "oracle.fd_christoffel": "oracle.fd_christoffel(m.metric_fn, p.x)",
    **{f"sphere.sb_nabla {k}": f"sphere.sb_nabla(m, xc, yc, {k[0]!r}, {k[1]!r}, p)" for k in KINDS},
    **{f"oracle.sb_nabla_via_ambient {k}": f"oracle.sb_nabla_via_ambient(m, xc, yc, {k[0]!r}, {k[1]!r}, p)" for k in KINDS},
    **{f"contact.nabla_phi_defn {k}": f"contact.nabla_phi_defn(m, xc, yc, {k[0]!r}, {k[1]!r}, p)" for k in KINDS},
    "contact.nabla_xi": "contact.nabla_xi(m, p, a)",
    "contact.nabla_phi": "contact.nabla_phi(m, p, lift['h'], lift['t'])",
    "contact.phi_sectional": "contact.phi_sectional(m, p, k)",
    "sphere.sb_curvature": "sphere.sb_curvature(m, p, a, b, c)",
    "sphere.induced_metric_at": "sphere.induced_metric_at(m, p, a, b)",
    "oracle.gauss_curvature_oracle": "oracle.gauss_curvature_oracle(m, p, a, b, c)",
    "oracle._embed_induced": "oracle._embed_induced(m, a)",
    "sampling.sample_sb_vec": "sampling.sample_sb_vec(m, p, rng)",
    "sampling.sample_ker_eta_vec": "sampling.sample_ker_eta_vec(m, p, rng)",
}


def load_tree(tree: Path, alias: str) -> dict:
    """The layer modules of ``tree/src/sasakigeo``, imported as the package ``alias``."""
    pkg = tree / "src" / "sasakigeo"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return {name: importlib.import_module(f"{alias}.{name}") for name in ("contact", "manifold", "oracle", "sampling", "sphere")}


def namespace(mods: dict) -> dict:
    """The chart, point, vectors and warm contexts one tree's timed statements share."""
    import numpy as np

    contact, manifold, oracle, sampling, sphere = (mods[k] for k in ("contact", "manifold", "oracle", "sampling", "sphere"))
    m = manifold.space_form_chart(manifold.SpaceFormSpec(3, 1, 2.0))
    rng = np.random.default_rng(20260)
    p = sampling.sample_sb_point(m, 1, rng)
    a, b, c = (sampling.sample_sb_vec(m, p, rng) for _ in range(3))
    k = sampling.sample_ker_eta_vec(m, p, rng)
    xc, yc = rng.normal(size=3), rng.normal(size=3)
    ns = dict(
        m=m, p=p, a=a, b=b, c=c, k=k, xc=xc, yc=yc, rng=rng,
        contact=contact, manifold=manifold, oracle=oracle, sampling=sampling, sphere=sphere,
        lift={kind: sphere.lift(m, p, kind, w) for kind, w in (("h", xc), ("t", yc))},
    )
    for statement in FUNCTIONS.values():  # build every kept context before timing
        eval(statement, ns)
    return ns


def within(parent_us: float, change_us: float) -> bool:
    return change_us - parent_us <= max(REL_BOUND * parent_us, ABS_BOUND_US)


def iqr(values: list) -> float:
    """The interquartile range (inclusive quartiles) of values; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def measure(parent: Path, change: Path, rounds: int, number: int) -> dict:
    """{side: {function: microseconds per call of each round}} over interleaved rounds."""
    spaces = {"parent": namespace(load_tree(parent, "tree_parent")), "change": namespace(load_tree(change, "tree_change"))}
    timers = {name: {side: timeit.Timer(stmt, globals=ns) for side, ns in spaces.items()} for name, stmt in FUNCTIONS.items()}
    samples = {side: {name: [] for name in FUNCTIONS} for side in spaces}
    for r in range(rounds):
        for name, timer in timers.items():
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                samples[side][name].append(timer[side].timeit(number) / number * 1e6)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--number", type=int, default=200, help="calls per timeit sample")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.number < 1:
        parser.error("--rounds and --number must be >= 1")
    samples = measure(args.parent.resolve(), args.change.resolve(), args.rounds, args.number)
    print(
        f"{'function':40s} {'parent us':>10s} {'IQR':>6s} {'change us':>10s} {'IQR':>6s} {'delta us':>9s}"
        "  within max(3 %, 0.3 us)"
    )
    for name in FUNCTIONS:
        parent, change = samples["parent"][name], samples["change"][name]
        pu, cu = min(parent), min(change)
        print(
            f"{name:40s} {pu:10.2f} {iqr(parent):6.2f} {cu:10.2f} {iqr(change):6.2f} {cu - pu:+9.2f}"
            f"  {'ok' if within(pu, cu) else 'SLOWER'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
