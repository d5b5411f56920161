"""Benchmark workloads: seeded inputs, items and the independent check of each item.

An item is the unit whose latency the benchmark reports:

* ``matrix``: one (configuration, suite) row of ``verify all --seed S``,
  run through the CLI entry point;
* ``oracle-gauss``: one (a, b, c) triple on a space form, comparing
  ``sb_curvature`` with ``gauss_curvature_oracle``, plus one lift pair
  comparing ``sb_nabla`` with ``sb_nabla_via_ambient``;
* ``generic-base``: one sampled vector set on a non-locally-symmetric chart,
  checked against identities that hold on any base.

Every item returns named residuals with tolerances.  An item fails when it
raises, when a residual is not finite, or when a residual exceeds its
tolerance; failures are recorded with the item's (seed, index) and never stop
the pass.  The library is always called through module attributes
(``sphere.sb_curvature``), so that tracing wrappers and fault injection see
every call.

Right before each item, ``calibrate`` times a fixed mix of small numpy
operations.  The host's speed drifts by up to half within tens of seconds;
the item's latency scaled by CAL_REF_MS / calibration (see worker.py) reads
the same whatever the drift (see bench/README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from sasakigeo import cli, contact, manifold, oracle, report, sampling, sphere, suites

SQRT5 = math.sqrt(5.0)
SQRT8 = 2.0 * math.sqrt(2.0)
LIFT_PAIRS = (("h", "h"), ("h", "t"), ("t", "h"), ("t", "t"))

# oracle-gauss: n = 3, nu = 1, both fiber signs, three c of the matrix grid
ORACLE_CONFIGS = tuple((3, 1, eps, c) for eps in (1, -1) for c in (1.0, 2.0, -3.0 + SQRT8))
ORACLE_POINTS = 2
ORACLE_TRIPLES = 10

# generic-base: n = 3, nu in {0, 1}, both fiber signs where the index allows
GENERIC_CONFIGS = ((3, 0, 1), (3, 1, 1), (3, 1, -1))
GENERIC_POINTS = 2
GENERIC_SETS = 6

# tolerances of the same checks in the verification suites, except TOL_RBAR:
# the suites check the R-bar identities at 1e-8 on space forms, where nabla R
# is exactly zero.  On a generic base the nabla R terms are central
# differences of riemann_at (step 1e-5), whose rounding error, contracted with
# sampled vectors of norm up to 3, reaches ~2e-8 (1.7e-8 was the worst of 30
# seeds).  1e-6 stays far below a wrong closed form, whose error is O(|R|).
TOL_GAUSS = 1e-5
TOL_NABLA = 1e-9
TOL_RBAR = 1e-6
TOL_H_XI = 1e-12
TOL_H_SELF_ADJOINT = 1e-8
TOL_NABLA_PHI = 1e-9


# calibration time of the reference machine (2-vCPU Intel Xeon, Python 3.11,
# numpy 2.4): adjusted times are the times that machine would have measured
CAL_REF_MS = 0.6
_CAL_RNG = np.random.default_rng(0)
_CAL_R = _CAL_RNG.normal(size=(3, 3, 3, 3))
_CAL_G = _CAL_RNG.normal(size=(3, 3)) + 3.0 * np.eye(3)
_CAL_V = _CAL_RNG.normal(size=3)


def calibrate() -> float:
    """Milliseconds that a fixed mix of small numpy operations takes right now.

    The fastest of three repeats, so that a first call's warm-up or a
    momentary stall does not count.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(10):
            np.einsum("ijkl,j,k,l->i", _CAL_R, _CAL_V, _CAL_V, _CAL_V)
            np.allclose(_CAL_G, _CAL_G.T)
            np.linalg.inv(_CAL_G)
            float(_CAL_V @ _CAL_G @ _CAL_V)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def bench_rng(seed: int, *key: int) -> np.random.Generator:
    """The benchmark's own input stream for (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def max_abs(x) -> float:
    """max |x| that keeps NaN (``max(0.0, nan)`` would drop it)."""
    return float(np.max(np.abs(np.asarray(x, dtype=float))))


@dataclass
class Item:
    """One unit of work; ``run`` returns {name: (residual, tol)}."""

    index: int
    label: str
    run: object  # Callable[[], dict[str, tuple[float, float]]]
    chart: object = None  # the item's chart and bundle point, where it has one
    point: object = None


@dataclass
class ItemResult:
    label: str
    latency_ms: float
    cal_ms: float  # calibration measured right before the item
    residuals: dict
    failure: str = ""  # empty when the item passed its checks


@dataclass
class PassResult:
    """Everything one pass over a workload measured."""

    first_item_t: float = math.nan  # time.monotonic() when set-up ended and the first item started
    end_t: float = math.nan  # time.monotonic() when the last verdict was in
    items: list = field(default_factory=list)
    input_digest: str = ""
    verdict_digest: str = ""  # matrix only: digest of the 360 CLI verdicts
    mismatches: int = 0  # matrix only: rows whose verdict differs from expectation

    @property
    def wall_s(self) -> float:
        """First item to last verdict, less the calibrations in between."""
        return self.end_t - self.first_item_t - sum(it.cal_ms for it in self.items) / 1000.0

    def residual_digest(self) -> str:
        h = hashlib.sha256()
        for it in self.items:
            h.update(repr((it.label, sorted(it.residuals.items()), it.failure)).encode())
        return h.hexdigest()


def judge(residuals: dict) -> str:
    """Failure reason for a residual table, or '' when every check holds."""
    bad = [
        f"{name}={res!r} (tol {tol:g})"
        for name, (res, tol) in residuals.items()
        if not (math.isfinite(res) and res <= tol)
    ]
    return "; ".join(bad)


def run_item(item: Item, seed: int) -> ItemResult:
    cal_ms = calibrate()
    t0 = time.perf_counter()
    try:
        residuals = item.run()
        failure = judge(residuals)
    except Exception as exc:  # an item that raises is counted, not fatal
        residuals = {}
        failure = f"raised {type(exc).__name__}: {exc}"
    latency_ms = (time.perf_counter() - t0) * 1000.0
    if failure:
        failure = f"seed {seed} item {item.index} [{item.label}]: {failure}"
    return ItemResult(item.label, latency_ms, cal_ms, residuals, failure)


# ---------------------------------------------------------------- inputs


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def validated_space_form(n: int, nu: int, c: float, seed: int) -> manifold.ChartedMetric:
    """One chart per configuration, validated as the suites validate theirs."""
    spec = manifold.SpaceFormSpec(n, nu, c)
    m = manifold.space_form_chart(spec)
    manifold.validate_space_form(m, spec, bench_rng(seed, 9999), num_points=10)
    return m


def generic_chart(n: int, nu: int, rng: np.random.Generator, amp: float = 0.12):
    """A seeded analytic chart that is not locally symmetric.

    g = diag(s_i exp(2 f_i(x))) + amp * sin-wave off-diagonal, with f_i a
    quadratic polynomial and analytic first and second derivatives.  Returns
    the chart and its parameter arrays (for the input digest).
    """
    signs = np.array([-1.0] * nu + [1.0] * (n - nu))
    lin = 0.3 * rng.normal(size=(n, n))
    quad = 0.3 * rng.normal(size=(n, n, n))
    quad = 0.5 * (quad + np.swapaxes(quad, 1, 2))
    wave = rng.normal(size=(n, n, n))
    wave = 0.5 * (wave + np.swapaxes(wave, 0, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
    phase = 0.5 * (phase + phase.T)
    off = 1.0 - np.eye(n)

    def diag_part(x):
        f = lin @ x + 0.5 * np.einsum("ijk,j,k->i", quad, x, x)
        df = lin + np.einsum("ijk,k->ij", quad, x)  # df[i, k] = d_k f_i
        return signs * np.exp(2.0 * f), df

    def arg(x):
        return np.einsum("ijk,k->ij", wave, x) + phase

    def metric_fn(x):
        d, _ = diag_part(x)
        return np.diag(d) + amp * off * np.sin(arg(x))

    def deriv1_fn(x):
        d, df = diag_part(x)
        out = amp * off * np.cos(arg(x)) * np.moveaxis(wave, 2, 0)  # [k, i, j]
        idx = np.arange(n)
        out[:, idx, idx] = (2.0 * d[:, None] * df).T
        return out

    def deriv2_fn(x):
        d, df = diag_part(x)
        out = -amp * off * np.sin(arg(x)) * np.einsum("ijk,ijl->klij", wave, wave)
        idx = np.arange(n)
        diag_kl = 2.0 * d[:, None, None] * (2.0 * np.einsum("ik,il->ikl", df, df) + quad)  # [i, k, l]
        out[:, :, idx, idx] = np.moveaxis(diag_kl, 0, 2)
        return out

    m = manifold.ChartedMetric(
        dim=n,
        index=nu,
        metric_fn=metric_fn,
        deriv1_fn=deriv1_fn,
        deriv2_fn=deriv2_fn,
        domain_fn=lambda x: bool(np.all(np.abs(x) < 0.45)),
        name=f"generic(n={n},nu={nu})",
    )
    return m, (signs, lin, quad, wave, phase)


def signature_holds(m, rng: np.random.Generator, probes: int = 50) -> bool:
    for _ in range(probes):
        x = rng.uniform(-0.45, 0.45, size=m.dim)
        if int((np.linalg.eigvalsh(m.metric_fn(x)) < 0).sum()) != m.index:
            return False
    return True


def seeded_generic_chart(n: int, nu: int, seed: int, key: int):
    """The first draw of ``generic_chart`` for (seed, key) whose index is nu on the whole domain."""
    for attempt in range(100):
        m, params = generic_chart(n, nu, bench_rng(seed, 100, key, attempt))
        if signature_holds(m, bench_rng(seed, 101, key, attempt)):
            return m, params
    raise RuntimeError(f"no generic chart with index {nu} for seed {seed}")


def oracle_gauss_items(seed: int):
    items, arrays = [], []
    for k, (n, nu, eps, c) in enumerate(ORACLE_CONFIGS):
        m = validated_space_form(n, nu, c, seed)
        for pt in range(ORACLE_POINTS):
            rng = bench_rng(seed, k, pt)
            p = sampling.sample_sb_point(m, eps, rng)
            arrays += [p.x, p.u]
            for t in range(ORACLE_TRIPLES):
                a, b, cv = (sampling.sample_sb_vec(m, p, rng) for _ in range(3))
                kx, ky = LIFT_PAIRS[t % len(LIFT_PAIRS)]
                xc, yc = rng.normal(size=n), rng.normal(size=n)
                arrays += [v.comps() for v in (a, b, cv)] + [xc, yc]
                label = f"n={n},nu={nu},eps={eps:+d},c={c:.6g},point={pt},triple={t}"
                run = _oracle_gauss_run(m, p, a, b, cv, kx, ky, xc, yc)
                items.append(Item(len(items), label, run, m, p))
    return items, digest_arrays(arrays)


def _oracle_gauss_run(m, p, a, b, cv, kx, ky, xc, yc):
    def run():
        closed = sphere.sb_curvature(m, p, a, b, cv)
        gauss = oracle.gauss_curvature_oracle(m, p, a, b, cv)
        nab = sphere.sb_nabla(m, xc, yc, kx, ky, p)
        via = oracle.sb_nabla_via_ambient(m, xc, yc, kx, ky, p)
        return {
            "sb_curvature = Gauss oracle": (max_abs(closed.comps() - gauss.comps()), TOL_GAUSS),
            f"sb_nabla {kx}{ky} = projected ambient": (max_abs(nab.comps() - via.comps()), TOL_NABLA),
        }

    return run


def generic_base_items(seed: int):
    items, arrays = [], []
    for k, (n, nu, eps) in enumerate(GENERIC_CONFIGS):
        m, params = seeded_generic_chart(n, nu, seed, k)
        arrays += list(params)
        for pt in range(GENERIC_POINTS):
            rng = bench_rng(seed, 200 + k, pt)
            p = sampling.sample_sb_point(m, eps, rng)
            arrays += [p.x, p.u]
            for s in range(GENERIC_SETS):
                vecs = tuple(sampling.sample_sb_vec(m, p, rng) for _ in range(4))
                ka, kb = LIFT_PAIRS[s % len(LIFT_PAIRS)]
                xc, yc = rng.normal(size=n), rng.normal(size=n)
                arrays += [v.comps() for v in vecs] + [xc, yc]
                label = f"n={n},nu={nu},eps={eps:+d},point={pt},set={s}"
                run = _generic_run(m, p, vecs, ka, kb, xc, yc, with_oracle=(s == 0))
                items.append(Item(len(items), label, run, m, p))
    return items, digest_arrays(arrays)


def _generic_run(m, p, vecs, ka, kb, xc, yc, with_oracle):
    a, b, c, d = vecs

    def run():
        def rbar(v1, v2, v3):
            return sphere.sb_curvature(m, p, v1, v2, v3)

        def low(r, v4):
            return sphere.induced_metric_at(m, p, r, v4)

        r_abc = rbar(a, b, c)
        abcd = low(r_abc, d)
        bianchi = r_abc + rbar(b, c, a) + rbar(c, a, b)
        data = contact.contact_data_at(m, p)
        hop = contact.h_at(m, p)
        lift = {"h": lambda w: sphere.horizontal_sb(p, w), "t": lambda w: sphere.tangential_lift(m, p, w)}
        closed = contact.nabla_phi(m, p, lift[ka](xc), lift[kb](yc))
        defn = contact.nabla_phi_defn(m, xc, yc, ka, kb, p)
        nxi = contact.nabla_xi(m, p, a)
        nxi_rhs = (-p.eps) * data.phi(a) + (-1.0) * data.phi(hop.apply(a))
        res = {
            "R-bar antisymmetry (a,b)": (abs(abcd + low(rbar(b, a, c), d)), TOL_RBAR),
            "R-bar antisymmetry (c,d)": (abs(abcd + low(rbar(a, b, d), c)), TOL_RBAR),
            "R-bar pair symmetry": (abs(abcd - low(rbar(c, d, a), b)), TOL_RBAR),
            "R-bar first Bianchi": (max_abs(bianchi.comps()), TOL_RBAR),
            "h(xi) = 0": (max_abs(hop.apply(data.xi).comps()), TOL_H_XI),
            "h self-adjoint for g_cm": (abs(data.gcm(hop.apply(a), b) - data.gcm(a, hop.apply(b))), TOL_H_SELF_ADJOINT),
            f"nabla_phi {ka}{kb} = definition": (max_abs(closed.comps() - defn.comps()), TOL_NABLA_PHI),
            "nabla xi = -eps phi - phi h": (max_abs(nxi.comps() - nxi_rhs.comps()), TOL_NABLA_PHI),
        }
        if with_oracle:
            gauss = oracle.gauss_curvature_oracle(m, p, a, b, c)
            res["sb_curvature = Gauss oracle"] = (max_abs(r_abc.comps() - gauss.comps()), TOL_GAUSS)
        return res

    return run


# ---------------------------------------------------------------- matrix


def published_expectation(suite: str, n: int, eps: int, c: float) -> bool:
    """The verdict each suite should reach, as the paper states it."""
    if suite == "k-contact":
        return abs(c - eps) < 1e-12
    if suite == "sasakian":
        roots = (1.0,) if eps == 1 else (-3.0 + SQRT8, -3.0 - SQRT8)
        return min(abs(c - r) for r in roots) < 1e-12
    if suite == "phi-sectional":
        return n == 2 or min(abs(c - 2.0 * eps - SQRT5), abs(c - 2.0 * eps + SQRT5)) < 1e-12
    return True


# README "Known discrepancies at eps = -1": these verdicts are disputed, so
# either verdict is accepted there; every other row must match the paper.
DISPUTED = {("axioms", -1), ("sasakian", -1)}


def check_row(cfg, rep) -> dict:
    sub = [c.max_residual for c in rep.checks]
    agrees = rep.passed == published_expectation(cfg.suite, cfg.n, cfg.eps, cfg.c)
    return {
        "sub-suite has checks": (0.0 if sub else 1.0, 0.0),
        "sub-suite residuals finite": (float(np.max(np.abs(sub))) if sub else 0.0, math.inf),
        "verdict = published expectation": (0.0 if agrees or (cfg.suite, cfg.eps) in DISPUTED else 1.0, 0.0),
    }


class _StopAtFirstItem(Exception):
    pass


def run_matrix(seed: int, setup_only: bool = False) -> PassResult:
    """``verify all --seed S`` through the CLI, one item per (configuration, suite) row."""
    out = PassResult()
    argv = ["all", "--seed", str(seed)]
    out.input_digest = hashlib.sha256(repr(argv).encode()).hexdigest()
    inner = suites.run_suite

    def row(cfg):
        if cfg.suite == "all":
            return inner(cfg)
        if not out.items:
            out.first_item_t = time.monotonic()
            if setup_only:
                raise _StopAtFirstItem
        got = []

        def item_run():
            got.append(inner(cfg))
            return check_row(cfg, got[0])

        label = f"{cfg.suite}[n={cfg.n},nu={cfg.nu},eps={cfg.eps:+d},c={cfg.c:.6g}]"
        res = run_item(Item(len(out.items), label, item_run), seed)
        out.items.append(res)
        if got:
            return got[0]
        # the row raised: report it as failing so that the matrix carries on
        return report.CheckReport.build(cfg.suite, cfg.params(), [report.CheckItem("raised", math.inf, 0.0)])

    stdout = io.StringIO()
    suites.run_suite = row
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    except _StopAtFirstItem:
        return out
    finally:
        suites.run_suite = inner
    out.end_t = time.monotonic()
    rows = json.loads(stdout.getvalue())["checks"]
    out.verdict_digest = hashlib.sha256(repr([(r["name"], r["pass"]) for r in rows]).encode()).hexdigest()
    out.mismatches = sum(not r["pass"] for r in rows)
    if len(rows) != len(out.items):
        raise RuntimeError(f"the CLI reported {len(rows)} rows but the benchmark timed {len(out.items)}")
    return out


# ---------------------------------------------------------------- passes


BUILDERS = {"oracle-gauss": oracle_gauss_items, "generic-base": generic_base_items}


def build_items(workload: str, seed: int):
    """The workload's items and the digest of their inputs."""
    return BUILDERS[workload](seed)


def run_pass(workload: str, seed: int, setup_only: bool = False, items=None) -> PassResult:
    """Set the workload up, then run every item once, in order (a closed loop)."""
    if workload == "matrix":
        return run_matrix(seed, setup_only)
    out = PassResult()
    if items is None:
        items, out.input_digest = build_items(workload, seed)
    out.first_item_t = time.monotonic()
    if setup_only:
        return out
    out.items = [run_item(item, seed) for item in items]
    out.end_t = time.monotonic()
    return out
