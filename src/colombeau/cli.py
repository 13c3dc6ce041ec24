"""Batch driver: build nets from a config file, run checks, write records.

Commands
    classify      growth-order verdicts for the selected nets
    equiv         equivalence plus 0-association for net pairs
    vb-equiv      bundle-hom equivalence (nets act as fiber matrices)
    hybrid-equiv  hybrid equivalence (nets act as section fibers)
    pointvals     generalized point-value comparison for net pairs
    associate     associated-zero checks, k-association pairs, shadows
    ppwave        impulsive-wave kink study
    suite         the full acceptance run, one line per criterion

Config is INI-style.  ``[grid]`` and ``[tolerances]`` set the eps grid and
the fit/association tolerances, ``[atlas]`` the working chart, and each
``[net:<name>]`` defines a 1-D net, either through ``expr`` (an arithmetic
expression in ``x`` and ``eps``; no code execution) or through ``kind =
delta | heaviside`` with an optional ``mollifier = rho1 | rho2``.  The
command sections (``[classify]``, ``[equiv]``, ...) select nets by name;
pair entries read ``a : b`` with an optional expectation suffix such as
``a : b -> not-equivalent``.  Entries without an expectation are recorded
but never fail the run.

Exit status: 0 all selected checks pass, 1 check failure, 2 config parse
error, 3 unknown net.  Reruns with the same config and seed write
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import acceptance
from .asymptotics import EpsGrid, dump_fit_csv, estimate_growth_order
from .association import (
    check_associated_zero,
    check_k_associated,
    embed_distribution,
    shadow,
    shadow_report_to_csv,
    sharp_mollifier,
    standard_mollifier,
)
from .bundle_maps import (
    check_hybrid_equivalent,
    check_vb_equivalent,
    section_net,
    single_chart_hom,
)
from .errors import ColombeauError, ConfigError, GridTooShort, UnknownNet
from .expressions import Expression, compile_expression
from .geometry import CompactSet, default_densities, euclidean_atlas, trivial_bundle
from .manifold_maps import (
    ManifoldNet,
    _sup_curve,
    check_equivalent,
    check_pointvalue_equality,
    identity_map,
    random_gpoints,
)
from .nets import Net, make_handle, net_from_function
from .ppwave import default_profile, kink_limit_study, trajectory_csv

DEFAULT_CONFIG = """\
[grid]
kind = dyadic
n_min = 2
n_max = 12

[tolerances]
m_max = 8
assoc_tol = 1e-3
fit_tolerance = 0.25

[atlas]
dim = 1
half_width = 10

[net:pole]
expr = eps^-3 * sin(x)
expect = moderate(3)

[net:square]
expr = eps^2 * cos(x)
expect = negligible(2)

[net:flat]
expr = exp(-1/eps) * cos(x)
expect = negligible(8)

[net:wild]
expr = exp(1/eps) * cos(x)
expect = neither

[net:linear]
expr = eps * x

[net:quadratic]
expr = eps^2 * x^2

[net:sine]
expr = sin(x)

[net:sine_tail]
expr = sin(x) + exp(-1/eps)

[net:gain]
expr = 1 + x^2 / 2

[net:gain_scaled]
expr = (1 + eps) * (1 + x^2 / 2)

[net:spike]
kind = delta
mollifier = rho1

[net:step]
kind = heaviside
mollifier = rho1

[classify]
nets = pole, square, flat, wild, spike

[equiv]
pairs =
    linear : quadratic -> not-equivalent
    sine : sine_tail -> equivalent

[vb-equiv]
pairs =
    gain : gain_scaled -> not-equivalent
    sine : sine_tail -> equivalent

[hybrid-equiv]
pairs =
    sine : sine_tail -> equivalent
    linear : quadratic -> not-equivalent

[pointvals]
count = 20
pairs =
    sine : sine_tail -> same
    linear : quadratic -> separable

[associate]
k = 0
zeros =
    quadratic -> associated
    sine -> not-associated
pairs =
    linear : quadratic -> associated
shadows = spike

[ppwave]
n_min = 6
n_max = 12
u_min = -0.5
u_max = 0.5
init = 0, 1, 0, 0, 0, 0
mollifier = rho1
"""

_MOLLIFIERS = {"rho1": standard_mollifier, "rho2": sharp_mollifier}


@dataclass
class NetSpec:
    name: str
    expr: str = ""
    kind: str = ""
    mollifier: str = "rho1"
    expect: str = ""
    compiled: Optional[Expression] = None  # set from expr when the config loads


@dataclass
class RunConfig:
    grid: EpsGrid
    m_max: int
    assoc_tol: float
    fit_tolerance: float
    dim: int
    half_width: float
    nets: dict
    sections: dict
    seed: int = 0

    def __post_init__(self):
        if self.m_max <= 0 or self.assoc_tol <= 0 or self.fit_tolerance <= 0:
            raise ConfigError("tolerances must be positive")
        if self.dim != 1:
            raise ConfigError("config nets are one-dimensional; atlas dim must be 1")
        if self.half_width <= 0:
            raise ConfigError("atlas half_width must be positive")

    @functools.cached_property
    def atlas(self):
        """The one working atlas every net of this config maps between."""
        return euclidean_atlas(self.dim, half_width=self.half_width)

    @property
    def region(self):
        return CompactSet("main", [(-1.0, 1.0)])

    def net_spec(self, name: str) -> NetSpec:
        try:
            return self.nets[name]
        except KeyError:
            raise UnknownNet(f"no [net:{name}] section in the config") from None

    def scalar_net(self, name: str) -> Net:
        spec = self.net_spec(name)
        if spec.kind:
            rho = _MOLLIFIERS[spec.mollifier]()
            return embed_distribution(spec.kind, rho, self.atlas, label=name)
        ex = spec.compiled
        bad = ex.variables - {"x", "eps"}
        if bad:
            raise ConfigError(
                f"net {name!r} uses unknown variables {sorted(bad)}; only x and eps"
            )

        def fn(e, x):
            return np.asarray(
                ex(x=x[..., 0], eps=e), dtype=float
            )[..., None] * np.ones_like(x)

        net = net_from_function(
            fn, 1, 1, box=[(-self.half_width, self.half_width)], label=name
        )
        # the whole grid in one call, eps a column against x[..., 0]; with eps
        # in an exponent np.power's rows are not bitwise its slices'
        if "eps" not in ex.exponent_variables:
            net.grid_fn = lambda grid: make_handle(
                functools.partial(fn, np.asarray(tuple(grid))[:, None]), 1, 1
            )
        return net

    def map_net(self, name: str) -> ManifoldNet:
        return ManifoldNet(
            self.atlas, self.atlas, "main", "main", self.scalar_net(name), name
        )

    def fiber_fn(self, name: str):
        net = self.scalar_net(name)
        return lambda e, x: net.at(e)(x)[..., 0]


def _parse_list(raw: str):
    out = []
    for chunk in raw.replace(",", "\n").splitlines():
        chunk = chunk.strip()
        if chunk:
            out.append(chunk)
    return out


def _parse_entry(entry: str, tags: dict, what: str):
    """``a : b -> tag`` or ``a -> tag``; the expectation is optional and
    returned as (tag text, expected value), or None when absent."""
    expect = None
    if "->" in entry:
        entry, _, tag = entry.partition("->")
        tag = tag.strip()
        if tag not in tags:
            raise ConfigError(
                f"unknown expectation {tag!r} for {what}; "
                f"choose from {sorted(tags)}"
            )
        expect = (tag, tags[tag])
    names = [p.strip() for p in entry.split(":")]
    if any(not p for p in names):
        raise ConfigError(f"malformed {what} entry {entry!r}")
    return names, expect


def _pairs(section: dict, tags: dict, what: str):
    """(two net names, expectation) per entry of the section's ``pairs``."""
    for entry in _parse_list(section.get("pairs", "")):
        names, expect = _parse_entry(entry, tags, what)
        if len(names) != 2:
            raise ConfigError(f"{what} needs two nets: {entry!r}")
        yield names, expect


def load_config(path=None, overrides=None) -> RunConfig:
    cp = configparser.ConfigParser()
    if path is None:
        cp.read_string(DEFAULT_CONFIG)
    else:
        text = Path(path).read_text()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    try:
        return _build_config(cp, overrides or {})
    except (ValueError, KeyError, GridTooShort) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _build_config(cp, overrides) -> RunConfig:
    g = cp["grid"] if cp.has_section("grid") else {}
    kind = g.get("kind", "dyadic")
    if kind == "dyadic":
        grid = EpsGrid.dyadic(int(g.get("n_min", 2)), int(g.get("n_max", 12)))
    elif kind == "geometric":
        grid = EpsGrid.geometric(
            float(g.get("eps_max", 0.25)),
            float(g.get("eps_min", 2.0**-12)),
            int(g.get("points", 11)),
        )
    else:
        raise ConfigError(f"unknown grid kind {kind!r}")
    # a grid flag that is not given is None: the config's grid stands
    current = {"eps_max": grid.values[0], "eps_min": grid.values[-1], "grid_points": len(grid)}
    given = {k: overrides[k] for k in current if overrides.get(k) is not None}
    for k in ("eps_max", "eps_min"):
        if k in given and not given[k] > 0:
            raise ConfigError(f"--{k.replace('_', '-')} must be > 0, got {given[k]}")
    if given:
        grid = EpsGrid.geometric(*{**current, **given}.values())

    t = cp["tolerances"] if cp.has_section("tolerances") else {}
    a = cp["atlas"] if cp.has_section("atlas") else {}

    nets = {}
    for section in cp.sections():
        if not section.startswith("net:"):
            continue
        name = section[4:].strip()
        s = cp[section]
        spec = NetSpec(
            name=name,
            expr=s.get("expr", "").strip(),
            kind=s.get("kind", "").strip(),
            mollifier=s.get("mollifier", "rho1").strip(),
            expect=s.get("expect", "").strip(),
        )
        if bool(spec.expr) == bool(spec.kind):
            raise ConfigError(f"net {name!r} needs exactly one of expr or kind")
        if spec.kind and spec.kind not in ("delta", "heaviside"):
            raise ConfigError(f"net {name!r} has unknown kind {spec.kind!r}")
        if spec.mollifier not in _MOLLIFIERS:
            raise ConfigError(f"net {name!r} has unknown mollifier {spec.mollifier!r}")
        if spec.expr:
            spec.compiled = compile_expression(spec.expr)
        nets[name] = spec

    sections = {
        s: dict(cp[s])
        for s in cp.sections()
        if s in ("classify", "equiv", "vb-equiv", "hybrid-equiv",
                 "pointvals", "associate", "ppwave")
    }
    return RunConfig(
        grid=grid,
        m_max=int(t.get("m_max", 8)),
        assoc_tol=float(t.get("assoc_tol", 1e-3)),
        fit_tolerance=float(t.get("fit_tolerance", 0.25)),
        dim=int(a.get("dim", 1)),
        half_width=float(a.get("half_width", 10.0)),
        nets=nets,
        sections=sections,
        seed=int(overrides.get("seed") or 0),
    )


# ---------------------------------------------------------------------------
# verdict records


@dataclass
class Record:
    command: str
    subject: str
    verdict: str
    expected: str = ""
    status: str = "record"
    detail: str = ""

    def row(self):
        return [self.command, self.subject, self.verdict,
                self.expected, self.status, self.detail]

    def line(self):
        tail = f" [{self.status}]" if self.status != "record" else ""
        return f"{self.command} {self.subject}: {self.verdict}{tail}"


def _judged(command, subject, verdict, expect, observed, detail=""):
    """``expect`` is None (record only) or (display text, expected value)."""
    if expect is None:
        return Record(command, subject, verdict, "", "record", detail)
    text, value = expect
    status = "pass" if observed == value else "fail"
    return Record(command, subject, verdict, text, status, detail)


def _write_records(records, out_dir):
    path = Path(out_dir) / "verdicts.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["command", "subject", "verdict", "expected", "status", "detail"])
        for r in records:
            writer.writerow(r.row())


# ---------------------------------------------------------------------------
# command runners; each returns a list of Records


def _expected_verdict(text):
    """Parse ``moderate(3)``, ``negligible``, ``neither`` expectation tags
    into (display text, (classification, order or None))."""
    text = text.strip().lower()
    if not text:
        return None
    if text == "neither":
        return (text, ("neither", None))
    for cls in ("moderate", "negligible"):
        if text == cls:
            return (text, (cls, None))
        if text.startswith(cls + "(") and text.endswith(")"):
            return (text, (cls, int(text[len(cls) + 1:-1])))
    raise ConfigError(f"unknown classification expectation {text!r}")


def run_classify(cfg: RunConfig, out_dir) -> list:
    section = cfg.sections.get("classify", {})
    names = _parse_list(section.get("nets", ""))
    if not names:
        names = [n for n in cfg.nets]
    pts = np.linspace(-1.0, 1.0, 33)[:, None]
    records = []
    for name in names:
        net = cfg.scalar_net(name)
        with np.errstate(over="ignore", invalid="ignore"):
            curve = _sup_curve(cfg.grid, 0, pts, (net.at_grid(cfg.grid),))
        verdict = estimate_growth_order(
            curve, cfg.grid, m_max=cfg.m_max, fit_tolerance=cfg.fit_tolerance
        )
        dump_fit_csv(curve, cfg.grid, verdict, Path(out_dir) / f"fit_{name}.csv")
        expect = _expected_verdict(cfg.net_spec(name).expect)
        observed = (verdict.classification, verdict.order)
        if expect is not None and expect[1][1] is None:
            observed = (observed[0], None)
        label = verdict.classification + (
            f"({verdict.order})" if verdict.order is not None else ""
        )
        records.append(_judged(
            "classify", name, label, expect, observed,
            detail=f"slope {verdict.slope:+.3f}",
        ))
    return records


_EQUIV_TAGS = {"equivalent": True, "not-equivalent": False, "distinct": False}


def run_equiv(cfg: RunConfig, out_dir) -> list:
    section = cfg.sections.get("equiv", {})
    records = []
    for names, expect in _pairs(section, _EQUIV_TAGS, "equiv pair"):
        u, v = cfg.map_net(names[0]), cfg.map_net(names[1])
        rep = check_equivalent(u, v, cfg.region, grid=cfg.grid)
        assoc = check_k_associated(
            u, v, 0, cfg.region, grid=cfg.grid, assoc_tol=cfg.assoc_tol
        )
        verdict = (
            f"{'equivalent' if rep.equivalent else 'not equivalent'}; "
            f"0-associated: {str(bool(assoc)).lower()}"
        )
        records.append(_judged(
            "equiv", f"{names[0]}:{names[1]}", verdict, expect, rep.equivalent,
            detail=f"routes {rep.route_distance}/{rep.route_bank}/{rep.route_chart}",
        ))
    return records


def _run_fiber_equiv(command, cfg: RunConfig, check, fiber_net) -> list:
    """The ``vb-equiv`` and ``hybrid-equiv`` runner: each pair of fibers
    becomes two nets ``fiber_net(vb, fiber, label=name)`` over the trivial
    line bundle of the config's atlas, compared by ``check``."""
    section = cfg.sections.get(command, {})
    vb = trivial_bundle(cfg.atlas, 1)
    records = []
    for names, expect in _pairs(section, _EQUIV_TAGS, f"{command} pair"):
        u, v = (fiber_net(vb, cfg.fiber_fn(name), label=name) for name in names)
        rep = check(u, v, cfg.region, grid=cfg.grid)
        verdict = "equivalent" if rep.equivalent else "not equivalent"
        records.append(_judged(
            command, f"{names[0]}:{names[1]}", verdict, expect, rep.equivalent,
            detail=f"chart route {rep.route_chart}, bank route {rep.route_bank}",
        ))
    return records


def run_vb_equiv(cfg: RunConfig, out_dir) -> list:
    base = identity_map(cfg.atlas)  # one identity base shared by every hom
    return _run_fiber_equiv(
        "vb-equiv", cfg, check_vb_equivalent,
        lambda vb, fiber, label: single_chart_hom(vb, vb, base, fiber, label=label),
    )


def run_hybrid_equiv(cfg: RunConfig, out_dir) -> list:
    return _run_fiber_equiv("hybrid-equiv", cfg, check_hybrid_equivalent, section_net)


_POINT_TAGS = {"same": True, "separable": False}


def run_pointvals(cfg: RunConfig, out_dir) -> list:
    section = cfg.sections.get("pointvals", {})
    count = int(section.get("count", 20))
    records = []
    for i, (names, expect) in enumerate(_pairs(section, _POINT_TAGS, "pointvals pair")):
        u, v = cfg.map_net(names[0]), cfg.map_net(names[1])
        pts = random_gpoints(cfg.region, count, seed=cfg.seed + i)
        same, info = check_pointvalue_equality(
            u, v, pts, K=cfg.region, grid=cfg.grid
        )
        verdict = "agree at all points" if same else "separated"
        records.append(_judged(
            "pointvals", f"{names[0]}:{names[1]}", verdict, expect, same,
            detail=f"{info['tested']} points tested, {len(info['failed_points'])} failed",
        ))
    return records


_ASSOC_TAGS = {"associated": True, "not-associated": False}


def run_associate(cfg: RunConfig, out_dir) -> list:
    section = cfg.sections.get("associate", {})
    k = int(section.get("k", 0))
    if k < 0:
        raise ConfigError(f"[associate] k must be >= 0, got {k}")
    densities = default_densities()
    records = []
    for entry in _parse_list(section.get("zeros", "")):
        names, expect = _parse_entry(entry, _ASSOC_TAGS, "associate zero")
        if len(names) != 1:
            raise ConfigError(f"associate zero entry needs one net: {entry!r}")
        net = cfg.scalar_net(names[0])
        rep = check_associated_zero(
            net, densities, grid=cfg.grid, assoc_tol=cfg.assoc_tol
        )
        verdict = "associated to 0" if rep else "not associated to 0"
        detail = "; ".join(
            f"{r.density_id} final {r.final:.2e}" for r in rep.rows
        )
        records.append(_judged(
            "associate", names[0], verdict, expect, bool(rep), detail=detail
        ))
    for names, expect in _pairs(section, _ASSOC_TAGS, "associate pair"):
        u, v = cfg.map_net(names[0]), cfg.map_net(names[1])
        rep = check_k_associated(
            u, v, k, cfg.region, grid=cfg.grid, assoc_tol=cfg.assoc_tol
        )
        verdict = f"{k}-associated" if rep else f"not {k}-associated"
        records.append(_judged(
            "associate", f"{names[0]}:{names[1]}", verdict, expect, bool(rep),
            detail=f"distance route {rep.route_distance}, bank route {rep.route_bank}",
        ))
    for entry in _parse_list(section.get("shadows", "")):
        names, _ = _parse_entry(entry, {}, "associate shadow")
        net = cfg.scalar_net(names[0])
        rep = shadow(net, densities, grid=cfg.grid)
        shadow_report_to_csv(rep, Path(out_dir) / f"shadow_{names[0]}.csv")
        limits = ", ".join(
            f"{r.density_id} -> {r.extrapolated:.6g}" if np.isfinite(r.extrapolated)
            else f"{r.density_id} -> none"
            for r in rep.rows
        )
        verdict = "shadow found" if rep.converged else "no shadow detected"
        records.append(Record(
            "associate", names[0], verdict, "", "record", limits
        ))
    return records


def run_ppwave(cfg: RunConfig, out_dir) -> list:
    section = cfg.sections.get("ppwave", {})
    n_min = int(section.get("n_min", 6))
    n_max = int(section.get("n_max", 12))
    u_span = (float(section.get("u_min", -0.5)), float(section.get("u_max", 0.5)))
    window = None
    if "window_min" in section or "window_max" in section:
        window = (
            float(section.get("window_min", 0.8 * u_span[0])),
            float(section.get("window_max", 0.8 * u_span[1])),
        )
    init = tuple(float(v) for v in _parse_list(section.get("init", "0,1,0,0,0,0")))
    if len(init) != 6:
        raise ConfigError("ppwave init needs six numbers: v, x, y, v', x', y'")
    rho_name = section.get("mollifier", "rho1").strip()
    if rho_name not in _MOLLIFIERS:
        raise ConfigError(f"unknown mollifier {rho_name!r}")
    rho = _MOLLIFIERS[rho_name]()
    grid = EpsGrid.dyadic(n_min, n_max)

    profile = default_profile()
    report = kink_limit_study(
        profile, rho, init, grid, u_span=u_span, window=window,
        assoc_tol=cfg.assoc_tol,
    )
    with open(Path(out_dir) / "ppwave_report.txt", "w") as fh:
        fh.write("\n".join(report.lines()) + "\n")
    trajectory_csv(
        report.net, list(grid.values[-2:]), Path(out_dir) / "ppwave_trajectories.csv"
    )
    verdict = (
        f"kink verified: jump {report.jump:.4f}, "
        f"final cauchy {report.cauchy_sups[-1]:.2e}"
        if report else "kink not verified"
    )
    detail = "; ".join(report.lines()[1:5])
    return [Record("ppwave", "saddle", verdict, "True",
                   "pass" if report else "fail", detail)]


def run_suite(cfg: RunConfig, out_dir) -> list:
    results = acceptance.run_all()
    path = Path(out_dir) / "acceptance.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "name", "passed", "detail"])
        for r in results:
            writer.writerow([r.index, r.name, str(r.passed).lower(), r.detail])
    return [
        Record(
            "suite", f"{r.index:02d} {r.name}",
            "pass" if r.passed else "fail", "pass",
            "pass" if r.passed else "fail", r.detail,
        )
        for r in results
    ]


_COMMANDS = {
    "classify": run_classify,
    "equiv": run_equiv,
    "vb-equiv": run_vb_equiv,
    "hybrid-equiv": run_hybrid_equiv,
    "pointvals": run_pointvals,
    "associate": run_associate,
    "ppwave": run_ppwave,
    "suite": run_suite,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="colombeau",
        description="checks for nets of smooth maps: growth order, "
        "equivalence, association, point values, impulsive-wave kink",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", metavar="PATH", default=None,
                   help="INI config; omit for the built-in default catalog")
    p.add_argument("--out", metavar="DIR", default="colombeau-out",
                   help="output directory for CSV and report files")
    p.add_argument("--eps-min", type=float, default=None)
    p.add_argument("--eps-max", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, metavar="N")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {
        "eps_min": args.eps_min,
        "eps_max": args.eps_max,
        "grid_points": args.grid_points,
        "seed": args.seed,
    }
    try:
        cfg = load_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config-parse-error: {exc}", file=sys.stderr)
        return 2
    except UnknownNet as exc:
        print(f"unknown-net: {exc}", file=sys.stderr)
        return 3
    except ColombeauError as exc:
        print(f"check-failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    _write_records(records, out_dir)
    for r in records:
        print(r.line())
    failures = [r for r in records if r.status == "fail"]
    for r in failures:
        print(f"check-failure: {r.command} {r.subject}: {r.verdict}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
