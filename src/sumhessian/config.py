"""Run configuration files: INI-style sections with flat key = value pairs.

Expressions are strings over the identifiers x1..x3, u, p1..p3, quoted
or not (f = 18 loads what f = "18" loads): f may read x1..x_n, u and
p1..p_n, g only x1..x_n, with n the [operator] dimension; g is read on
the boundary layer only, so it may be undefined inside. A tree deeper
than expr.MAX_DEPTH is a syntax error like any other (``expr.parse``).
Each setting is checked by the type that holds it: n, k and alpha by
``symfun.SumHessianParams``, the domain by ``grid.GridDomain``, tol and
max_iter by ``solver.SolveConfig`` and beta by ``estimates.check_betas``.
A config that breaks one of these rules is a ConfigError naming the file,
raised before any solve. The loader keeps f and g as the trees it parsed.
Keys and sections the loader does not know are ignored. Only [operator] n
and k, [domain] lower, upper and cells, and [rhs] f are required. A missing
key takes its fallback: tol and max_iter those of solver.SolveConfig, beta
that of estimates.build_report, and alpha 0, mask box, g "0" and output
out.field. The log diagnostic's beta, a and A are estimates constants, not
config keys. Example:

    [operator]
    n = 3
    k = 2
    alpha = 1.0

    [domain]
    lower = -1 -1 -1
    upper = 1 1 1
    cells = 32 32 32
    mask = box            # or ball

    [rhs]
    f = "18"

    [boundary]
    g = "0"

    [solver]
    tol = 1e-10
    max_iter = 50

    [estimates]
    beta = 1 2 4

    [run]
    output = out.field
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass

from . import estimates, expr
from .errors import ConfigError
from .grid import GridDomain, make_domain
from .solver import RhsSpec, SolveConfig
from .symfun import SumHessianParams


@dataclass
class RunConfig:
    params: SumHessianParams
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]
    mask_name: str
    rhs: RhsSpec
    boundary: expr.Node
    solve: SolveConfig
    betas: tuple[float, ...]
    output: str

    def domain(self) -> GridDomain:
        return make_domain(self.params.n, self.lower, self.upper, self.cells, self.mask_name)


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def _required(section: configparser.SectionProxy, key: str) -> str:
    value = section.get(key)
    if value is None:
        raise ConfigError(f"missing required key '{key}' in section [{section.name}]")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate one configuration file."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",),
                                       converters={"floats": _floats})
    parser.optionxform = str  # keep key case: a config may still set both 'a' and 'A'
    if not parser.read(path):
        raise ConfigError(f"cannot read config file '{path}'")
    try:
        return _build(parser)
    except (configparser.Error, KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build(parser: configparser.ConfigParser) -> RunConfig:
    for section in ("operator", "domain", "rhs"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    op = parser["operator"]
    n = int(_required(op, "n"))
    k = int(_required(op, "k"))
    params = SumHessianParams(n=n, k=k, alpha=op.getfloat("alpha", fallback=0.0))

    dom = parser["domain"]
    lower = _floats(_required(dom, "lower"))
    upper = _floats(_required(dom, "upper"))
    cells = tuple(int(v) for v in _required(dom, "cells").split())
    mask_name = dom.get("mask", fallback="box")
    GridDomain(n, lower, upper, cells, mask_name)

    rhs_source = _unquote(_required(parser["rhs"], "f"))
    boundary_source = _unquote(parser.get("boundary", "g", fallback="0"))
    coordinates = {f"x{a + 1}" for a in range(n)}
    # f(x, u, Du) reads the coordinates and gradient of n dimensions, g(x)
    # the coordinates alone
    readable = {"rhs": coordinates | {"u"} | {f"p{a + 1}" for a in range(n)},
                "boundary": coordinates}
    trees = {}
    for label, source in (("rhs", rhs_source), ("boundary", boundary_source)):
        try:
            trees[label] = expr.parse(source)
        except expr.ExprError as exc:
            raise ConfigError(f"bad {label} expression: {exc}") from exc
        names = expr.variables(trees[label])
        if not names <= readable[label]:
            raise ConfigError(f"{label} expression may only reference "
                              f"{sorted(readable[label])} in {n}D, got {sorted(names)}")

    solve = SolveConfig(
        tol=parser.getfloat("solver", "tol", fallback=SolveConfig.tol),
        max_iter=parser.getint("solver", "max_iter", fallback=SolveConfig.max_iter))
    betas = parser.getfloats("estimates", "beta", fallback=estimates.BETAS)
    estimates.check_betas(betas)
    return RunConfig(
        params=params,
        lower=lower,
        upper=upper,
        cells=cells,
        mask_name=mask_name,
        rhs=RhsSpec(trees["rhs"]),
        boundary=trees["boundary"],
        solve=solve,
        betas=betas,
        output=parser.get("run", "output", fallback="out.field"),
    )
