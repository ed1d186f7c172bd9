"""Run configuration files: INI-style sections with flat key = value pairs.

Expressions are quoted strings over the identifiers x1..x3, u, p1..p3.
Keys and sections the loader does not know are ignored. Example:

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
    p_beta = 2.0
    a = 0.1
    A = 1.0

    [run]
    output = out.field
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass

from . import expr
from .errors import ConfigError
from .grid import MASK_NAMES, GridDomain, make_domain
from .solver import RhsSpec, SolveConfig
from .symfun import SumHessianParams

MAX_SOLVE_DIM = 3


@dataclass
class RunConfig:
    params: SumHessianParams
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]
    mask_name: str
    rhs_source: str
    boundary_source: str
    tol: float = 1e-10
    max_iter: int = 50
    betas: tuple[float, ...] = (1.0, 2.0, 4.0)
    p_beta: float = 2.0
    p_a: float = 0.1
    p_big_a: float = 1.0
    output: str = "out.field"

    def domain(self) -> GridDomain:
        try:
            return make_domain(self.params.n, self.lower, self.upper, self.cells, self.mask_name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def rhs(self) -> RhsSpec:
        return RhsSpec(expr.parse(self.rhs_source))

    def boundary(self) -> expr.Node:
        return expr.parse(self.boundary_source)

    def solve_config(self) -> SolveConfig:
        return SolveConfig(tol=self.tol, max_iter=self.max_iter)


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def _required(section: configparser.SectionProxy, key: str) -> str:
    value = section.get(key)
    if value is None:
        raise ConfigError(f"missing required key '{key}' in section [{section.name}]")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate one configuration file."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case ('a' and 'A' are distinct)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")
    try:
        return _build(parser)
    except (configparser.Error, KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _build(parser: configparser.ConfigParser) -> RunConfig:
    for section in ("operator", "domain", "rhs"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    op = parser["operator"]
    n = int(_required(op, "n"))
    k = int(_required(op, "k"))
    alpha = op.getfloat("alpha", fallback=0.0)
    if not 1 <= k <= n <= MAX_SOLVE_DIM:
        raise ConfigError(f"solve configs require 1 <= k <= n <= {MAX_SOLVE_DIM}, got n={n}, k={k}")
    try:
        params = SumHessianParams(n=n, k=k, alpha=alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    dom = parser["domain"]
    lower = _floats(_required(dom, "lower"))
    upper = _floats(_required(dom, "upper"))
    cells = _ints(_required(dom, "cells"))
    mask_name = dom.get("mask", fallback="box").strip()
    if len(lower) != n or len(upper) != n or len(cells) != n:
        raise ConfigError("lower/upper/cells must each list one value per dimension")
    if mask_name not in MASK_NAMES:
        raise ConfigError(f"mask must be 'box' or 'ball', got '{mask_name}'")

    rhs_source = _unquote(_required(parser["rhs"], "f"))
    boundary_source = "0"
    if parser.has_section("boundary"):
        boundary_source = _unquote(parser["boundary"].get("g", fallback="0"))
    for label, source in (("rhs", rhs_source), ("boundary", boundary_source)):
        try:
            expr.parse(source)
        except expr.ExprError as exc:
            raise ConfigError(f"bad {label} expression: {exc}") from exc

    cfg = RunConfig(
        params=params,
        lower=lower,
        upper=upper,
        cells=cells,
        mask_name=mask_name,
        rhs_source=rhs_source,
        boundary_source=boundary_source,
    )
    if parser.has_section("solver"):
        sol = parser["solver"]
        cfg.tol = sol.getfloat("tol", fallback=cfg.tol)
        cfg.max_iter = sol.getint("max_iter", fallback=cfg.max_iter)
    if parser.has_section("estimates"):
        est = parser["estimates"]
        if est.get("beta", fallback=None) is not None:
            cfg.betas = _floats(est.get("beta"))
        cfg.p_beta = est.getfloat("p_beta", fallback=cfg.p_beta)
        cfg.p_a = est.getfloat("a", fallback=cfg.p_a)
        cfg.p_big_a = est.getfloat("A", fallback=cfg.p_big_a)
    if parser.has_section("run"):
        run = parser["run"]
        cfg.output = run.get("output", fallback=cfg.output).strip()
    return cfg
