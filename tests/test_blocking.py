"""Block-wise evaluation of the per-point stages: the same bits whatever the
block size, and a working memory that stays a small multiple of the field."""
import gc
import io
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sumhessian.grid as grid
import sumhessian.solver as solver
from sumhessian import (
    RhsSpec,
    ScalarField,
    SumHessianParams,
    make_domain,
    read_field,
    write_field,
)
from sumhessian import expr
from sumhessian.config import load_config
from sumhessian.errors import ConeViolationError, InstanceError, NonConvergenceError
from sumhessian.estimates import build_report
from sumhessian.solver import (
    ETA_MAX,
    _Iterate,
    _JacobianPattern,
    _repair_admissibility,
    _rhs_at_rest,
    _solve_linear,
    admissible_mask,
    boundary_values,
    initial_guess,
    linearize,
    newton_solve,
    residual,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CASES = [(2, "box"), (2, "ball"), (3, "box"), (3, "ball")]
ODD_BLOCK = 97


def bowl(dim, mask, dent=0.0, cells=None):
    """|x|^2 - 1, lowered at each interior point by a random share of
    ``dent``. A dented bowl has zero boundary data on a ball, and is then
    nonpositive."""
    cells = cells or (24 if dim == 2 else 12)
    dom = make_domain(dim, (-1.0,) * dim, (1.0,) * dim, (cells,) * dim, mask_name=mask)
    vals = np.sum(dom.points ** 2, axis=1) - 1.0
    if dent:
        vals[dom.interior_idx] -= dent * np.random.default_rng(dim).random(dom.interior_idx.size)
        if mask == "ball":
            vals[~dom.interior_flat] = 0.0
    return ScalarField(dom, vals.reshape(dom.shape))


class TestBlocksChangeNoBit:
    @pytest.mark.parametrize("dim,mask", CASES)
    def test_every_stage(self, dim, mask, monkeypatch):
        smooth, rough = bowl(dim, mask), bowl(dim, mask, dent=0.05)
        rhs = RhsSpec.parse("20 + exp(u/10) + p1^2/100 + x2/10")
        dom = smooth.domain
        n_int = dom.interior_idx.size
        assert n_int > 4 * ODD_BLOCK
        results = []
        for block in (n_int, ODD_BLOCK):
            monkeypatch.setattr(grid, "BLOCK_POINTS", block)
            stages = {}
            for k in range(2, dim + 1):
                params = SumHessianParams(dim, k, 1.0)
                stages[k, "mask"] = admissible_mask(rough, params)
                stages[k, "residual"] = residual(smooth, params, rhs)
                stages[k, "linearize"] = linearize(smooth, params, rhs).data
                stages[k, "repaired"] = _repair_admissibility(rough, params, 1.0).values
            # the box's transfinite blend, the ball's harmonic extension
            for g in ("x1 / 10", "x1 * x2 / 10 + exp(x2) / 20"):
                stages["guess", g] = initial_guess(dom, SumHessianParams(dim, 2, 1.0), rhs,
                                                   expr.parse(g)).values
            stages["boundary"] = boundary_values(dom, expr.parse("exp(x1) + x2 / 10"))
            stages["f at rest"] = _rhs_at_rest(dom, rhs)
            stages["report"] = build_report("bowl", rough, (1.0, 2.0))
            results.append(stages)
        whole, blocked = results
        # the dented field is inadmissible somewhere, so the repair lowered it
        assert not whole[2, "mask"].all()
        assert (whole["report"].pogorelov is None) == (mask == "box")
        assert not np.array_equal(whole[2, "repaired"], rough.values)
        for key, value in whole.items():
            if key == "report":
                assert blocked[key] == value
            else:
                assert blocked[key].tobytes() == value.tobytes(), key

    @pytest.mark.parametrize("dim,mask", CASES)
    def test_blocks_slice_the_whole_stencil(self, dim, mask, monkeypatch):
        """Blocks cover the interior in order; a box block is whole inner
        planes along axis 0, a ball block BLOCK_POINTS points; the stencil of
        a block is the whole interior's, sliced, and its squared distances
        (broadcast from each axis's coordinates on a box) are the gather's
        at its interior indices."""
        fld = bowl(dim, mask, dent=0.05)
        dom = fld.domain
        whole = grid.hessian_field(fld)
        plane = int(np.prod([n - 2 for n in dom.shape[1:]]))
        monkeypatch.setattr(grid, "BLOCK_POINTS", ODD_BLOCK)
        blocks = list(grid.interior_blocks(dom))
        assert len(blocks) > 2
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert (blocks[0].start, blocks[-1].stop) == (0, dom.interior_idx.size)
        for block in blocks[:-1]:
            size = block.stop - block.start
            assert size == (max(1, ODD_BLOCK // plane) * plane if mask == "box" else ODD_BLOCK)
        for block in blocks:
            assert grid.hessian_field(fld, block).tobytes() == whole[:, block].tobytes()
            for center in (dom.center, np.linspace(-0.3, 0.7, dim)):
                assert grid.squared_distance(dom, center, block).tobytes() \
                    == grid.squared_distance(dom, center, dom.interior_idx[block]).tobytes()


class TestFieldChunks:
    def test_round_trip_across_chunks(self, tmp_path, monkeypatch):
        """Each chunk's distinct bit patterns are formatted once, and every
        line is still its value's repr. The second field holds -0.0 beside
        +0.0, 2.5 on both sides of the first 7-value chunk boundary, the
        least subnormal, and values either side of repr's switches between
        positional and exponent form."""
        edges = [-0.0, 0.0, 0.0, -0.0, 2.5, 2.5, 2.5, 2.5, 5e-324, -5e-324,
                 1e16, 9999999999999998.0, 1e-05, 0.0001, 1e-05, 1e16]
        bowl_fld = bowl(2, "ball", dent=0.05, cells=10)
        dom = make_domain(2, (0.0, 0.0), (1.0, 1.0), (8, 8))
        edge_fld = ScalarField(dom, np.resize(edges, dom.shape))
        for fld in (bowl_fld, edge_fld):
            assert fld.values.size % 7
            path = tmp_path / "round.field"
            texts = []
            for chunk in (fld.values.size, 7):
                monkeypatch.setattr(grid, "WRITE_CHUNK", chunk)
                with open(path, "w") as stream:
                    write_field(fld, stream)
                texts.append(path.read_text())
                with open(path) as stream:
                    back = read_field(stream)
                assert back.values.tobytes() == fld.values.tobytes()
            assert texts[0] == texts[1]
            assert texts[0].split("\n", 1)[1] == "".join(f"{v!r}\n" for v in fld.flat.tolist())

    @pytest.mark.parametrize("body,match", [
        ("0.0\n" * 80 + "nought\n", "nought"),
        ("", "has 0 values, expected 81"),
        ("\n\n", "has 0 values, expected 81"),
    ])
    def test_bad_body_raises_without_warning(self, body, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                read_field(io.StringIO("2 9 9 0.0 0.0 0.25 box 2.0 2.0\n" + body))


class TestDomainBuild:
    @staticmethod
    def reference(dom):
        """points and interior mask by the full-grid formulas: meshgrid
        copies stacked, and the norm of the (N, dim) difference."""
        axes = [dom.lower[a] + dom.h * np.arange(dom.shape[a]) for a in range(dom.dim)]
        points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        inner = np.zeros(dom.shape, dtype=bool)
        inner[(slice(1, -1),) * dom.dim] = True
        interior = inner.ravel()
        if dom.mask_name == "ball":
            radius = 0.5 * float(np.min(np.asarray(dom.upper) - np.asarray(dom.lower)))
            interior &= np.linalg.norm(points - dom.center, axis=-1) < radius
        return points, interior

    @pytest.mark.parametrize("name", ["ball18.cfg", "expradial2d.cfg", "quadratic3d.cfg"])
    @pytest.mark.parametrize("cells", [None, 32, 64])
    def test_shipped_configs(self, name, cells):
        cfg = load_config(str(CONFIGS / name))
        dims = cfg.cells if cells is None else (cells,) * len(cfg.cells)
        dom = make_domain(len(dims), cfg.lower, cfg.upper, dims, cfg.mask_name)
        points, interior = self.reference(dom)
        assert dom.points.tobytes() == points.tobytes()
        assert np.array_equal(dom.interior_flat, interior)

    @pytest.mark.parametrize("dim,lo,hi,cells", [
        (3, -0.75, 0.75, 32),
        (3, -1.0 / 3.0, 2.0 / 3.0, 30),
        (2, -1.0, 0.9, 20),
    ])
    @pytest.mark.parametrize("mask", ["box", "ball"])
    def test_awkward_corners(self, dim, lo, hi, cells, mask):
        dom = make_domain(dim, (lo,) * dim, (hi,) * dim, (cells,) * dim, mask_name=mask)
        points, interior = self.reference(dom)
        assert dom.points.tobytes() == points.tobytes()
        assert np.array_equal(dom.interior_flat, interior)
        idx = np.random.default_rng(cells).permutation(dom.n_points)[:100]
        for a in range(dim):
            assert dom.coordinate(a, idx).tobytes() == points[idx, a].tobytes()
        bdry = points[~interior]
        assert dom.inscribed_radius == float(np.min(np.linalg.norm(bdry - dom.center, axis=1)))


# Traced peak of each stage on 64^3 grids, in multiples of the field's
# bytes: the ratio measured when the stages went block by block, plus at
# most 25%. At 64^3 a block of grid.BLOCK_POINTS is 13% of the box's
# interior and 24% of the ball's; at 48^3 it would be half the ball's.
# Reading the whole packed Hessian at once peaked at 7.3 / 8.2 / 8.6 / 5.2
# / 11.4 (box) and 5.0 / 5.0 / 5.5 / 5.1 / 9.6 (ball) for admissible_mask /
# residual / build_report / read_field / initial_guess. With the stencil
# blocked but f, g, the box's blend and the report's gradient and
# per-point arrays still whole, boundary_values / residual with a
# state-dependent f / build_report / initial_guess peaked at 6.13 / 7.40 /
# 7.29 / 8.04 (box) and 6.13 / 4.06 / 5.02 / 7.63 (ball); blocked, they
# measure 1.16 / 3.11 / 2.32 / 5.03 (box) and 1.29 / 2.77 / 2.52 / 5.44
# (ball). The guess runs on the box's transfinite blend and the ball's
# repair, with the Jacobian pattern built beforehand. With f = 18 read as
# one value, not an (n_interior,) array, the guess fell from 5.17 (box)
# and 5.44 (ball) to 4.26 and 4.94.
#
# "iterate" is admissible_mask, then residual, on a Newton iterate, as the
# loop calls them: 3.12 (box) and 2.77 (ball) when each evaluated the
# stencil itself, 3.26 and 2.85 with the iterate's one evaluation, which
# keeps the mask. A plain field's admissible_mask and residual run that
# same evaluation, so they measure 3.26 and 2.85 as well. "extension" is
# the ball guess with zero data, whose staircase mismatch runs the
# harmonic extension, with the Jacobian pattern built beforehand: 22.2
# with the Laplacian on the Jacobian's 19-point pattern, 18.5 on its own
# 7-point pattern, 17.1 with the prolongations built block by block, and
# 15.2 with fixed-width rows and the in-place V-cycle, and from 15.15 to
# 14.66 with f = 18 as one value. "pattern" is the
# traced peak of building a Jacobian pattern and its V-cycle levels:
# 29.4 (box) and 21.4 (ball) when each prolongation was sliced out of
# the whole grid's Kronecker product, 22.6 and 12.5 built block by block,
# 20.6 and 11.4 with fixed-width rows (no present mask, no cumsum of it,
# no level src maps), and it now measures 10.43 and 5.96. "write_field" wrote
# one repr per value at 0.384 (box) and 0.377 (ball), and formatting each
# distinct bit pattern of a WRITE_CHUNK block once measures 0.228 and
# 0.212. "linear_solve" is one _solve_linear at ETA_MAX on
# the Jacobian of the quadratic for f = 18 + u + p1^2: BiCGSTAB's vectors
# and one V-cycle's coarse operators and temporaries. It measured 17.7
# (box) and 9.0 (ball) with the V-cycle forming new arrays for each
# residual, restriction and correction, 16.1 and 8.1 in place, with
# fixed-width rows. "linearize" is linearize at that quadratic for the same
# f, with the pattern built beforehand: 26.9 (box) and 14.8 (ball) when it
# formed the whole grid's packed coefficient matrices, and df/du and df/dp
# as whole-grid arrays, before assembling the fixed-width data; 20.3 and
# 12.6 with each block's terms going straight into its rows (19.9 and
# 12.1 for an f(x), whose zero derivatives are constants). The data alone
# is 17.3 (box). The pattern, extension, linearize, linear_solve and
# write_field bounds, and the initial_guess bounds, are the last figures,
# plus at most 4%.
PEAK_BOUNDS = {
    "box": {"admissible_mask": 3.85, "residual": 3.85, "residual_state_f": 3.85,
            "boundary_values": 1.4, "build_report": 2.9, "write_field": 0.235,
            "read_field": 2.75, "initial_guess": 4.4, "iterate": 3.85, "pattern": 10.8,
            "linearize": 21.1, "linear_solve": 16.7},
    "ball": {"admissible_mask": 3.4, "residual": 3.4, "residual_state_f": 3.4,
             "boundary_values": 1.5, "build_report": 3.0, "write_field": 0.22,
             "read_field": 2.65, "initial_guess": 5.1, "iterate": 3.4, "pattern": 6.15,
             "extension": 15.1, "linearize": 13.05, "linear_solve": 8.45},
}
# what a Jacobian pattern keeps, its V-cycle levels and their shared
# prolongations included: 18.8 (box) and 10.4 (ball), then 19.0 and 10.5
# with the coarse grids' interior index sets kept for a second pattern,
# then 16.1 and 9.0 with fixed-width rows: the int32 column of every slot
# and the list of absent slots, in place of the present mask, the CSR
# indptr and each level's src map. It now keeps 7.00 and 3.96; the bounds
# are those figures plus at most 4%
PATTERN_BOUNDS = {"box": 7.25, "ball": 4.1}
# what a domain keeps, mask and interior indices; it kept 4.0 (box) and
# 3.6 (ball) times the field with its (N, 3) coordinate array
DOMAIN_BOUND = 1.1


def traced_peak(fn) -> int:
    """Bytes requested by fn at its peak, over what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def stage_ratios(mask: str, path: Path) -> dict:
    """Traced peak of each stage, and what a domain keeps, on the 64^3 grid
    with this mask, in multiples of the field's bytes."""
    def unit_grid():
        return make_domain(3, (-1.0,) * 3, (1.0,) * 3, (64,) * 3, mask_name=mask)

    dom = unit_grid()
    quad = "(x1^2 + x2^2 + x3^2 - 1) / 2"
    vals = 0.5 * (np.sum(dom.points ** 2, axis=1) - 1.0)
    if mask == "ball":
        vals[~dom.interior_flat] = 0.0    # zero data: the weighted products run too
    fld = ScalarField(dom, vals.reshape(dom.shape))
    params, rhs = SumHessianParams(3, 2, 1.0), RhsSpec.parse("18")
    state_rhs = RhsSpec.parse("18 + u + p1^2")
    pattern = _JacobianPattern(dom)
    pattern.levels

    def write():
        with open(path, "w") as stream:
            write_field(fld, stream)

    def read():
        with open(path) as stream:
            return read_field(stream)

    def kept(build):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        return built, kept

    def pattern_levels():
        built = _JacobianPattern(dom)
        built.levels
        return built

    def iterate():
        admissible_mask(newton_iterate, params)
        residual(newton_iterate, params, rhs)

    newton_iterate = _Iterate(dom, fld.values.copy(), params)
    # a Newton step's linear solve, at an admissible field on either mask
    quadratic = ScalarField(dom, (0.5 * (np.sum(dom.points ** 2, axis=1) - 1.0)).reshape(dom.shape))
    jacobian = linearize(quadratic, params, state_rhs, pattern=pattern)
    f_int = residual(quadratic, params, state_rhs)

    stages = {"admissible_mask": lambda: admissible_mask(fld, params),
              "residual": lambda: residual(fld, params, rhs),
              "residual_state_f": lambda: residual(fld, params, state_rhs),
              "boundary_values": lambda: boundary_values(dom, expr.parse(quad)),
              "build_report": lambda: build_report("bowl", fld),
              "write_field": write, "read_field": read,
              "initial_guess": lambda: initial_guess(dom, params, rhs, expr.parse(quad),
                                                     pattern=pattern),
              "iterate": iterate, "pattern": pattern_levels,
              "linearize": lambda: linearize(quadratic, params, state_rhs, pattern=pattern),
              "linear_solve": lambda: _solve_linear(jacobian, f_int, ETA_MAX, pattern)}
    if mask == "ball":
        stages["extension"] = lambda: initial_guess(dom, params, rhs, expr.parse("0"),
                                                    pattern=pattern)
    ratios = {name: traced_peak(fn) / fld.values.nbytes for name, fn in stages.items()}
    assert read().values.tobytes() == fld.values.tobytes()
    built, domain_bytes = kept(unit_grid)
    assert built.interior_idx.size == dom.interior_idx.size
    ratios["domain"] = domain_bytes / fld.values.nbytes
    ratios["pattern_kept"] = kept(pattern_levels)[1] / fld.values.nbytes
    return ratios


def test_working_memory_bounded(tmp_path):
    for mask, bounds in PEAK_BOUNDS.items():
        ratios = stage_ratios(mask, tmp_path / f"{mask}.field")
        assert all(ratios[name] <= bound for name, bound in bounds.items()), (mask, ratios)
        assert ratios["domain"] <= DOMAIN_BOUND, (mask, ratios)
        assert ratios["pattern_kept"] <= PATTERN_BOUNDS[mask], (mask, ratios)


# What a caught solver error holds while it lives, in multiples of the
# field's bytes: 7.17 for exp2d-256's stall and 8.92 for the 256^2
# zero-data box's repair failure when hand-placed dels freed the Jacobian
# and the pattern alone, 0.09 and 0.01 with the frames of the error's
# traceback cleared. An f undefined on part of that box raises an
# InstanceError whose cause kept 2.49 while only the error's own frames
# were cleared, and 0.015 with its cause's cleared too.
HELD_BOUND = 0.25


def held_by_error(solve, error) -> int:
    """Bytes that the error solve() raises holds, over what was live before."""
    import scipy.sparse.linalg  # noqa: F401  (scipy's first import is not the error's)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(error) as caught:
            solve()
        gc.collect()
        # caught, a local, keeps the error alive until the return
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_failed_solve_memory_bounded(monkeypatch):
    cfg = load_config(str(CONFIGS / "expradial2d.cfg"))
    dom = make_domain(2, cfg.lower, cfg.upper, (256, 256))
    stall = held_by_error(lambda: newton_solve(dom, cfg.params, cfg.rhs, cfg.boundary, cfg.solve),
                          NonConvergenceError)
    monkeypatch.setattr(solver, "REPAIR_SWEEPS", 0)
    repair = held_by_error(lambda: newton_solve(dom, SumHessianParams(2, 2, 1.0),
                                                RhsSpec.parse("3"), expr.parse("0")),
                           ConeViolationError)
    # f undefined left of x1 = -0.5: the InstanceError's cause, the
    # expression's EvalError, passed through the blocks' envs
    undefined = held_by_error(lambda: newton_solve(dom, SumHessianParams(2, 2, 1.0),
                                                   RhsSpec.parse("3 + log(x1 + 0.5)"),
                                                   expr.parse("0")),
                              InstanceError)
    field_bytes = 8 * dom.n_points
    assert stall <= HELD_BOUND * field_bytes, stall / field_bytes
    assert repair <= HELD_BOUND * field_bytes, repair / field_bytes
    assert undefined <= HELD_BOUND * field_bytes, undefined / field_bytes
