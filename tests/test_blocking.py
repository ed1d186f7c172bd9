"""Block-wise evaluation of the per-point stages: the same bits whatever the
block size, and a working memory that stays a small multiple of the field."""
import io
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sumhessian.grid as grid
from sumhessian import (
    RhsSpec,
    ScalarField,
    SumHessianParams,
    make_domain,
    read_field,
    write_field,
)
from sumhessian.config import load_config
from sumhessian.estimates import build_report
from sumhessian.solver import _repair_admissibility, admissible_mask, linearize, residual

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
        n_int = smooth.domain.interior_idx.size
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


class TestFieldChunks:
    def test_round_trip_across_chunks(self, tmp_path, monkeypatch):
        fld = bowl(2, "ball", dent=0.05, cells=10)
        assert fld.values.size % 7
        path = tmp_path / "bowl.field"
        texts = []
        for chunk in (fld.values.size, 7):
            monkeypatch.setattr(grid, "BLOCK_POINTS", chunk)
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
                read_field(io.StringIO("2 9 9 0.0 0.0 0.25\n" + body))


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
        bdry = points[~interior]
        assert dom.inscribed_radius == float(np.min(np.linalg.norm(bdry - dom.center, axis=1)))


# Traced peak of each stage on a 48^3 box, in multiples of the field's
# bytes. The packed Hessian alone is 6 (47/49)^3 = 5.3 of them, the field's
# domain (kept coordinates and indices) 4. Whole-grid evaluation peaked at
# 15.9, 15.9, 14.1, 13.4 and 15.8.
PEAK_BOUNDS = {"admissible_mask": 9.0, "residual": 10.0, "build_report": 11.0,
               "write_field": 2.0, "read_field": 6.5}


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


def test_working_memory_bounded(tmp_path):
    dom = make_domain(3, (-1.0,) * 3, (1.0,) * 3, (48,) * 3)
    fld = ScalarField(dom, (np.sum(dom.points ** 2, axis=1) - 1.0).reshape(dom.shape))
    params, rhs = SumHessianParams(3, 2, 1.0), RhsSpec.parse("18")
    path = tmp_path / "bowl.field"

    def write():
        with open(path, "w") as stream:
            write_field(fld, stream)

    def read():
        with open(path) as stream:
            return read_field(stream)

    stages = {"admissible_mask": lambda: admissible_mask(fld, params),
              "residual": lambda: residual(fld, params, rhs),
              "build_report": lambda: build_report("bowl", fld),
              "write_field": write, "read_field": read}
    ratios = {name: traced_peak(fn) / fld.values.nbytes for name, fn in stages.items()}
    assert read().values.tobytes() == fld.values.tobytes()
    assert all(ratios[name] <= bound for name, bound in PEAK_BOUNDS.items()), ratios
