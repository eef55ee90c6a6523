"""Batch experiment drivers: verdicts, trends, bookkeeping."""

import csv
import weakref

import numpy as np
import pytest

import expcap.experiments as experiments
import expcap.kernels as kernels
import expcap.solver as solver
from expcap.errors import BadInput, Infeasible, NoConvergence, SupportError
from expcap.experiments import (ExperimentConfig, boundary_family,
                                interior_family, punctured_solve,
                                run_boundary_probe, run_convergence_suite,
                                run_moderate_extension,
                                run_removability_threshold,
                                run_vanishing_inequality, target_nodes,
                                write_csv)
from expcap.grids import build_grid
from expcap.kernels import assemble
from expcap.measures import InteriorMeasure, MeasureSpec


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ladder=(16, 16))
    with pytest.raises(ValueError):
        ExperimentConfig(masses=(2.0, -1.0))
    cfg = ExperimentConfig(ladder=(8.0, 12), radii=(3.0, 2))
    assert cfg.ladder == (8, 12)
    assert cfg.radii == (3, 2)


@pytest.mark.parametrize("field, value", [
    ("threshold_window", -1.0), ("threshold_window", float("nan")),
    ("threshold_window", float("inf")), ("residual_tol", -1e-4),
    ("residual_tol", float("nan")), ("slope_tol", float("nan")),
    ("slope_tol", float("inf")), ("slope_tol", float("-inf")), ("masses", ()),
    ("masses", (2.0, float("nan"))), ("masses", (float("inf"),)),
    ("ladder", (8.7, 12.2, 16)), ("ladder", (8, float("nan"))),
    ("ladder", (float("inf"),)), ("radii", (2.9,)), ("radii", (3, float("nan")))])
def test_config_refuses_a_tolerance_or_mass_no_verdict_can_use(field, value):
    # a negative window can only print FAIL, a nan slope tolerance reads every
    # mass as admissible and blamed the ladder, and an empty mass list left
    # both verdict lists empty; a grid size or radius that is not a whole
    # number was truncated (8.7 ran 8): each is refused before any grid is built
    with pytest.raises(BadInput, match=field):
        ExperimentConfig(**{field: value})


def test_config_takes_a_negative_slope_tolerance():
    # a slope bound below 0 is a strict screen, not a malformed one
    assert ExperimentConfig(slope_tol=-1.0).slope_tol == -1.0


@pytest.mark.parametrize("charge", [-50.0, float("nan"), float("inf")])
def test_moderate_refuses_a_negative_or_non_finite_charge(charge):
    # the punctured solve's monotone Newton needs data >= 0 and finite
    # (a charge of -50 drives u to -35.6 at n = 32 and still yields a
    # verdict), so the config refuses such a charge before any grid is built
    with pytest.raises(BadInput):
        ExperimentConfig(ladder=(32,), charge=charge)


def test_moderate_reads_none_as_an_unknown_target():
    with pytest.raises(SupportError):
        run_moderate_extension(ExperimentConfig(ladder=(8,), radii=(3, 2),
                                                target="none"))


def test_target_nodes_names(ks16):
    grid = ks16.grid
    assert target_nodes(grid, "interior", "center").size == 1
    assert target_nodes(grid, "interior", "cluster").size == 3
    seg = target_nodes(grid, "interior", "segment")
    assert seg.size >= 2
    assert np.all(np.abs(grid.interior_coords[seg, 1] - 0.5) < grid.h)
    assert target_nodes(grid, "boundary", "bottom-mid").size == 1
    arc = target_nodes(grid, "boundary", "bottom-arc")
    assert np.all(grid.boundary_coords[arc, 1] < grid.h)
    pt = target_nodes(grid, "interior", "point:0.3,0.7")
    assert np.abs(grid.interior_coords[pt[0]] - (0.3, 0.7)).max() <= grid.h
    with pytest.raises(SupportError):
        target_nodes(grid, "interior", "everything")


def test_cutoff_families(ks16):
    grid = ks16.grid
    K = target_nodes(grid, "interior", "center")
    etas = list(interior_family(K, ks16, (5, 3, 2)))
    assert len(etas) == 3
    for eta in etas:
        assert np.allclose(eta[K], 1.0)
        assert eta.min() >= -1e-12 and eta.max() <= 1.0 + 1e-12
    # support shrinks with the radius
    assert (etas[0] > 1e-12).sum() > (etas[-1] > 1e-12).sum()
    with pytest.raises(Infeasible):
        list(interior_family(K, ks16, (9,)))
    Kb = target_nodes(grid, "boundary", "bottom-mid")
    for eta_b in boundary_family(Kb, grid, (4, 2)):
        assert np.allclose(eta_b[Kb], 1.0)
        assert eta_b.max() <= 1.0 + 1e-12


def test_removability_threshold_brackets_the_constant():
    cfg = ExperimentConfig(experiment="removability", ladder=(8, 12, 16),
                           masses=(4.0, 10.0, 16.0))
    res = run_removability_threshold(cfg)
    verdicts = [row[2] for row in res.rows]
    assert verdicts == ["Admissible", "Admissible", "DivergentTrend"]
    assert 10.0 < res.threshold < 16.0


def test_removability_default_ladder_hits_four_pi():
    res = run_removability_threshold(ExperimentConfig(experiment="removability"))
    assert res.verdict == "PASS"
    assert res.threshold == pytest.approx(4.0 * np.pi, rel=0.15)
    slopes = [row[1] for row in res.rows]
    assert slopes[0] < slopes[-1]


def test_removability_solves_one_green_column_per_rung(monkeypatch):
    # an atom's potential is linear in its mass, so the default ladder takes
    # one right-hand side per rung (3, where a solve per mass took 15), and
    # each rung's operators are freed before the next rung and the fits
    solved, rungs, alive = [], [], []
    solve, build, fit = kernels.KernelSet.solve, experiments.assemble, experiments._growth_trend

    def counting_solve(self, rhs):
        solved.append(1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return solve(self, rhs)

    def tracked_assemble(grid):
        alive.append(sum(ref() is not None for ref in rungs))
        ks = build(grid)
        rungs.append(weakref.ref(ks))
        return ks

    def watched_fit(*args):
        alive.append(sum(ref() is not None for ref in rungs))
        return fit(*args)

    monkeypatch.setattr(kernels.KernelSet, "solve", counting_solve)
    monkeypatch.setattr(experiments, "assemble", tracked_assemble)
    monkeypatch.setattr(experiments, "_growth_trend", watched_fit)
    res = run_removability_threshold(ExperimentConfig())
    assert sum(solved) == 3
    assert len(rungs) == 3
    assert alive == [0] * 8  # three assemblies, then five fits
    assert res.threshold == 12.5
    assert res.verdict == "PASS"


def test_removability_slopes_are_the_per_mass_screens():
    # the scaled Green columns give each mass the slope and verdict of its
    # own admissibility ladder, to rounding
    cfg = ExperimentConfig()
    res = run_removability_threshold(cfg)
    ladder = [assemble(build_grid(cfg.shape, n)) for n in cfg.ladder]
    for m, slope, verdict in res.rows:
        spec = MeasureSpec("interior", atoms=(((0.5, 0.5), m),))
        rep = solver.admissibility_test(spec, ladder, slope_tol=cfg.slope_tol)
        assert abs(slope - rep.slope) <= 1e-12
        assert verdict == rep.verdict
    assert [row[2] for row in res.rows] == ["Admissible"] * 3 + ["DivergentTrend"] * 2


def test_vanishing_terms_stay_positive():
    cfg = ExperimentConfig(experiment="vanishing", shape="square",
                           ladder=(16,), radii=(5, 4, 3))
    res = run_vanishing_inequality(cfg)
    cases = {row[0] for row in res.rows}
    assert cases == {"interior-charged", "interior-slack", "boundary-charged"}
    assert res.min_margin > 0.0
    assert res.max_pairing_gap < 1e-9
    charged = [row for row in res.rows if row[0] == "interior-charged"]
    assert all(row[2] == pytest.approx(1.0) for row in charged)
    slack = [row for row in res.rows if row[0] == "interior-slack"]
    assert all(row[2] == 0.0 for row in slack)


def test_moderate_extension_verdicts():
    # residual tolerance matched to the h^2 floor of this ladder
    base = dict(experiment="moderate", ladder=(16, 24, 32), radii=(6, 4, 3),
                residual_tol=2e-3)
    free = run_moderate_extension(ExperimentConfig(charge=0.0, **base))
    assert free.verdict == "EXTENDS"
    assert free.punctured_gap < 1e-2
    charged = run_moderate_extension(ExperimentConfig(charge=20.0, **base))
    assert charged.verdict == "OBSTRUCTED"
    assert charged.residual > 1.0
    assert np.isnan(charged.punctured_gap)


def test_punctured_solve_matches_full_without_a_hole(ks16):
    grid = ks16.grid
    mu = InteriorMeasure(grid, density=np.ones(grid.n_interior))
    u, iters = punctured_solve(mu, ks16, np.array([], dtype=int))
    resid = ks16.lap @ u.values + np.expm1(u.values) - mu.density_vector()
    assert np.abs(resid).max() < 1e-9
    assert iters < 20


def test_punctured_solve_raises_when_newton_stalls(ks16, monkeypatch):
    # a factorisation that has lost the Jacobian: every step is the same
    # small constant, so no step ever falls below the tolerance
    class Stalled:
        def solve(self, rhs):
            return np.full_like(rhs, 1e-3)

    monkeypatch.setattr(kernels.spla, "splu", lambda J, **kw: Stalled())
    grid = ks16.grid
    mu = InteriorMeasure(grid, density=np.ones(grid.n_interior))
    with pytest.raises(NoConvergence):
        punctured_solve(mu, ks16, np.array([0], dtype=int))


def test_punctured_solve_closes_the_masked_equation(ks16):
    # with a hole K the absorption is dropped on K and the load there is
    # the charge; the masked residual must sit below the solver's tolerance
    grid = ks16.grid
    K = target_nodes(grid, "interior", "cluster")
    mu = InteriorMeasure(grid, density=np.ones(grid.n_interior))
    u, _ = punctured_solve(mu, ks16, K, charge=5.0)
    mask = np.ones(grid.n_interior)
    mask[K] = 0.0
    b = mu.density_vector()
    b[K] = 5.0 / (K.size * grid.cell_measure)
    resid = ks16.lap @ u.values + mask * np.expm1(u.values) - b
    assert np.abs(resid).max() < solver.RES_TOL * max(1.0, np.abs(b).max())


def test_boundary_tents_follow_the_boundary_graph(ks16):
    # reference: hop counts by repeated relaxation over the 8-neighbour
    # boundary graph, built from lattice coordinates and independent of
    # the breadth-first search
    grid = ks16.grid
    c = np.rint(grid.boundary_coords / grid.h)
    cheb = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
    adj = [np.flatnonzero(row == 1) for row in cheb]
    K = np.array([3, 4])
    dist = np.full(grid.n_boundary, np.inf)
    dist[K] = 0.0
    for _ in range(grid.n_boundary):
        for b, nbrs in enumerate(adj):
            for j in nbrs:
                dist[j] = min(dist[j], dist[b] + 1.0)
    for R, eta in zip((6, 2), boundary_family(K, grid, (2, 6))):
        assert np.array_equal(eta, np.maximum(0.0, 1.0 - dist / R))


def test_boundary_probe_trends():
    cfg = ExperimentConfig(experiment="boundary-probe", ladder=(12, 16, 24),
                           radii=(8, 6, 4, 3))
    res = run_boundary_probe(cfg)
    ests = [row[3] for row in res.shrink_rows]
    assert all(a >= b for a, b in zip(ests, ests[1:]))  # shrinks with radius
    refine = [row[3] for row in res.refine_rows]
    assert refine == sorted(refine)  # grows under refinement
    assert res.est_slope > 0.0


def test_convergence_suite_anchors(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = ExperimentConfig(experiment="converge", ladder=(12, 16), out=out)
    res = run_convergence_suite(cfg)
    rows = {(r[0], r[2]): r for r in res.rows}
    assert rows[("eigenvalue", 16)][5] < rows[("eigenvalue", 12)][5]
    assert rows[("harmonic-partition", 16)][5] < 1e-12
    assert rows[("green-1d", 25)][3] < 1e-12
    assert rows[("torsion-1d", 33)][3] < 1e-12
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert header[0] == "check"


def test_write_csv_formats(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [(1, 2.5), (3, 4.0)])
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3


@pytest.mark.parametrize("shape,n", [("square", 16), ("square", 32), ("square", 64),
                                     ("disk", 24), ("disk", 32)])
def test_center_target_is_the_snapped_centre_atom(shape, n):
    grid = build_grid(shape, n)
    mu = MeasureSpec("interior", atoms=(((0.5, 0.5), 1.0),)).instantiate(grid)
    assert target_nodes(grid, "interior", "center").tolist() == [mu.atoms[0][0]]


def test_nearest_breaks_ties_to_the_lowest_ordinal():
    grid = build_grid("square", 16)  # the centre is equidistant from four nodes
    assert grid.nearest((0.5, 0.5), count=4).tolist() == [119, 120, 135, 136]
    assert grid.nearest((0.5, 0.5)).tolist() == [119]


def test_nearest_rejects_a_point_of_another_dimension():
    interval, square = build_grid("interval", 16), build_grid("square", 16)
    with pytest.raises(ValueError):
        interval.nearest((0.5, 0.0), "boundary")
    with pytest.raises(ValueError):
        square.nearest((0.3,))
    with pytest.raises(ValueError):
        target_nodes(interval, "boundary", "point:0,0.5")
    with pytest.raises(ValueError):
        target_nodes(interval, "boundary", "bottom-mid")
    assert target_nodes(interval, "boundary", "point:1").tolist() == [1]


@pytest.mark.parametrize("point", [(float("nan"), 0.5), (float("inf"), 0.5),
                                   (0.5, float("-inf"))])
@pytest.mark.parametrize("kind", ["interior", "boundary"])
def test_nearest_refuses_a_non_finite_point(point, kind):
    # a NaN distance ended in an IndexError and an infinite one snapped to
    # node 0, so an atom or a 'point:' target at inf was solved at node 0
    grid = build_grid("square", 8)
    with pytest.raises(BadInput, match="non-finite"):
        grid.nearest(point, kind)
    with pytest.raises(BadInput, match="non-finite"):
        MeasureSpec(kind, atoms=((point, 1.0),)).instantiate(grid)
    name = "point:" + ",".join(str(v) for v in point)
    with pytest.raises(BadInput, match="non-finite"):
        target_nodes(grid, kind, name)
