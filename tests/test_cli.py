"""Command-line entry points, run in process."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import cached_kernels
from expcap.capacity import CapacityOptions, CompactSet, capacity_pair
from expcap.cli import main, read_config, _parse_atoms
from expcap.errors import BadInput, SupportError
from expcap.experiments import (ExperimentConfig, run_boundary_probe,
                                run_convergence_suite, run_moderate_extension,
                                run_removability_threshold, run_vanishing_inequality,
                                target_nodes)
from expcap.grids import Field, build_grid, dump_field_csv, load_field_csv
from expcap.kernels import assemble
from expcap.measures import BoundaryMeasure, InteriorMeasure
from expcap.solver import solve_interior, truncation_scheme


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_norms_constant_field(capsys):
    code, out = run(["norms", "--shape", "square", "--n", "16",
                     "--constant", "1.0"], capsys)
    assert code == 0
    assert "luxemburg[principal]" in out
    assert "llnl" in out


def test_kernel_report(capsys):
    code, out = run(["kernel", "--shape", "square", "--n", "12"], capsys)
    assert code == 0
    assert "principal eigenvalue" in out
    assert "harmonic partition deviation" in out


def test_solve_with_dump(tmp_path, capsys):
    path = str(tmp_path / "u.csv")
    code, out = run(["solve", "--shape", "square", "--n", "12",
                     "--interior-atoms", "0.5,0.5:2.0", "--dump-u", path],
                    capsys)
    assert code == 0
    assert "monotone descent = True" in out
    u = load_field_csv(path)
    assert u.values.max() > 0.0
    # norms subcommand reads the dump back
    code, out = run(["norms", "--shape", "square", "--n", "12",
                     "--field", path], capsys)
    assert code == 0


def _final_lines(rep):
    return [f"iterations = {rep.iterations}  factorizations = {rep.factorizations}  "
            f"residual = {rep.residual_history[-1]:.3e}",
            f"int (e^u - 1) dx = {rep.absorption_dx:.10g}",
            f"int (u + (e^u - 1) zeta0) dx = {rep.mass_bound_integral:.10g}",
            f"max u = {rep.u.values.max():.10g}"]


def test_solve_boundary_truncation_matches_the_library(capsys):
    code, out = run(["solve", "--shape", "square", "--n", "16",
                     "--boundary-atoms", "0.5,0:4", "--boundary-constant", "1",
                     "--truncation"], capsys)
    assert code == 0
    ks = cached_kernels("square", 16)
    grid = ks.grid
    mu = BoundaryMeasure(grid, atoms=[(int(grid.nearest((0.5, 0.0), "boundary")[0]), 4.0)],
                         density=np.ones(grid.n_boundary))
    rep = truncation_scheme(mu, ks)
    lines = out.splitlines()
    assert lines[0].split() == ["level", "mass", "lhs", "rhs", "min_gain"]
    table = np.array([[float(v) for v in line.split()]
                      for line in lines[1:1 + len(rep.levels)]])
    expected = np.array([[r.level, r.mass, r.bound_lhs, r.bound_rhs, r.min_gain]
                         for r in rep.levels])
    # printed to 6 significant digits, min_gain to 4
    assert np.allclose(table[:, :4], expected[:, :4], rtol=1e-5)
    assert np.allclose(table[:, 4], expected[:, 4], rtol=1e-3, atol=1e-15)
    assert lines[1 + len(rep.levels)] == (
        f"monotone={rep.monotone} saturated={rep.saturated}")
    for line in _final_lines(rep.final):
        assert line in lines


def test_solve_interior_constant_matches_the_library(capsys):
    code, out = run(["solve", "--shape", "square", "--n", "16",
                     "--interior-constant", "2.5"], capsys)
    assert code == 0
    ks = cached_kernels("square", 16)
    grid = ks.grid
    rep = solve_interior(InteriorMeasure(grid, density=np.full(grid.n_interior, 2.5)), ks)
    for line in _final_lines(rep):
        assert line in out.splitlines()


def test_solve_rejects_mixed_sources(capsys):
    code = main(["solve", "--n", "8", "--interior-constant", "1.0",
                 "--boundary-constant", "1.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: choose boundary data or an interior source, not both\n"


def test_capacity_pair_output(capsys):
    code, out = run(["capacity", "--shape", "square", "--n", "12",
                     "--target", "center", "--dilation", "0"], capsys)
    assert code == 0
    assert "primal =" in out and "dual   =" in out
    # weak duality surfaces as a nonnegative reported gap
    gapline = [l for l in out.splitlines() if l.startswith("gap")][0]
    assert float(gapline.split("=")[1].split("%")[0]) >= -1e-6


def test_capacity_defaults_match_the_library(capsys, monkeypatch):
    # the CLI reads its option defaults from CapacityOptions, so at its
    # defaults it passes CapacityOptions() and prints the numbers
    # capacity_pair gives with them; the options are compared directly
    # because the primal stops too early for a different cap to show
    seen = []

    def spy(K, ks, opts):
        seen.append(opts)
        return capacity_pair(K, ks, opts)

    monkeypatch.setattr("expcap.cli.capacity_pair", spy)
    code, out = run(["capacity", "--shape", "square", "--n", "24"], capsys)
    assert code == 0
    assert seen == [CapacityOptions()]
    ks = assemble(build_grid("square", 24))
    K = CompactSet(ks.grid, target_nodes(ks.grid, "interior", "center"),
                   "interior")
    est = capacity_pair(K, ks, CapacityOptions())
    assert f"primal = {est.primal_value:.10g} " in out
    assert f"dual   = {est.dual_value:.10g} " in out


def test_boundary_capacity_defaults_to_the_bottom_mid_target(capsys):
    code, out = run(["capacity", "--kind", "boundary", "--n", "16"], capsys)
    assert code == 0
    ks = cached_kernels("square", 16)
    K = CompactSet(ks.grid, target_nodes(ks.grid, "boundary", "bottom-mid"),
                   "boundary")
    est = capacity_pair(K, ks, CapacityOptions())
    assert out.splitlines()[0] == "target boundary:bottom-mid -> 1 node(s)"
    assert f"primal = {est.primal_value:.10g} " in out


def test_interval_boundary_capacity_defaults_to_the_left_end(capsys):
    # the bottom-* targets need a 2-D grid, so the interval's boundary
    # default is its end point:0
    code, out = run(["capacity", "--shape", "interval", "--n", "8",
                     "--kind", "boundary"], capsys)
    assert code == 0
    ks = cached_kernels("interval", 8)
    K = CompactSet(ks.grid, target_nodes(ks.grid, "boundary", "point:0"),
                   "boundary")
    est = capacity_pair(K, ks, CapacityOptions())
    assert out.splitlines()[0] == "target boundary:point:0 -> 1 node(s)"
    assert f"primal = {est.primal_value:.10g} " in out
    assert abs(est.gap) <= 1e-9 * est.primal_value


@pytest.mark.parametrize("experiment", [run_removability_threshold,
                                        run_vanishing_inequality,
                                        run_moderate_extension, run_boundary_probe])
def test_the_interval_is_refused_before_assembly(experiment, monkeypatch):
    calls = []
    monkeypatch.setattr("expcap.experiments.assemble",
                        lambda grid: calls.append(grid))
    with pytest.raises(SupportError, match="needs a 2D shape"):
        experiment(ExperimentConfig(shape="interval"))
    assert calls == []


def test_library_errors_print_one_line_and_exit_1(capsys):
    code = main(["removability", "--shape", "interval"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: threshold experiment needs a 2D shape\n"


def test_removability_exit_code(capsys):
    code, out = run(["removability", "--ladder", "8,12,16",
                     "--masses", "4,10,16"], capsys)
    assert code == 0
    assert "threshold estimate" in out
    assert "DivergentTrend" in out
    # a bracket missing the reference window reports the failure code
    code, out = run(["removability", "--ladder", "8,12,16",
                     "--masses", "4,16"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_vanishing_table(capsys):
    code, out = run(["vanishing", "--shape", "square", "--ladder", "16",
                     "--radii", "5,4,3"], capsys)
    assert code == 0
    assert "min margin" in out
    assert "boundary-charged" in out


def test_moderate_verdict(capsys):
    code, out = run(["moderate", "--ladder", "12,16,24", "--radii", "4,3,2",
                     "--charge", "20"], capsys)
    assert code == 0
    assert "verdict: OBSTRUCTED" in out


def test_boundary_probe_table(capsys):
    code, out = run(["boundary-probe", "--ladder", "12,16",
                     "--radii", "4,3"], capsys)
    assert code == 0
    assert "shrink" in out and "refine" in out


def test_converge_table(capsys):
    code, out = run(["converge", "--ladder", "12,16"], capsys)
    assert code == 0
    assert "eigenvalue" in out
    assert "green-1d" in out


def test_config_file_feeds_experiments(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comment line\n"
        "ladder = 8,12,16\n"
        "masses = 4,10,16\n"
        "slope-tol = 0.15\n")
    code, out = run(["removability", "--config", str(cfg)], capsys)
    assert code == 0
    parsed = read_config(str(cfg))
    assert parsed["ladder"] == "8,12,16"
    assert parsed["slope_tol"] == "0.15"


def test_config_file_rejects_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("ladderr = 8,12,16\n")
    assert main(["converge", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: not a converge flag: ladderr\n")


# each experiment's runner and a small configuration it runs at
SMALL_RUNS = {
    "removability": (run_removability_threshold,
                     dict(shape="square", ladder=(8, 12, 16), masses=(4.0, 16.0))),
    "vanishing": (run_vanishing_inequality, dict(shape="square", ladder=(12,), radii=(3, 2))),
    "moderate": (run_moderate_extension, dict(shape="square", ladder=(12,), radii=(3, 2))),
    "boundary-probe": (run_boundary_probe, dict(shape="square", ladder=(8,), radii=(3, 2))),
    "converge": (run_convergence_suite, dict(ladder=(8,))),
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_each_experiment_takes_the_parameters_its_runner_reads(command, capsys):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    read = set()

    class Spy(ExperimentConfig):
        def __getattribute__(self, name):
            if name in fields:
                read.add(name)
            return super().__getattribute__(name)

    runner, small = SMALL_RUNS[command]
    cfg = Spy(**small)
    read.clear()  # the reads of ExperimentConfig's own validation
    runner(cfg)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert flags - {"help", "config"} == {key.replace("_", "-") for key in read}


@pytest.mark.parametrize("argv", [["converge", "--shape", "disk"],
                                  ["vanishing", "--charge", "5"],
                                  ["removability", "--target", "center"]],
                         ids=lambda argv: argv[0])
def test_a_flag_the_experiment_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# files that are not field CSVs, written to the test's directory
BAD_FIELDS = {
    "empty": "",
    "two-cells": "a,b\n",
    "n-not-an-integer": "shape,square,n,x\nindex,x0,x1,value\n",
    "unknown-shape": "shape,blob,n,8\nindex,x0,x1,value\n",
    "value-not-a-number": "shape,square,n,8\nindex,x0,x1,value\n0,0.1,0.1,abc\n",
    "index-past-the-grid": "shape,square,n,8\nindex,x0,x1,value\n64,0.1,0.1,1\n",
    "no-rows": "shape,square,n,8\nindex,x0,x1,value\n",
    # 49 rows for the 49 interior nodes, with 0 twice and 48 missing
    "repeated-row": "shape,square,n,8\nindex,x0,x1,value\n"
                    + "".join(f"{i},0.1,0.1,1\n" for i in (0, *range(48))),
}

# each of these once ended in a traceback; "{tmp}" is the test's directory
BAD_INPUT = {
    "unknown-key": ["removability", "--config", "{tmp}/typo.cfg"],
    "unread-key": ["converge", "--config", "{tmp}/disk.cfg"],
    "config-unknown-shape": ["removability", "--config", "{tmp}/blob.cfg"],
    "no-equals": ["removability", "--config", "{tmp}/words.cfg"],
    "missing-config": ["removability", "--config", "{tmp}/absent.cfg"],
    "decreasing-ladder": ["removability", "--ladder", "64,32,16"],
    "short-ladder": ["removability", "--ladder", "32,64"],
    "bad-ladder-entry": ["removability", "--ladder", "8,x,16"],
    "one-coordinate-atom": ["solve", "--interior-atoms", "0.5:1"],
    "interior-truncation": ["solve", "--n", "8", "--interior-constant", "1",
                            "--truncation"],
    "missing-field": ["norms", "--field", "{tmp}/missing.csv"],
    "field-and-constant": ["norms", "--n", "8", "--field", "{tmp}/field.csv",
                           "--constant", "1"],
    **{f"field-{name}": ["norms", "--field", f"{{tmp}}/{name}.csv"]
       for name in BAD_FIELDS},
    "target-point-not-a-number": ["capacity", "--n", "8", "--target", "point:abc"],
    "target-point-one-coordinate": ["capacity", "--n", "8", "--target", "point:0.5"],
    "target-point-inf": ["capacity", "--n", "8", "--target", "point:inf,0"],
    "interior-atom-nan": ["solve", "--n", "8", "--interior-atoms", "nan,0.5:1"],
    "interior-atom-inf": ["solve", "--n", "8", "--interior-atoms", "inf,0.5:1"],
    "boundary-atom-inf": ["solve", "--n", "8", "--boundary-atoms", "inf,0:2"],
    "zero-radius": ["vanishing", "--radii", "0"],
    "no-radius": ["vanishing", "--radii", ","],
    **{f"empty-ladder-{name}": [name, "--ladder", ","]
       for name in ("vanishing", "moderate", "boundary-probe", "converge")},
    "repeated-key": ["converge", "--config", "{tmp}/twice.cfg"],
    "negative-dilation": ["capacity", "--n", "8", "--dilation", "-1"],
    "negative-maxiter": ["capacity", "--n", "8", "--maxiter", "-1"],
    "negative-dual-iters": ["capacity", "--n", "8", "--dual-iters", "-1"],
    **{f"interval-boundary-{name}": ["capacity", "--shape", "interval", "--n", "8",
                                     "--kind", "boundary", "--target", f"bottom-{name}"]
       for name in ("cluster", "arc")},
    **{f"interval-{name}": [name, "--shape", "interval"]
       for name in ("vanishing", "moderate", "boundary-probe")},
    "boundary-probe-interior-target": ["boundary-probe", "--ladder", "8", "--radii", "2",
                                       "--target", "center"],
    **{f"moderate-charge-{name}": ["moderate", "--ladder", "8", "--charge", value]
       for name, value in (("negative", "-1"), ("nan", "nan"), ("inf", "inf"))},
    "negative-threshold-window": ["removability", "--threshold-window", "-1"],
    "nan-threshold-window": ["removability", "--threshold-window", "nan"],
    "nan-slope-tol": ["removability", "--slope-tol", "nan"],
    "no-mass": ["removability", "--masses", ","],
    "negative-residual-tol": ["moderate", "--residual-tol", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_user_input_prints_one_line_and_exits_1(case, tmp_path, capsys):
    (tmp_path / "typo.cfg").write_text("ladderr = 8,12\n")
    (tmp_path / "blob.cfg").write_text("shape = blob\n")
    (tmp_path / "words.cfg").write_text("ladder = 8,12,16\njust words\n")
    (tmp_path / "disk.cfg").write_text("shape = disk\n")
    (tmp_path / "twice.cfg").write_text("ladder = 8\nladder = 12\n")
    grid = build_grid("square", 8)
    dump_field_csv(Field(grid, np.ones(grid.n_interior)), str(tmp_path / "field.csv"))
    for name, text in BAD_FIELDS.items():
        (tmp_path / f"{name}.csv").write_text(text)
    code = main([arg.format(tmp=tmp_path) for arg in BAD_INPUT[case]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_short_removability_ladder_is_refused_before_assembly(monkeypatch):
    calls = []
    monkeypatch.setattr("expcap.experiments.assemble",
                        lambda grid: calls.append(grid))
    with pytest.raises(BadInput, match="at least 3"):
        run_removability_threshold(ExperimentConfig(ladder=(32, 64)))
    assert calls == []


def test_read_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config(str(bad))


def test_read_config_refuses_a_key_given_twice(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("ladder = 8\nslope-tol = 0.1\nslope_tol = 0.2\n")
    with pytest.raises(BadInput, match=f"{re.escape(str(cfg))}: .*slope_tol"):
        read_config(str(cfg))


def test_parse_atoms():
    atoms = _parse_atoms("0.5,0.5:2.0;0.1,0.9:1.5", 2)
    assert atoms == (((0.5, 0.5), 2.0), ((0.1, 0.9), 1.5))
    assert _parse_atoms("", 2) == ()
    with pytest.raises(ValueError):
        _parse_atoms("0.5:1.0", 2)
