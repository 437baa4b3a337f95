"""A batch of rows gives each row the record it gets alone, bit for bit."""

import json
import math
import warnings

import numpy as np
import pytest

from snls.dynamics import AdaptSpec, SimConfig, Trajectory, run_trajectory
from snls.ensemble import EnsembleConfig, drift_check, run_ensemble
from snls.grid import FieldState, GridSpec, mass
from snls.initial_data import InitialData, ground_state_field
from snls.noise_model import CovarianceSpec, make_rng, noise_constants
from snls.observables import observe


def assert_rows_match_alone(cfg, u0s, spec, seeds):
    with np.errstate(over="ignore", invalid="ignore"):
        batch = Trajectory(cfg, u0s, spec, seeds)
        while batch.advance():
            pass
        alone = [run_trajectory(cfg, u0, spec, seed) for u0, seed in zip(u0s, seeds)]
    for got, want in zip(batch.records(), alone):
        assert got.values.tolist() == want.values.tolist()
        assert (got.status, got.hit_times, got.seed, got.dt_final) == (
            want.status, want.hit_times, want.seed, want.dt_final)
    return batch.records()


COVARIANCES = {
    1: {(0,): 0.2, (1,): 0.2, (3,): 0.1},
    2: {(0, 0): 0.1, (1, 0): 0.1, (1, 1): 0.05},
    3: {(0, 0, 0): 0.1, (1, 0, 0): 0.1, (0, 1, 1): 0.05},
}
GRIDS = {1: GridSpec(1, 20.0, 256), 2: GridSpec(2, 10.0, 32), 3: GridSpec(3, 8.0, 16)}


@pytest.mark.parametrize("noise", ["none", "multiplicative", "additive"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batch_rows_match_single_runs(dim, noise):
    # three bumps of different height; stride 2 with a clipped last step
    grid = GRIDS[dim]
    u0s = [FieldState(grid, a * np.exp(-grid.radius_sq / 2.0).astype(complex))
           for a in (0.5, 1.0, 1.5)]
    cfg = SimConfig(n=dim, sigma=1.0 if dim > 1 else 2.0, noise_type=noise, dt0=2e-3,
                    T_end=0.0205, grad_threshold=1e3, record_stride=2)
    spec = None if noise == "none" else CovarianceSpec("fourier_diagonal", COVARIANCES[dim])
    records = assert_rows_match_alone(cfg, u0s, spec, [(3, 0), (3, 1), (3, 2)])
    assert all(r.status.kind == "survived" for r in records)
    assert records[0].samples[-1].t == pytest.approx(0.0205)


def _mixed_rows(gs, grid):
    """Rows that blow up, fail on overflow, survive and show a spectral tail."""
    q, x = ground_state_field(gs, grid).values, grid.axes[0]
    return [FieldState(grid, 1.6 * q * np.exp(-0.5j * x**2)),  # focusing chirp: collapse
            FieldState(grid, np.full(grid.shape, 1e80 + 0j)),  # |u|^4 overflows, zero gradient
            FieldState(grid, 0.8 * q),
            FieldState(grid, 0.8 * q + 0.2 * np.cos(2 * np.pi * 75 / 20.0 * x))]


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("noise", ["none", "multiplicative", "additive"])
def test_rows_that_end_differently(gs_1d_s2, noise, stride):
    grid = GRIDS[1]
    cfg = SimConfig(n=1, sigma=2.0, noise_type=noise, dt0=1e-3, T_end=0.1505,
                    grad_threshold=20.0, record_stride=stride,
                    gs_refs=gs_1d_s2)
    spec = None if noise == "none" else CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    records = assert_rows_match_alone(cfg, _mixed_rows(gs_1d_s2, grid), spec,
                                      [(9, i) for i in range(4)])
    assert [(r.status.kind, r.status.reason) for r in records] == [
        ("blownup", None), ("failed", "overflow"), ("survived", None),
        ("blownup", "spectral tail")]


@pytest.mark.parametrize("noise", ["none", "multiplicative", "additive"])
def test_rows_that_overflow_advance_without_a_warning(gs_1d_s2, noise):
    # numpy's FFTs report overflow and invalid values; a run keeps them quiet, as
    # it does its own, and a non-finite field still fails observe with ValueError
    grid = GRIDS[1]
    cfg = SimConfig(n=1, sigma=2.0, noise_type=noise, dt0=1e-3, T_end=0.1505,
                    grad_threshold=20.0, record_stride=1, gs_refs=gs_1d_s2)
    spec = None if noise == "none" else CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    with np.errstate(over="ignore"):  # the 1e80 row's |u|^4 overflows in its first sample
        path = Trajectory(cfg, _mixed_rows(gs_1d_s2, grid), spec, [(9, i) for i in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while path.advance():
            pass
        with pytest.raises(ValueError, match="non-finite"):
            observe(FieldState(grid, np.full(grid.shape, np.nan + 0j)), 0.0, 1.0, 0.0, 2.0)
    assert [r.status.kind for r in path.records()] == ["blownup", "failed", "survived",
                                                       "blownup"]


@pytest.mark.parametrize("noise", ["none", "multiplicative"])
def test_rows_on_different_dt(gs_1d_s2, noise):
    # the collapsing rows halve dt at their own times, the others never do
    grid = GRIDS[1]
    q, x = ground_state_field(gs_1d_s2, grid).values, grid.axes[0]
    u0s = [FieldState(grid, c * q * np.exp(-chirp * 1j * x**2))
           for c, chirp in ((1.6, 0.5), (0.8, 0.0), (1.4, 0.3), (0.6, 0.0))]
    cfg = SimConfig(n=1, sigma=2.0, noise_type=noise, dt0=1e-3, T_end=0.1205,
                    grad_threshold=20.0, record_stride=2,
                    adapt=AdaptSpec(growth_factor=1.5, dt_min=1e-4),
                    gs_refs=gs_1d_s2)
    spec = None if noise == "none" else CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    records = assert_rows_match_alone(cfg, u0s, spec, [(4, i) for i in range(4)])
    dts = [r.dt_final for r in records]
    assert dts[1] == dts[3] == cfg.dt0
    assert dts[0] < cfg.dt0 and dts[2] < cfg.dt0


@pytest.mark.parametrize("T_end, stride, short", [(0.5, 2, 7e-13), (10.0, 7, 5e-12)],
                         ids=["early-record", "unrecorded-end"])
def test_rows_near_the_end_time(T_end, stride, short):
    # dt puts the first row `short` before T_end after five steps, off the stride, inside the
    # end band t >= T_end - 1e-12 max(1, T_end): that step ends the row and is its one record
    # in the band.  The second row collapses; at T_end = 0.5 it has halved dt and goes on
    # with its phase pending after the first row ends
    grid = GridSpec(1, 10.0, 64)
    x = grid.axes[0]
    u0s = [FieldState(grid, 0.3 * np.exp(-x**2).astype(complex)),
           FieldState(grid, 2.0 * np.exp(-x**2) * np.exp(-1j * x**2))]  # collapses, halves dt
    cfg = SimConfig(n=1, sigma=2.0, noise_type="multiplicative", dt0=(T_end - short) / 5,
                    T_end=T_end, grad_threshold=1e3, record_stride=stride,
                    adapt=AdaptSpec(growth_factor=1.05, dt_min=T_end / 1000))
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    records = assert_rows_match_alone(cfg, u0s, spec, [(1, 0), (1, 1)])
    assert records[0].status.kind == "survived"
    in_band = [s.t >= T_end - 1e-12 * max(1.0, T_end) for s in records[0].samples]
    assert in_band.count(True) == 1 and in_band[-1]


@pytest.mark.parametrize("dims, points, modes", [
    (1, 64, {(0,): 0.2, (1,): 0.15, (3,): 0.1}),
    (2, (12, 8), {(0, 0): 0.2, (1, 4): 0.1, (1, -4): 0.1, (2, 1): 0.3}),  # (1, +-4) share a slot
    (3, 8, {(0, 0, 0): 0.1, (1, 2, -3): 0.2, (0, 1, 2): 0.05}),
], ids=["1d", "2d-nyquist", "3d"])
def test_sampler_rows_match_single_draws(dims, points, modes):
    from snls.noise_model import NoiseSampler

    grid = GridSpec(dims, 10.0, points, dealias_fraction=1.0)
    sampler = NoiseSampler(CovarianceSpec("fourier_diagonal", modes), grid)
    dts = [0.1, 0.003, 0.1]
    for complex_valued in (False, True):
        rows = sampler.sample_rows(dts, [make_rng(2, i) for i in range(3)], complex_valued)
        for i, dt in enumerate(dts):
            single = sampler.sample_rows((dt,), (make_rng(2, i),), complex_valued)
            assert np.array_equal(rows[i], single[0])
        # sample_rows is synthesize of the normals drawn row by row
        parts = 2 if complex_valued else 1
        normals = np.stack([make_rng(2, i).standard_normal((parts, sampler.n_basis))
                            for i in range(3)])
        assert np.array_equal(sampler.synthesize(normals, dts, complex_valued), rows)


def test_normals_drawn_in_blocks_are_the_single_draws():
    # the property block draws rest on: k normals at once are the next k single draws
    rng, block = make_rng(5, 1), make_rng(5, 1).standard_normal((7, 2, 3))
    assert np.array_equal(block, np.stack([rng.standard_normal((2, 3)) for _ in range(7)]))


def _block_records(cfg, u0s, spec, seeds, steps_per_block, monkeypatch):
    """Records under a normals budget of steps_per_block steps of the full batch,
    checked against each row alone; also returns whether a row ended mid-block."""
    import snls.dynamics

    parts = 2 if cfg.noise_type == "additive" else 1
    monkeypatch.setattr(snls.dynamics, "_NORMALS_BYTES",
                        steps_per_block * 8 * parts * 2 * len(u0s))  # 2 basis fields
    mid_block = []
    compact = Trajectory._compact

    def watched(path):
        before = len(path.live)
        compact(path)
        if len(path.live) < before:
            mid_block.append(0 < path._used < path._normals.shape[1])

    monkeypatch.setattr(Trajectory, "_compact", watched)
    records = assert_rows_match_alone(cfg, u0s, spec, seeds)
    monkeypatch.undo()
    return records, any(mid_block)


def _same_records(got, want):
    assert [(r.values.tolist(), r.status, r.hit_times, r.dt_final) for r in got] == [
        (r.values.tolist(), r.status, r.hit_times, r.dt_final) for r in want]


@pytest.mark.parametrize("steps_per_block", [1, 3])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("noise", ["multiplicative", "additive"])
def test_block_draws_across_blocks_and_compaction(gs_1d_s2, noise, stride, steps_per_block,
                                                  monkeypatch):
    # a tiny normals budget: the rows cross many block boundaries and end mid-block
    grid = GRIDS[1]
    cfg = SimConfig(n=1, sigma=2.0, noise_type=noise, dt0=1e-3, T_end=0.1505,
                    grad_threshold=20.0, record_stride=stride, gs_refs=gs_1d_s2)
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    u0s, seeds = _mixed_rows(gs_1d_s2, grid), [(9, i) for i in range(4)]
    default = assert_rows_match_alone(cfg, u0s, spec, seeds)
    small, mid_block = _block_records(cfg, u0s, spec, seeds, steps_per_block, monkeypatch)
    _same_records(small, default)
    assert mid_block or steps_per_block == 1


@pytest.mark.parametrize("steps_per_block", [1, 2])
def test_block_draws_on_different_dt(gs_1d_s2, steps_per_block, monkeypatch):
    grid = GRIDS[1]
    q, x = ground_state_field(gs_1d_s2, grid).values, grid.axes[0]
    u0s = [FieldState(grid, c * q * np.exp(-chirp * 1j * x**2))
           for c, chirp in ((1.6, 0.5), (0.8, 0.0), (1.4, 0.3), (0.6, 0.0))]
    cfg = SimConfig(n=1, sigma=2.0, noise_type="multiplicative", dt0=1e-3, T_end=0.1205,
                    grad_threshold=20.0, record_stride=2,
                    adapt=AdaptSpec(growth_factor=1.5, dt_min=1e-4), gs_refs=gs_1d_s2)
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    seeds = [(4, i) for i in range(4)]
    default = assert_rows_match_alone(cfg, u0s, spec, seeds)
    small, _ = _block_records(cfg, u0s, spec, seeds, steps_per_block, monkeypatch)
    _same_records(small, default)


@pytest.fixture(scope="module")
def additive_cfg(gs_1d_s2):
    grid = GridSpec(1, 20.0, 64)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.1, (1,): 0.1})
    sim = SimConfig(n=1, sigma=2.0, noise_type="additive", dt0=0.01, T_end=0.3,
                    grad_threshold=50.0, record_stride=3,
                    gs_refs=gs_1d_s2)
    return dict(master_seed=77, trajectory=sim, grid=grid, covariance=spec,
                ground_state=gs_1d_s2, config_hash="hb")


def test_summaries_and_files_independent_of_workers(tmp_path, additive_cfg, monkeypatch):
    # 29 paths: chunks of 3 on two workers and of 2 on three, both with a remainder;
    # the last run splits one worker's chunk into batches of 5 rows
    import snls.ensemble

    docs, files = [], []
    for workers, rows in ((1, None), (2, None), (3, None), (1, 5)):
        if rows is not None:
            monkeypatch.setattr(snls.ensemble, "BATCH_BYTES", rows * 16 * 64)
        cfg = EnsembleConfig(n_traj=29, initial_data=InitialData("zero"),
                             parallel_workers=workers, **additive_cfg)
        out = tmp_path / f"w{workers}-{rows}"
        summary, _ = run_ensemble(cfg, out_dir=str(out))
        docs.append(json.dumps(summary.to_dict(), sort_keys=True))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert all(doc == docs[0] for doc in docs)
    assert len(files[0]) == 29 and all(f == files[0] for f in files)


def test_random_initial_data_does_not_reuse_the_noise_stream(additive_cfg, gs_1d_s2):
    # lognormal c = exp(0.1 z): z must not be the first normal of the path's noise stream
    init = InitialData("random_scaled_ground_state",
                       {"c_dist": {"kind": "lognormal", "mu": 0.0, "sigma": 0.1}})
    cfg = EnsembleConfig(n_traj=4, initial_data=init, **additive_cfg)
    summary, records = run_ensemble(cfg)
    m_q = mass(ground_state_field(gs_1d_s2, cfg.grid))
    for index, rec in enumerate(records):
        z = math.log(math.sqrt(rec.samples[0].mass / m_q)) / 0.1
        assert abs(z - make_rng(cfg.master_seed, index).standard_normal()) > 1e-6
    # the drift law starts from path 0's own u0
    chk = drift_check(summary, cfg, noise_constants(cfg.covariance, cfg.grid, 2.0))
    t_last = chk["times"][-1]
    assert chk["theoretical"] == pytest.approx(
        records[0].samples[0].mass + t_last * noise_constants(cfg.covariance, cfg.grid, 2.0).hs00,
        rel=1e-12)
