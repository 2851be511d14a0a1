"""Tests for the discrete-space quantum-trajectory Monte Carlo solver."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from mirrorqed import (
    SystemParams,
    TrajectoryConfig,
    build_propagator,
    ensemble_average,
    run_trajectory,
    trajectory,
    trajectory_rng,
)
from mirrorqed.trajectory import NormUnderflow, _advance, _detection_draws, _initial_state


def config_for(tau=1.0, phase=math.pi, r_m=-1.0, boxes=9, n_traj=10, t_max=2.0, seed=7):
    params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
    return TrajectoryConfig.from_params(
        params, boxes=boxes, n_trajectories=n_traj, t_max=t_max, master_seed=seed
    )


def dense_no_jump_oracle(config, n_steps):
    """Deterministic no-detection evolution, built independently.

    Uses the full (2N+2)-dimensional Hamiltonian exponentiated with
    scipy.linalg.expm and an index-by-index box shift.
    """
    n = config.boxes
    dim = 2 * n + 2
    ham = np.zeros((dim, dim), dtype=complex)
    ham[1, 1] = config.omega_e
    ham[1, 2] = ham[2, 1] = math.sqrt(config.v_right / config.dt)
    ham[1, 2 * n + 1] = ham[2 * n + 1, 1] = math.sqrt(config.v_left / config.dt)
    unitary = expm(-1j * ham * config.dt)

    def right_index(box):
        return 2 + box

    def left_index(box):
        return 2 * n + 1 - box

    state = np.zeros(dim, dtype=complex)
    state[1] = 1.0
    series = [1.0]
    for _ in range(n_steps):
        state = unitary @ state
        state[right_index(n - 1)] = 0.0  # no detection observed
        state[left_index(0)] = 0.0
        shifted = np.zeros_like(state)
        shifted[0] = state[0]
        shifted[1] = state[1]
        for box in range(1, n - 1):
            shifted[right_index(box)] = state[right_index(box - 1)]
        shifted[right_index(n - 1)] = config.t_m * state[right_index(n - 2)]
        shifted[left_index(n - 2)] = config.r_m * state[right_index(n - 2)]
        for box in range(0, n - 2):
            shifted[left_index(box)] = state[left_index(box + 1)]
        state = shifted / np.linalg.norm(shifted)
        series.append(abs(state[1]) ** 2)
    return np.array(series)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="boxes"):
        TrajectoryConfig(
            boxes=1, dt=0.1, v_right=0.5, v_left=0.5, r_m=0.0, omega_e=1.0,
            n_trajectories=1, t_max=1.0, master_seed=0,
        )
    with pytest.raises(ValueError, match="r_m"):
        TrajectoryConfig(
            boxes=4, dt=0.1, v_right=0.5, v_left=0.5, r_m=-1.5, omega_e=1.0,
            n_trajectories=1, t_max=1.0, master_seed=0,
        )
    with pytest.raises(ValueError, match="tau"):
        TrajectoryConfig.from_params(
            SystemParams(omega_e=1.0, tau=0.0, r_m=0), boxes=4
        )
    with pytest.raises(ValueError, match="real"):
        TrajectoryConfig.from_params(
            SystemParams(omega_e=1.0, tau=1.0, r_m=0.5j), boxes=4
        )
    # rejected before dt = tau / (2 (boxes - 1)) divides by zero
    with pytest.raises(ValueError, match="boxes must be >= 2"):
        TrajectoryConfig.from_params(
            SystemParams(omega_e=1.0, tau=1.0, r_m=-1.0), boxes=1
        )


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("dt", {"dt": math.nan}),
        ("v_right", {"v_right": math.nan}),
        ("v_right", {"v_left": math.nan}),
        ("r_m", {"r_m": math.nan}),
        ("omega_e", {"omega_e": math.nan}),
        ("t_max", {"t_max": math.nan}),
        ("unitary", {"t_m": math.nan}),
    ],
)
def test_config_rejects_nan(field, overrides):
    kwargs = dict(
        boxes=4, dt=0.1, v_right=0.5, v_left=0.5, r_m=0.0, omega_e=1.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    with pytest.raises(ValueError, match=field):
        TrajectoryConfig(**{**kwargs, **overrides})


def test_config_from_params_geometry():
    config = config_for(tau=1.0, boxes=25)
    assert config.dt == pytest.approx(1.0 / 48.0, rel=1e-15)
    # dt (N - 1) reproduces the emitter-mirror distance tau / 2
    assert config.dt * (config.boxes - 1) == pytest.approx(0.5, rel=1e-15)
    assert config.v_right == config.v_left == 0.5
    assert config.gamma == 1.0
    assert config.t_m == pytest.approx(0.0)


def test_config_grid():
    config = config_for(tau=1.0, boxes=9, t_max=2.0)
    assert config.n_steps == 32
    assert len(config.times) == 33
    assert config.times[-1] == pytest.approx(2.0)


def test_initial_state():
    config = config_for()
    amps = _initial_state(config)
    assert amps.shape == (1, config.state_size)
    assert amps[0, 1] == 1.0
    assert np.linalg.norm(amps[0]) == 1.0
    assert np.abs(amps[0, 1]) ** 2 == 1.0
    assert amps[0, 0] == 0.0  # vacuum empty until a detection


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------


def test_propagator_unitary():
    rng = np.random.default_rng(3)
    for _ in range(20):
        params = SystemParams.from_round_trip_phase(
            tau=rng.uniform(0.2, 3.0), phase=rng.uniform(0, 7), r_m=rng.uniform(-1, 1)
        )
        config = TrajectoryConfig.from_params(params, boxes=int(rng.integers(2, 40)))
        u = build_propagator(config).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12


def test_propagator_trivial_couplings():
    config = TrajectoryConfig(
        boxes=5, dt=0.1, v_right=0.0, v_left=0.0, r_m=0.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    assert np.allclose(build_propagator(config).matrix, np.eye(3), atol=1e-15)
    config_phase = TrajectoryConfig(
        boxes=5, dt=0.1, v_right=0.0, v_left=0.0, r_m=0.0, omega_e=2.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    u = build_propagator(config_phase).matrix
    assert u[0, 0] == pytest.approx(np.exp(-0.2j), abs=1e-14)
    assert u[1, 1] == u[2, 2] == 1.0


def test_propagator_single_step_decay():
    # one step from |e, 0> at omega_e = 0: survival cos^2 sqrt(Gamma dt),
    # consistent with 1 - Gamma dt at small dt
    params = SystemParams(omega_e=0.0, tau=1.0, r_m=-1.0)
    config = TrajectoryConfig.from_params(params, boxes=25)
    propagator = build_propagator(config)
    evolved = propagator.matrix @ np.array([1.0, 0.0, 0.0], dtype=complex)
    survival = abs(evolved[0]) ** 2
    assert survival == pytest.approx(math.cos(math.sqrt(config.dt)) ** 2, abs=1e-12)
    assert survival == pytest.approx(1.0 - config.dt, abs=config.dt**2)


def test_propagator_identity_off_active_subspace():
    config = config_for(boxes=8, r_m=-0.3)
    rng = np.random.default_rng(8)
    # photon amplitude spread over interior boxes only: the coherent part of a
    # step must not touch it (detection cannot fire: outputs are empty)
    amps = np.zeros(config.state_size, dtype=complex)
    interior = [4, 5, 6, 12, 13]  # right boxes 2..4 and left boxes 5..4 for N = 8
    amps[interior] = rng.normal(size=len(interior)) + 1j * rng.normal(size=len(interior))
    amps /= np.linalg.norm(amps)
    before = amps.copy()
    batch = amps[np.newaxis, :].copy()
    advanced, p = _advance(batch, config, build_propagator(config), np.array([0.5]))
    assert p[0] == 0.0
    assert np.array_equal(batch[0], before)  # the kernel leaves its input alone
    # contents moved by exactly one box, no amplitude created or changed
    n = config.boxes
    for idx in interior:
        if 2 <= idx <= n:  # right-movers shift up in index
            assert advanced[0][idx + 1] == pytest.approx(before[idx], abs=1e-14)
        elif n + 3 <= idx <= 2 * n:  # left-movers shift up in index too
            assert advanced[0][idx + 1] == pytest.approx(before[idx], abs=1e-14)


# ---------------------------------------------------------------------------
# Step semantics
# ---------------------------------------------------------------------------


def test_step_noop_without_couplings_or_photon():
    config = TrajectoryConfig(
        boxes=6, dt=0.05, v_right=0.0, v_left=0.0, r_m=-1.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=1,
    )
    amps = _initial_state(config)
    # even the smallest positive threshold cannot detect a photon that is not there
    advanced, p = _advance(amps, config, build_propagator(config), np.nextafter(0.0, 1.0))
    assert p[0] == 0.0
    assert np.array_equal(advanced, amps)


def test_step_mirror_reflection_rule():
    # photon in right box N-2 with r_m = -1: the shift sends -1 into left box
    # N-2 and nothing through the mirror
    config = TrajectoryConfig(
        boxes=6, dt=0.05, v_right=0.0, v_left=0.0, r_m=-1.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=1,
    )
    n = config.boxes
    amps = np.zeros((1, config.state_size), dtype=complex)
    amps[0, 2 + (n - 2)] = 1.0  # right box N-2
    eps1 = _detection_draws(config, 0)
    advanced, p = _advance(amps, config, build_propagator(config), eps1[0])
    assert p[0] == 0.0
    assert advanced[0, n + 3] == pytest.approx(-1.0)  # left box N-2
    assert advanced[0, n + 1] == 0.0  # right box N-1 (transmission zero)
    assert advanced[0, n + 2] == 0.0  # left input box stays empty


def test_step_transparent_mirror_then_certain_detection():
    config = TrajectoryConfig(
        boxes=6, dt=0.05, v_right=0.0, v_left=0.0, r_m=0.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=1,
    )
    n = config.boxes
    propagator = build_propagator(config)
    amps = np.zeros((1, config.state_size), dtype=complex)
    amps[0, 2 + (n - 2)] = 1.0
    amps, p = _advance(amps, config, propagator, 1.0)
    assert p[0] == 0.0
    assert amps[0, n + 1] == pytest.approx(1.0)  # right box N-1, t_m = 1
    # the output box now holds the whole excitation: detection is certain,
    # even for the largest threshold a trajectory can draw
    amps, p = _advance(amps, config, propagator, 1.0)
    assert p[0] == 1.0
    assert amps[0, 0] == 1.0  # photon left the region: vacuum
    assert np.abs(amps[0, 1]) ** 2 == 0.0


def test_step_norm_and_empty_input_box_every_step():
    config = config_for(tau=1.0, phase=math.pi, r_m=-0.5, boxes=9, t_max=3.0, seed=3)
    propagator = build_propagator(config)
    amps = _initial_state(config)
    for eps1 in _detection_draws(config, 0):
        amps, _ = _advance(amps, config, propagator, eps1)
        assert abs(np.linalg.norm(amps[0]) - 1.0) < 1e-12
        assert amps[0, config.boxes + 2] == 0.0  # left input box N-1


def test_advance_norm_underflow_guard():
    config = config_for(boxes=5)
    amps = np.zeros((1, config.state_size), dtype=complex)
    amps[0, config.boxes + 1] = 1.0  # everything in an output box
    # artificial draw eps1 > 1 forces the no-detection branch, emptying the state
    with pytest.raises(NormUnderflow):
        _advance(amps, config, build_propagator(config), np.array([2.0]))


def test_norm_underflow_fires_only_for_undetected_trajectories(monkeypatch):
    # a raised floor turns step 7 of this run (p = 0.21, the first step with
    # p > 0.19) into an underflow; only trajectories still undetected after
    # it may raise, in the ensemble exactly as one at a time
    monkeypatch.setattr(trajectory, "_NORM_FLOOR", 0.9)
    outcomes = set()
    for seed in range(12):
        config = config_for(r_m=-1.0, boxes=5, n_traj=2, t_max=3.0, seed=seed)
        rows = []
        for index in range(config.n_trajectories):
            try:
                rows.append(run_trajectory(config, index))
            except NormUnderflow:
                pass
        if len(rows) < config.n_trajectories:
            with pytest.raises(NormUnderflow):
                ensemble_average(config)
        else:
            assert np.array_equal(ensemble_average(config).mean, np.mean(rows, axis=0))
        outcomes.add(len(rows) == config.n_trajectories)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Single trajectories
# ---------------------------------------------------------------------------


def test_trajectory_deterministic_replay():
    config = config_for(boxes=9, t_max=3.0, seed=123)
    first = run_trajectory(config, 4)
    second = run_trajectory(config, 4)
    assert np.array_equal(first, second)
    other_index = run_trajectory(config, 5)
    assert not np.array_equal(first, other_index)


def test_rng_block_draws_match_sequential_draws():
    # trajectories read their stream as (n_steps, 2) blocks; a consumer drawing
    # one pair per step must see the same numbers
    block = trajectory_rng(99, 3).random((17, 2))
    rng = trajectory_rng(99, 3)
    sequential = np.array([rng.random(2) for _ in range(17)])
    assert np.array_equal(block, sequential)


def test_rekeyed_generator_matches_freshly_keyed_streams():
    # ensemble_average re-keys one generator to the start of every stream;
    # each must equal a Philox keyed afresh with (master_seed, index) mod 2**64
    n_steps = 61
    block_rows = trajectory._DRAW_BLOCK_BYTES // (16 * n_steps)
    for seed in (0, 2**63 + 5, 2**64 - 1, -1):
        generator = trajectory_rng(seed, 0)
        generator.random(3)  # leave a partly used buffer behind
        for index in (0, block_rows - 1, block_rows, 2**32 + 3):
            key = np.array([seed % 2**64, index], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key)).random((n_steps, 2))
            generator.bit_generator.state = trajectory._stream_start(seed, index)
            rekeyed = np.empty((n_steps, 2))
            generator.random(out=rekeyed)
            assert np.array_equal(rekeyed, fresh)
            assert np.array_equal(trajectory_rng(seed, index).random((n_steps, 2)), fresh)


def test_trajectory_follows_no_jump_oracle_until_detection():
    config = config_for(tau=1.0, phase=math.pi, r_m=0.0, boxes=9, t_max=4.0, seed=21)
    oracle = dense_no_jump_oracle(config, config.n_steps)
    for index in range(6):
        series = run_trajectory(config, index)
        zero_steps = np.nonzero(series == 0.0)[0]
        first_zero = zero_steps[0] if len(zero_steps) else len(series)
        pre = slice(0, first_zero)
        assert np.max(np.abs(series[pre] - oracle[pre])) < 1e-10
        # no-jump decay is monotone for a transparent mirror
        assert np.all(np.diff(series[pre]) <= 1e-12)
        # once the photon is detected the emitter cannot re-excite
        assert np.all(series[first_zero:] == 0.0)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


def test_ensemble_single_trajectory_matches_run_trajectory():
    config = config_for(boxes=9, n_traj=1, t_max=3.0, seed=11)
    result = ensemble_average(config)
    assert np.array_equal(result.mean, run_trajectory(config, 0))
    assert np.all(result.stderr == 0.0)


def test_ensemble_rows_match_individual_trajectories(monkeypatch):
    def check(config):
        result = ensemble_average(config)
        stacked = np.stack([run_trajectory(config, i) for i in range(config.n_trajectories)])
        assert np.array_equal(result.mean, stacked.mean(axis=0))
        assert np.array_equal(result.stderr, stacked.std(axis=0, ddof=1) / math.sqrt(len(stacked)))

    check(config_for(boxes=7, n_traj=5, t_max=2.0, seed=31))
    # here a complex-scalar abs and the array ufunc differ in the last bit
    # (steps 123 and 153): P_e read either way must agree across paths
    check(config_for(phase=2 * math.pi, boxes=25, n_traj=40, t_max=10.0, seed=2**63 + 5))
    # 33 steps drawn eight trajectories at a time: blocks of 8, 8 and 5 rows
    monkeypatch.setattr(trajectory, "_DRAW_BLOCK_BYTES", 16 * 33 * 8)
    config = config_for(r_m=-0.5, boxes=9, n_traj=21, t_max=33 / 16, seed=2**63 + 5)
    assert config.n_steps == 33
    check(config)


def test_ensemble_without_steps_is_the_initial_state():
    config = config_for(boxes=2, n_traj=10, t_max=0.2)  # dt = 0.5: no step fits
    assert config.n_steps == 0
    result = ensemble_average(config)
    assert np.array_equal(result.times, [0.0])
    assert np.array_equal(result.mean, [1.0])
    assert np.array_equal(result.stderr, [0.0])


def test_ensemble_free_space_tracks_exponential():
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=0.0)
    config = TrajectoryConfig.from_params(
        params, boxes=25, n_trajectories=600, t_max=5.0, master_seed=2025
    )
    result = ensemble_average(config)
    exact = np.exp(-result.times)
    gap = np.abs(result.mean - exact)
    assert np.all(gap <= 3.0 * result.stderr + 1e-12)


def test_ensemble_stderr_scale_and_seed_spread():
    # reported standard error must match the spread across master seeds
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-0.5)
    means = []
    stderrs = []
    for seed in range(10):
        config = TrajectoryConfig.from_params(
            params, boxes=9, n_trajectories=400, t_max=4.0, master_seed=seed
        )
        result = ensemble_average(config)
        means.append(result.mean)
        stderrs.append(result.stderr)
    means = np.stack(means)
    stderrs = np.stack(stderrs)
    assert np.all(stderrs <= math.sqrt(0.25 / 400) + 1e-12)
    empirical = means.std(axis=0, ddof=1)
    reported = stderrs.mean(axis=0)
    busy = reported > 2e-3  # compare where the band is resolved
    ratio = empirical[busy] / reported[busy]
    assert 0.5 < np.median(ratio) < 2.0


def test_ensemble_converged_in_box_count():
    # halving dt (doubling boxes-1) moves the mean by less than the noise band
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-1.0)
    coarse = ensemble_average(
        TrajectoryConfig.from_params(params, boxes=25, n_trajectories=800,
                                     t_max=5.0, master_seed=5)
    )
    fine = ensemble_average(
        TrajectoryConfig.from_params(params, boxes=49, n_trajectories=800,
                                     t_max=5.0, master_seed=6)
    )
    assert np.allclose(coarse.times, fine.times[::2], rtol=0, atol=1e-12)
    gap = np.abs(coarse.mean - fine.mean[::2])
    band = 3.0 * np.sqrt(coarse.stderr**2 + fine.stderr[::2] ** 2)
    assert np.all(gap <= band + 5e-3)
