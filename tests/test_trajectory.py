"""Tests for the discrete-space quantum-trajectory Monte Carlo solver."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2

from mirrorqed import (
    SystemParams,
    TrajectoryConfig,
    build_propagator,
    ensemble_average,
    excitation_probability_exact,
    run_trajectory,
    trajectory,
    trajectory_rng,
)
from mirrorqed.trajectory import NormUnderflow, _evolve


def config_for(tau=1.0, phase=math.pi, r_m=-1.0, boxes=9, n_traj=10, t_max=2.0, seed=7):
    params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
    return TrajectoryConfig.from_params(
        params, boxes=boxes, n_trajectories=n_traj, t_max=t_max, master_seed=seed
    )


def dense_no_jump_oracle(config, n_steps):
    """Deterministic no-detection evolution, built independently.

    Uses the full (2N+2)-dimensional Hamiltonian exponentiated with
    scipy.linalg.expm and an index-by-index box shift.  Returns P_e at every
    step start and the detection probability of every step: the weight in
    the two output boxes after the coherent part of the step.
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
    detection = []
    for _ in range(n_steps):
        state = unitary @ state
        detection.append(abs(state[right_index(n - 1)]) ** 2 + abs(state[left_index(0)]) ** 2)
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
    return np.array(series), np.array(detection)


def initial_state(config):
    """|e, 0> as a dense state vector, ordered as in `dense_no_jump_oracle`:
    [vacuum, excited, right boxes 0..N-1, left boxes N-1..0]."""
    amps = np.zeros(2 * config.boxes + 2, dtype=complex)
    amps[1] = 1.0
    return amps


def advance(amps, config, u):
    """One no-jump step of the dense state vector, shape (2N+2,).

    Coherent evolution of the active triple (excited, right box 0, left box
    0) by the 3x3 step unitary u, the detection probability p in the two output boxes, the box shift
    with mirror transmission/reflection, and renormalization.  Returns the
    advanced state (None when its norm falls below the floor) and p; `amps`
    itself is left unchanged.  A second dense reference for the scalar
    recurrence of `_evolve`.
    """
    n = config.boxes
    i_l0 = 2 * n + 1  # left box 0: at the emitter, also the left output
    i_rout = n + 1  # right box N-1: behind the mirror, the right output
    amps = amps.copy()
    active = [1, 2, i_l0]
    e, r0, l0 = amps[active]
    amps[active] = u[:, 0] * e + u[:, 1] * r0 + u[:, 2] * l0
    p_right, p_left = np.abs(amps[[i_rout, i_l0]]) ** 2
    out = np.zeros_like(amps)
    out[1] = amps[1]
    out[3 : n + 1] = amps[2:n]  # right-movers migrate; vacuum enters box 0
    out[i_rout] = config.t_m * amps[n]  # transmitted behind the mirror
    out[n + 3] = config.r_m * amps[n]  # reflected into left box N-2
    out[n + 4 :] = amps[n + 3 : i_l0]  # left-movers migrate toward the emitter
    norm = np.sqrt(np.sum(np.abs(out) ** 2))
    if norm < trajectory._NORM_FLOOR:
        return None, p_right + p_left
    return out / norm, p_right + p_left


def dense_evolve(config):
    """P_e at every step start and p of every step, stepping `advance`."""
    propagator = build_propagator(config)
    amps = initial_state(config)
    excited, detection = [1.0], []
    for _ in range(config.n_steps):
        amps, p = advance(amps, config, propagator)
        detection.append(p)
        excited.append(abs(amps[1]) ** 2)
    return np.array(excited), np.array(detection)


def ulp_gap(a, b):
    """Largest distance between a and b in units in the last place."""
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.max(np.where(a == b, 0.0, np.abs(a - b) / spacing))


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


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("dt", {"dt": math.inf}),
        ("t_max", {"t_max": math.inf}),
        ("omega_e", {"omega_e": math.inf}),
        ("omega_e", {"omega_e": -math.inf}),
    ],
)
def test_config_rejects_infinity(field, overrides):
    # an infinite time step or end time leaves no step grid, and an infinite
    # frequency turns every amplitude into NaN after the first step
    kwargs = dict(
        boxes=4, dt=0.1, v_right=0.5, v_left=0.5, r_m=0.0, omega_e=1.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrajectoryConfig(**{**kwargs, **overrides})
    # an infinite delay gives an infinite time step
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        TrajectoryConfig.from_params(SystemParams(omega_e=1.0, tau=math.inf, r_m=-1.0))


@pytest.mark.parametrize("coupling", ["v_right", "v_left"])
def test_config_rejects_infinite_couplings(coupling):
    # an infinite rate used to give a NaN mean and a RuntimeWarning
    kwargs = dict(
        boxes=4, dt=0.1, v_right=0.5, v_left=0.5, r_m=0.0, omega_e=1.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    with pytest.raises(ValueError, match="non-negative and finite"):
        TrajectoryConfig(**{**kwargs, coupling: math.inf})


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
    amps = initial_state(config)
    assert amps.shape == (2 * config.boxes + 2,)
    assert amps[1] == 1.0
    assert np.linalg.norm(amps) == 1.0
    assert np.abs(amps[1]) ** 2 == 1.0
    assert amps[0] == 0.0  # the no-jump state never holds the vacuum


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
        u = build_propagator(config)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12


def test_propagator_trivial_couplings():
    config = TrajectoryConfig(
        boxes=5, dt=0.1, v_right=0.0, v_left=0.0, r_m=0.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    assert np.allclose(build_propagator(config), np.eye(3), atol=1e-15)
    config_phase = TrajectoryConfig(
        boxes=5, dt=0.1, v_right=0.0, v_left=0.0, r_m=0.0, omega_e=2.0,
        n_trajectories=1, t_max=1.0, master_seed=0,
    )
    u = build_propagator(config_phase)
    assert u[0, 0] == pytest.approx(np.exp(-0.2j), abs=1e-14)
    assert u[1, 1] == u[2, 2] == 1.0


def test_propagator_single_step_decay():
    # one step from |e, 0> at omega_e = 0: survival cos^2 sqrt(Gamma dt),
    # consistent with 1 - Gamma dt at small dt
    params = SystemParams(omega_e=0.0, tau=1.0, r_m=-1.0)
    config = TrajectoryConfig.from_params(params, boxes=25)
    propagator = build_propagator(config)
    evolved = propagator @ np.array([1.0, 0.0, 0.0], dtype=complex)
    survival = abs(evolved[0]) ** 2
    assert survival == pytest.approx(math.cos(math.sqrt(config.dt)) ** 2, abs=1e-12)
    assert survival == pytest.approx(1.0 - config.dt, abs=config.dt**2)


def test_propagator_identity_off_active_subspace():
    config = config_for(boxes=8, r_m=-0.3)
    rng = np.random.default_rng(8)
    # photon amplitude spread over interior boxes only: the coherent part of a
    # step must not touch it (the outputs are empty, so p = 0)
    amps = np.zeros(2 * config.boxes + 2, dtype=complex)
    interior = [4, 5, 6, 12, 13]  # right boxes 2..4 and left boxes 5..4 for N = 8
    amps[interior] = rng.normal(size=len(interior)) + 1j * rng.normal(size=len(interior))
    amps /= np.linalg.norm(amps)
    before = amps.copy()
    advanced, p = advance(amps, config, build_propagator(config))
    assert p == 0.0
    assert np.array_equal(amps, before)  # the kernel leaves its input alone
    # contents moved by exactly one box, no amplitude created or changed
    n = config.boxes
    for idx in interior:
        if 2 <= idx <= n:  # right-movers shift up in index
            assert advanced[idx + 1] == pytest.approx(before[idx], abs=1e-14)
        elif n + 3 <= idx <= 2 * n:  # left-movers shift up in index too
            assert advanced[idx + 1] == pytest.approx(before[idx], abs=1e-14)


# ---------------------------------------------------------------------------
# Step semantics
# ---------------------------------------------------------------------------


def test_step_noop_without_couplings_or_photon():
    config = TrajectoryConfig(
        boxes=6, dt=0.05, v_right=0.0, v_left=0.0, r_m=-1.0, omega_e=0.0,
        n_trajectories=200, t_max=1.0, master_seed=1,
    )
    amps = initial_state(config)
    advanced, p = advance(amps, config, build_propagator(config))
    assert p == 0.0
    assert np.array_equal(advanced, amps)
    # the survival stays 1 and a threshold v = 1 - u lies in (0, 1], so no
    # trajectory is ever detected: every trajectory stays excited
    result = ensemble_average(config)
    assert np.all(result.mean == 1.0)
    assert np.all(result.stderr == 0.0)


def test_step_mirror_reflection_rule():
    # photon in right box N-2 with r_m = -1: the shift sends -1 into left box
    # N-2 and nothing through the mirror
    config = TrajectoryConfig(
        boxes=6, dt=0.05, v_right=0.0, v_left=0.0, r_m=-1.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=1,
    )
    n = config.boxes
    amps = np.zeros(2 * config.boxes + 2, dtype=complex)
    amps[2 + (n - 2)] = 1.0  # right box N-2
    advanced, p = advance(amps, config, build_propagator(config))
    assert p == 0.0
    assert advanced[n + 3] == pytest.approx(-1.0)  # left box N-2
    assert advanced[n + 1] == 0.0  # right box N-1 (transmission zero)
    assert advanced[n + 2] == 0.0  # left input box stays empty


def test_step_transparent_mirror_then_certain_detection():
    config = TrajectoryConfig(
        boxes=6, dt=0.05, v_right=0.0, v_left=0.0, r_m=0.0, omega_e=0.0,
        n_trajectories=1, t_max=1.0, master_seed=1,
    )
    n = config.boxes
    propagator = build_propagator(config)
    amps = np.zeros(2 * config.boxes + 2, dtype=complex)
    amps[2 + (n - 2)] = 1.0
    amps, p = advance(amps, config, propagator)
    assert p == 0.0
    assert amps[n + 1] == pytest.approx(1.0)  # right box N-1, t_m = 1
    # the output box now holds the whole excitation: detection is certain
    # and no no-jump state is left
    amps, p = advance(amps, config, propagator)
    assert p == 1.0
    assert amps is None
    # the same from the emitter: a pi/2 rotation per step moves the excitation
    # into right box 0, and it reaches the output at step N-1 = 5 with p = 1
    # exactly; every trajectory ends there and none raises NormUnderflow
    dt = 0.05
    config = TrajectoryConfig(
        boxes=6, dt=dt, v_right=(math.pi / 2) ** 2 / dt, v_left=0.0, r_m=0.0,
        omega_e=0.0, n_trajectories=50, t_max=1.0, master_seed=1,
    )
    _, survival, completed, tail = _evolve(config)
    assert completed == 5
    # nothing reaches an output before step 5, and nothing is left after it
    np.testing.assert_allclose(survival[:6], 1.0, rtol=1e-15)
    assert np.all(survival[6:] == 0.0)
    assert tail == 0.0
    result = ensemble_average(config)
    assert np.all(result.mean[6:] == 0.0)
    assert np.all(result.stderr[6:] == 0.0)
    for index in range(config.n_trajectories):
        row = run_trajectory(config, index)
        assert np.all(row[6:] == 0.0)


def test_step_norm_and_empty_input_box_every_step():
    config = config_for(tau=1.0, phase=math.pi, r_m=-0.5, boxes=9, t_max=3.0, seed=3)
    propagator = build_propagator(config)
    amps = initial_state(config)
    for _ in range(config.n_steps):
        amps, _ = advance(amps, config, propagator)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        assert amps[config.boxes + 2] == 0.0  # left input box N-1


def test_advance_norm_underflow_guard():
    config = config_for(boxes=5)
    amps = np.zeros(2 * config.boxes + 2, dtype=complex)
    amps[config.boxes + 1] = 1.0  # everything in an output box
    # the no-jump branch is empty: the kernel returns no state rather than
    # dividing by a vanishing norm
    advanced, p = advance(amps, config, build_propagator(config))
    assert advanced is None
    assert p == 1.0


# ---------------------------------------------------------------------------
# The no-jump run as a scalar delay recurrence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("boxes", [2, 3, 9, 25])
@pytest.mark.parametrize(
    "phase, r_m", [(math.pi, -1.0), (2 * math.pi, -0.5), (1.0, 0.0), (0.3, 0.7)]
)
def test_recurrence_matches_dense_kernel(boxes, phase, r_m):
    config = config_for(phase=phase, r_m=r_m, boxes=boxes, t_max=4.0)
    excited, survival, completed, tail = _evolve(config)
    dense_excited, dense_p = dense_evolve(config)
    assert (completed, tail) == (config.n_steps, 0.0)
    np.testing.assert_allclose(excited, dense_excited, rtol=1e-12, atol=0)
    np.testing.assert_allclose(survival[1:], np.cumprod(1.0 - dense_p), rtol=1e-12, atol=0)


def test_recurrence_matches_oracle_to_1e12_relative():
    # S is summed over e and every box in flight; taking it as one minus the
    # weight dropped so far puts P_e off by up to ~1e-6 relative here
    config = config_for(phase=math.pi, r_m=-1.0, boxes=25, t_max=10.0)
    excited, survival, completed, _ = _evolve(config)
    oracle_excited, oracle_p = dense_no_jump_oracle(config, config.n_steps)
    assert completed == config.n_steps == 480
    np.testing.assert_allclose(excited, oracle_excited, rtol=1e-12, atol=0)
    # S at each step start is the chance that no detection came before it
    np.testing.assert_allclose(survival[1:], np.cumprod(1.0 - oracle_p), rtol=1e-12, atol=0)


def test_long_free_space_run_rescales_instead_of_underflowing():
    # |e|^2 ~ exp(-t) falls below the smallest double near t = 745; the
    # power-of-two rescaling keeps P_e = |e|^2 / S on the per-step
    # renormalized oracle to the end
    config = config_for(phase=math.pi, r_m=0.0, boxes=5, t_max=2000.0)
    excited, survival, completed, _ = _evolve(config)
    assert completed == config.n_steps == 16000
    assert math.exp(-config.t_max) == 0.0
    oracle_excited, oracle_p = dense_no_jump_oracle(config, config.n_steps)
    np.testing.assert_allclose(excited, oracle_excited, rtol=1e-12, atol=0)
    assert excited[-1] > 0.5
    # the survival itself is an unscaled probability and underflows to zero;
    # where it is a normal double each step keeps the no-detection chance
    # 1 - p of the oracle's step
    assert survival[-1] == 0.0 < survival[len(survival) // 4]
    normal = survival[1:] >= np.finfo(float).tiny
    np.testing.assert_allclose(
        survival[1:][normal] / survival[:-1][normal], 1.0 - oracle_p[normal],
        rtol=1e-12, atol=0,
    )


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
    # a stream read as one block or one pair at a time gives the same numbers
    block = trajectory_rng(99, 3).random((17, 2))
    rng = trajectory_rng(99, 3)
    sequential = np.array([rng.random(2) for _ in range(17)])
    assert np.array_equal(block, sequential)


def positioned_uniform(seed, index):
    """Uniform `index` of the Philox stream keyed by seed mod 2**64, read by
    writing its counter block into a fresh state rather than by `advance`."""
    bit_generator = np.random.Philox(key=seed % 2**64)
    state = bit_generator.state
    state["state"]["counter"] = np.array([index // 4, 0, 0, 0], dtype=np.uint64)
    bit_generator.state = state
    return np.random.Generator(bit_generator).random(index % 4 + 1)[-1]


def test_trajectory_rng_starts_at_uniform_i_of_the_seed_stream():
    # trajectory i reads uniform i of one stream; Philox makes four per
    # counter block, so indices 0..7 cross a block boundary
    for seed in (0, 2**63 + 5, 2**64 - 1, -1):
        stream = np.random.Generator(np.random.Philox(key=seed % 2**64)).random(8)
        for index in range(8):
            assert trajectory_rng(seed, index).random() == stream[index]
            assert positioned_uniform(seed, index) == stream[index]
        index = 2**32 + 3
        assert trajectory_rng(seed, index).random() == positioned_uniform(seed, index)
        # reading on from trajectory i gives the draws of trajectories i + 1, ...
        assert np.array_equal(trajectory_rng(seed, 3).random(5), stream[3:])


def test_run_trajectory_reads_the_ensembles_draw():
    config = config_for(r_m=-0.5, boxes=9, n_traj=8, t_max=4.0, seed=2**64 - 1)
    excited, survival, completed, tail = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(config.n_trajectories)
    steps = np.arange(config.n_steps + 1)
    firsts = trajectory._first_detections(survival, completed, tail, u)
    for index, first in enumerate(firsts):
        row = run_trajectory(config, index)
        assert np.array_equal(row, np.where(steps <= first, excited, 0.0))
    index = 2**32 + 3
    u = np.array([positioned_uniform(config.master_seed, index)])
    (first,) = trajectory._first_detections(survival, completed, tail, u)
    row = run_trajectory(config, index)
    assert np.array_equal(row, np.where(steps <= first, excited, 0.0))
    assert len(set(firsts)) > 3


def test_first_detections_at_the_survival_values():
    # v = 1 - u is detected at the step k with S[k+1] < v <= S[k]: a v equal
    # to S[k] survives to step k, v = 1 goes at step 0 and v <= S[n_steps]
    # never; a survival lifted by an ulp counts as its running minimum
    survival = np.array([1.0, 0.75, 0.5, 0.5 + 2**-53, 0.25])
    v = np.array([1.0, 0.75, 0.5 + 2**-53, 0.5, 0.25, 2**-53])
    first = trajectory._first_detections(survival, 4, 0.0, 1.0 - v)
    assert first.tolist() == [0, 1, 1, 3, 4, 4]
    with pytest.raises(NormUnderflow, match="at step 2 with 2 trajectories"):
        trajectory._first_detections(survival, 2, 0.25, 1.0 - v)


def test_first_detections_follow_the_survival():
    # 200 000 waiting times against the law P(first >= k) = S[k]: a chi-square
    # test of the counts per step and the DKW bound on their tail counts, each
    # failing by chance with probability below 1e-9
    config = config_for(r_m=-0.5, boxes=9, n_traj=200_000, t_max=4.0, seed=11)
    n = config.n_trajectories
    _, survival, completed, tail = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(n)
    first = trajectory._first_detections(survival, completed, tail, u)
    counts = np.bincount(first, minlength=config.n_steps + 1)
    expected = n * -np.diff(survival, append=0.0)
    assert expected.min() > 5  # every bin is inside the chi-square regime
    statistic = np.sum((counts - expected) ** 2 / expected)
    assert chi2.sf(statistic, df=len(counts) - 1) > 1e-9
    undetected = np.cumsum(counts[::-1])[::-1] / n
    assert np.max(np.abs(undetected - survival)) <= math.sqrt(math.log(2 / 1e-9) / (2 * n))


def test_trajectory_follows_no_jump_oracle_until_detection():
    config = config_for(tau=1.0, phase=math.pi, r_m=0.0, boxes=9, t_max=4.0, seed=21)
    oracle, _ = dense_no_jump_oracle(config, config.n_steps)
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


def test_detection_falls_where_the_oracle_probability_says():
    # trajectory i with threshold v = 1 - u, u its uniform, is first detected
    # at the step k with S[k+1] < v <= S[k], S the survival of the
    # independent oracle: the product of 1 - p over the steps before k
    base = config_for(tau=1.0, phase=math.pi, r_m=-0.5, boxes=9, t_max=4.0)
    _, p_oracle = dense_no_jump_oracle(base, base.n_steps)
    survival = np.concatenate([[1.0], np.cumprod(1.0 - p_oracle)])
    firsts = []
    for seed in (0, 3, 2**63 + 5, 2**64 - 1):
        config = dataclasses.replace(base, master_seed=seed)
        for index in (0, 1, 6, 2**32 + 3):
            v = 1.0 - trajectory_rng(seed, index).random()
            if np.any(np.abs(v - survival) < 1e-9):
                continue  # too close to call against an independent S
            first = np.count_nonzero(survival[1:] >= v)
            row = run_trajectory(config, index)
            assert row[first] > 0.0
            assert np.all(row[first + 1 :] == 0.0)
            firsts.append(first)
    assert len(set(firsts)) > 5  # detections spread over many steps


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


def test_ensemble_single_trajectory_matches_run_trajectory():
    config = config_for(boxes=9, n_traj=1, t_max=3.0, seed=11)
    result = ensemble_average(config)
    assert np.array_equal(result.mean, run_trajectory(config, 0))
    assert np.all(result.stderr == 0.0)


def test_ensemble_rows_match_individual_trajectories():
    def check(config):
        result = ensemble_average(config)
        n = config.n_trajectories
        stacked = np.stack([run_trajectory(config, i) for i in range(n)])
        # column k holds P_e[k] in every row not yet detected and 0 elsewhere
        excited = stacked.max(axis=0)
        assert np.all((stacked == 0.0) | (stacked == excited))
        undetected = np.count_nonzero(stacked, axis=0)
        assert np.array_equal(result.mean, excited * (undetected / n))
        assert np.array_equal(
            result.stderr, excited * np.sqrt(undetected * (n - undetected) / (n - 1)) / n
        )
        # the sample mean and deviation of the rows carry their own rounding:
        # up to 10 ulp on these runs, and a standard error ~1e-16 where every
        # row is the same and the count formula gives exactly 0
        assert ulp_gap(result.mean, stacked.mean(axis=0)) <= 32
        std = stacked.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(std[undetected == n] < 1e-15)
        np.testing.assert_allclose(
            result.stderr[undetected < n], std[undetected < n], rtol=1e-13, atol=0
        )

    check(config_for(boxes=7, n_traj=5, t_max=2.0, seed=31))
    check(config_for(phase=2 * math.pi, boxes=25, n_traj=40, t_max=10.0, seed=2**63 + 5))
    check(config_for(r_m=-0.5, boxes=9, n_traj=21, t_max=33 / 16, seed=2**63 + 5))


def test_ensemble_is_exact_where_no_trajectory_is_detected():
    # the mean of n equal rows is P_e itself and their spread exactly zero;
    # averaging the rows gave standard errors of 2.9e-16 there.  With no
    # left-moving coupling nothing reaches an output before step N - 1, so
    # every seed leaves the first steps undetected.
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-0.5)
    config = TrajectoryConfig.from_params(
        params, boxes=100, n_trajectories=300, t_max=1.25, master_seed=1,
        v_right=1.0, v_left=0.0,
    )
    result = ensemble_average(config)
    excited, survival, completed, tail = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(config.n_trajectories)
    first = trajectory._first_detections(survival, completed, tail, u)
    none_yet = np.arange(config.n_steps + 1) <= first.min()
    assert np.count_nonzero(none_yet) > 1
    assert np.array_equal(result.mean[none_yet], excited[none_yet])
    assert np.all(result.stderr[none_yet] == 0.0)
    assert np.all(result.stderr[~none_yet] > 0.0)


def test_ensemble_memory_does_not_scale_with_trajectories_times_steps():
    # a (5000, 961) samples matrix alone takes 38 MB; reducing it peaked at 78 MB
    config = config_for(phase=2 * math.pi, r_m=-1.0, boxes=25, n_traj=5000, t_max=20.0, seed=1)
    assert config.n_steps == 960
    tracemalloc.start()
    try:
        ensemble_average(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_limit_is_the_infinite_ensemble_mean():
    config = config_for(phase=math.pi, r_m=-0.5, boxes=9, n_traj=4000, t_max=4.0, seed=5)
    result = ensemble_average(config)
    excited, survival, _, _ = _evolve(config)
    assert np.array_equal(result.limit, excited * survival)
    # the mean counts the undetected trajectories, a binomial draw of mean
    # n S; five of its standard deviations bound the gap at every step
    band = 5.0 * excited * np.sqrt(survival * (1.0 - survival) / config.n_trajectories)
    assert np.all(np.abs(result.mean - result.limit) <= band + 1e-15)


def test_discretization_error_is_first_order_in_dt():
    # the box model's own error, free of sampling noise, halves with dt
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-1.0)
    errors = []
    for boxes in (25, 49, 97):
        config = TrajectoryConfig.from_params(params, boxes=boxes, n_trajectories=1, t_max=10.0)
        result = ensemble_average(config)
        exact = excitation_probability_exact(params, result.times)
        errors.append(np.max(np.abs(result.limit - exact)))
    assert errors == pytest.approx([0.0135, 0.0069, 0.0035], abs=2e-4)
    assert 1.9 < errors[0] / errors[1] < 2.1
    assert 1.9 < errors[1] / errors[2] < 2.1


def test_ensemble_without_steps_is_the_initial_state():
    config = config_for(boxes=2, n_traj=10, t_max=0.2)  # dt = 0.5: no step fits
    assert config.n_steps == 0
    result = ensemble_average(config)
    assert np.array_equal(result.times, [0.0])
    assert np.array_equal(result.mean, [1.0])
    assert np.array_equal(result.stderr, [0.0])


def test_ensemble_free_space_tracks_exponential():
    # two separate bounds: the sampling error |mean - limit| is P_e times the
    # gap between the empirical and the true survival, which the DKW
    # inequality bounds at every step at once, failing by chance with
    # probability below 1e-9; the box model's own bias |limit - exp(-t)| is
    # deterministic and measured at 1.15e-3 here
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=0.0)
    n = 200_000
    config = TrajectoryConfig.from_params(
        params, boxes=25, n_trajectories=n, t_max=5.0, master_seed=2025
    )
    result = ensemble_average(config)
    excited, _, _, _ = _evolve(config)
    dkw = math.sqrt(math.log(2 / 1e-9) / (2 * n))
    assert np.all(np.abs(result.mean - result.limit) <= excited * dkw + 1e-15)
    assert np.max(np.abs(result.limit - np.exp(-result.times))) <= 1.2e-3


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
    # halving dt (doubling boxes - 1) halves the box model's own bias against
    # the exact curve, which is deterministic (0.01355 at N 25, 0.00687 at
    # N 49); the sampling error |mean - limit| of each ensemble is bounded
    # separately by the DKW band, which fails by chance below 1e-9
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-1.0)
    n = 800
    dkw = math.sqrt(math.log(2 / 1e-9) / (2 * n))
    bias = []
    for boxes, seed in ((25, 5), (49, 6)):
        config = TrajectoryConfig.from_params(
            params, boxes=boxes, n_trajectories=n, t_max=5.0, master_seed=seed
        )
        result = ensemble_average(config)
        excited, _, _, _ = _evolve(config)
        assert np.all(np.abs(result.mean - result.limit) <= excited * dkw + 1e-15)
        exact = excitation_probability_exact(params, result.times)
        bias.append(np.max(np.abs(result.limit - exact)))
    assert bias[1] / bias[0] <= 0.55
