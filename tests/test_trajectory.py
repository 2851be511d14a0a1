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
    mirror_coefficients,
    run_trajectory,
    trajectory,
    trajectory_rng,
)
from mirrorqed.trajectory import _evolve


def config_for(tau=1.0, phase=math.pi, r_m=-1.0, boxes=9, n_traj=10, t_max=2.0, seed=7):
    params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)
    return TrajectoryConfig(
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
    ham[1, 1] = config.params.omega_e
    ham[1, 2] = ham[2, 1] = math.sqrt(config.params.gamma / 2 / config.dt)
    ham[1, 2 * n + 1] = ham[2 * n + 1, 1] = math.sqrt(config.params.gamma / 2 / config.dt)
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
        shifted[right_index(n - 1)] = config.params.t_m * state[right_index(n - 2)]
        shifted[left_index(n - 2)] = config.params.r_m * state[right_index(n - 2)]
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


NORM_FLOOR = 1e-300  # below it `advance` has no no-jump state to renormalize


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
    out[i_rout] = config.params.t_m * amps[n]  # transmitted behind the mirror
    out[n + 3] = config.params.r_m * amps[n]  # reflected into left box N-2
    out[n + 4 :] = amps[n + 3 : i_l0]  # left-movers migrate toward the emitter
    norm = np.sqrt(np.sum(np.abs(out) ** 2))
    if norm < NORM_FLOOR:
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
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=-1.0)
    # rejected before dt = tau / (2 (boxes - 1)) divides by zero
    with pytest.raises(ValueError, match="boxes must be >= 2"):
        TrajectoryConfig(params, boxes=1)
    with pytest.raises(ValueError, match="n_trajectories"):
        TrajectoryConfig(params, n_trajectories=0)
    with pytest.raises(ValueError, match="tau"):
        TrajectoryConfig(SystemParams(omega_e=1.0, tau=0.0, r_m=0), boxes=4)


def test_config_rejects_a_step_count_beyond_the_double_range():
    # n_steps = round(t_max / dt) has no integer value at t_max / dt = inf;
    # a huge finite count is rejected too, before any step is taken
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=-1.0)
    with pytest.raises(ValueError, match="t_max / dt must be finite"):
        TrajectoryConfig(params, t_max=1e308)
    with pytest.raises(ValueError, match="t_max / dt must be finite"):
        TrajectoryConfig(SystemParams(omega_e=1.0, tau=1e-307, r_m=-1.0), t_max=10.0)
    with pytest.raises(ValueError, match="at most 2097152 steps"):
        TrajectoryConfig(params, t_max=1e300)


def test_config_bounds_the_step_count():
    # the run keeps ~26 bytes a step, so the count has a fixed ceiling;
    # only the constructor runs here, never a run of that length
    params = SystemParams(omega_e=1.0, tau=1.0, r_m=-1.0)
    dt = TrajectoryConfig(params, boxes=25).dt
    assert TrajectoryConfig(params, boxes=25, t_max=2**21 * dt).n_steps == 2**21
    for t_max in ((2**21 + 1) * dt, 1e15):
        with pytest.raises(ValueError, match="at most 2097152 steps"):
            TrajectoryConfig(params, boxes=25, t_max=t_max)


@pytest.mark.parametrize("boxes", [2**20 + 2, 10**8, 2**80])
def test_config_refuses_more_boxes_than_a_round_trip_in_the_step_cap_before_it_allocates(boxes):
    # the run keeps a ring of 2 N - 3 emissions, ~64 bytes a box, however few
    # steps it takes: N 1e8 at t_max 1e-5 (2000 steps) would need ~6 GB
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=1.0, r_m=-1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"must fit in 2097152 steps, got boxes = {boxes}$"):
            ensemble_average(TrajectoryConfig(params, boxes=boxes, t_max=1e-5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_config_takes_the_most_boxes_whose_round_trip_fits_the_step_cap():
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=1.0, r_m=-1.0)
    config = TrajectoryConfig(params, boxes=2**20 + 1, t_max=1.0)
    assert 2 * (config.boxes - 1) == config.n_steps == 2**21


def config_with(tau=1.0, omega_e=1.0, r_m=0.0, t_max=1.0):
    return TrajectoryConfig(
        SystemParams(omega_e=omega_e, tau=tau, r_m=r_m), boxes=4, n_trajectories=1, t_max=t_max
    )


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("tau", {"tau": math.nan}),
        ("r_m", {"r_m": complex(-0.5, math.nan)}),
        ("r_m", {"r_m": complex(math.nan, -0.5)}),
        ("r_m", {"r_m": math.nan}),
        ("omega_e", {"omega_e": math.nan}),
        ("t_max", {"t_max": math.nan}),
    ],
)
def test_config_rejects_nan(field, overrides):
    with pytest.raises(ValueError, match=field):
        config_with(**overrides)


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("dt", {"tau": math.inf}),
        ("t_max", {"t_max": math.inf}),
        ("omega_e", {"omega_e": math.inf}),
        ("omega_e", {"omega_e": -math.inf}),
    ],
)
def test_config_rejects_infinity(field, overrides):
    # an infinite delay gives an infinite time step, and an infinite step or
    # end time leaves no step grid; an infinite frequency turns every
    # amplitude into NaN after the first step
    with pytest.raises(ValueError, match=f"{field} must be"):
        config_with(**overrides)


def test_config_from_params_geometry():
    config = config_for(tau=1.0, boxes=25)
    assert config.dt == pytest.approx(1.0 / 48.0, rel=1e-15)
    # dt (N - 1) reproduces the emitter-mirror distance tau / 2
    assert config.dt * (config.boxes - 1) == pytest.approx(0.5, rel=1e-15)
    assert config.params.gamma / 2 == 0.5
    assert config.params.t_m == pytest.approx(0.0)
    defaults = TrajectoryConfig(config.params)
    assert (defaults.boxes, defaults.n_trajectories, defaults.t_max, defaults.master_seed) == (
        25, 5000, 10.0, 0
    )


def test_config_transmission_and_couplings_are_not_settable():
    # five fields, all settable: the system and the four ensemble settings;
    # the mirror, the frequency and the couplings (Gamma/2 each) live in
    # params alone, and the step follows from tau and boxes
    fields = [(f.name, f.init) for f in dataclasses.fields(TrajectoryConfig)]
    assert fields == [("params", True), ("boxes", True), ("n_trajectories", True),
                      ("t_max", True), ("master_seed", True)]
    config = config_for(r_m=-0.6)
    assert (config.params.r_m, config.params.t_m) == (-0.6, 0.8)
    other = SystemParams(omega_e=2.0, tau=1.0, r_m=0.0)
    assert dataclasses.replace(config, params=other).params.t_m == 1.0
    for derived in ("dt", "v_right", "v_left", "r_m", "t_m", "omega_e"):
        with pytest.raises(TypeError, match=derived):
            TrajectoryConfig(config.params, **{derived: 0.5})
    for removed in ("v_right", "v_left", "r_m", "t_m", "omega_e", "gamma", "from_params"):
        assert not hasattr(config, removed)
        assert not hasattr(TrajectoryConfig, removed)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.dt = 0.5


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
        config = TrajectoryConfig(params, boxes=int(rng.integers(2, 40)))
        u = build_propagator(config)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12


def test_propagator_trivial_couplings():
    # the emitter couples to (right box 0 + left box 0) / sqrt 2 alone: the
    # difference of the two boxes is untouched at any frequency
    dark = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
    for phase in (0.0, 2.0):
        u = build_propagator(config_for(phase=phase, boxes=5))
        np.testing.assert_allclose(u @ dark, dark, rtol=0, atol=1e-15)


def test_propagator_single_step_decay():
    # one step from |e, 0> at omega_e = 0: survival cos^2 sqrt(Gamma dt),
    # consistent with 1 - Gamma dt at small dt
    params = SystemParams(omega_e=0.0, tau=1.0, r_m=-1.0)
    config = TrajectoryConfig(params, boxes=25)
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


def test_step_mirror_reflection_rule():
    # photon in right box N-2 with r_m = -1: the shift sends -1 into left box
    # N-2 and nothing through the mirror
    config = config_for(r_m=-1.0, boxes=6)
    n = config.boxes
    amps = np.zeros(2 * config.boxes + 2, dtype=complex)
    amps[2 + (n - 2)] = 1.0  # right box N-2
    advanced, p = advance(amps, config, build_propagator(config))
    assert p == 0.0
    assert advanced[n + 3] == pytest.approx(-1.0)  # left box N-2
    assert advanced[n + 1] == 0.0  # right box N-1 (transmission zero)
    assert advanced[n + 2] == 0.0  # left input box stays empty


def test_step_transparent_mirror_then_certain_detection():
    config = config_for(r_m=0.0, boxes=6)
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
    # the same from the emitter: at Gamma dt = (pi/2)^2 one step rotates the
    # excitation into right box 0 and left box 0 in equal parts; the left
    # half is detected in step 0, the right half reaches the output at step
    # N-1 = 5, where detection is certain: the run stops there and every
    # trajectory has ended
    params = SystemParams(omega_e=0.0, tau=5 * math.pi**2 / 2, r_m=0.0)
    config = TrajectoryConfig(params, boxes=6, n_trajectories=50, t_max=50.0, master_seed=1)
    assert config.n_steps == 20
    _, survival = _evolve(config)
    assert survival[0] == 1.0
    np.testing.assert_allclose(survival[1:6], 0.5, rtol=1e-15)
    assert np.all(survival[6:] == 0.0)
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
    excited, survival = _evolve(config)
    dense_excited, dense_p = dense_evolve(config)
    assert survival[-1] > 0.0  # the run did not stop
    np.testing.assert_allclose(excited, dense_excited, rtol=1e-12, atol=0)
    np.testing.assert_allclose(survival[1:], np.cumprod(1.0 - dense_p), rtol=1e-12, atol=0)


@pytest.mark.parametrize("boxes", [2, 3, 9])
def test_recurrence_matches_dense_kernel_across_ring_turns(boxes):
    # the run keeps the last M = 2N - 3 emissions in a ring and checks the
    # norm in flight every max(M, 32) steps: runs of one step, around one and
    # two turns of the ring, and across the first checks, with a mirror that
    # both reflects and transmits
    turn = 2 * boxes - 3
    dt = config_for(boxes=boxes).dt
    for n_steps in sorted({1, turn - 1, turn, turn + 1, 2 * turn, 32, 33, 100} - {0}):
        config = config_for(phase=0.3, r_m=-0.6j, boxes=boxes, t_max=n_steps * dt)
        assert config.n_steps == n_steps
        excited, survival = _evolve(config)
        dense_excited, dense_p = dense_evolve(config)
        assert survival[-1] > 0.0
        np.testing.assert_allclose(excited, dense_excited, rtol=1e-12, atol=0)
        np.testing.assert_allclose(survival[1:], np.cumprod(1.0 - dense_p), rtol=1e-12, atol=0)


# the runs of this file's tests, the README `trajectory` and `compare` runs
# and the bench's fine runs
SURVIVAL_RUNS = [
    pytest.param(config_for(phase=phase, r_m=r_m, boxes=boxes, t_max=4.0),
                 id=f"N{boxes}-phase{phase:.3g}-rm{r_m}")
    for boxes in (2, 3, 9, 25)
    for phase, r_m in [(math.pi, -1.0), (2 * math.pi, -0.5), (1.0, 0.0), (0.3, 0.7)]
] + [
    pytest.param(config_for(phase=math.pi, r_m=-0.5, boxes=25, t_max=10.0),
                 id="readme-trajectory"),
    pytest.param(config_for(phase=2 * math.pi, r_m=-1.0, boxes=25, t_max=10.0),
                 id="readme-compare"),
    pytest.param(config_for(phase=0.3, r_m=mirror_coefficients(1.0)[1], boxes=97, t_max=10.0),
                 id="j-mirror-N97"),
    pytest.param(config_for(phase=math.pi, r_m=-0.5, boxes=100, t_max=1.25), id="fine-N100"),
    pytest.param(config_for(phase=math.pi, r_m=0.0, boxes=5, t_max=2000.0),
                 id="free-space-to-the-stop"),
    pytest.param(TrajectoryConfig(SystemParams(omega_e=0.0, tau=5 * math.pi**2 / 2, r_m=0.0),
                                  boxes=6, t_max=50.0), id="certain-detection"),
]


@pytest.mark.parametrize("config", SURVIVAL_RUNS)
def test_survival_never_rises(config):
    # S is the norm in flight at the end plus a reverse sum of non-negative
    # drops, so it never rises, from S[0] = 1 on: a trajectory undetected at
    # a step (v <= S[k]) is undetected at every step before it
    _, survival = _evolve(config)
    assert survival[0] == 1.0
    assert survival[1] <= 1.0
    assert np.all(np.diff(survival) <= 0.0)


class FixedUniforms:
    """Stands in for the Philox stream: `random(n)` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize(
    "config",
    [
        config_for(phase=math.pi, r_m=-0.5, boxes=9, t_max=4.0),
        config_for(phase=math.pi, r_m=0.0, boxes=5, t_max=2000.0),
        TrajectoryConfig(SystemParams(omega_e=0.0, tau=5 * math.pi**2 / 2, r_m=0.0), boxes=6,
                         t_max=50.0),
    ],
    ids=["decaying", "free-space-to-the-stop", "certain-detection"],
)
def test_ensemble_count_matches_first_detections_at_ties_and_edges(config, monkeypatch):
    # thresholds v = 1 - u exactly at a survival value, one ulp either side
    # of it, and the extremes u = 0 (v = 1) and u = 1 - 2**-53 (v = 2**-53):
    # the ensemble counts at every step the trajectories with v <= S[k]
    excited, survival = _evolve(config)
    live = np.unique(survival[1:][survival[1:] > 0.0])
    v = np.concatenate([live, np.nextafter(live, 0.0), np.nextafter(live, 2.0)])
    v = v[(v <= 1.0) & (1.0 - (1.0 - v) == v)]  # the thresholds some u gives exactly
    ties = np.isin(v, survival[1:]).sum()
    assert ties >= 1
    u = np.concatenate([1.0 - v, [0.0, 1.0 - 2.0**-53]])
    np.random.default_rng(5).shuffle(u)
    monkeypatch.setattr(trajectory, "trajectory_rng", lambda seed, index: FixedUniforms(u))
    n = len(u)
    result = ensemble_average(dataclasses.replace(config, n_trajectories=n))
    undetected = np.array([np.count_nonzero(1.0 - u <= s) for s in survival])
    assert np.array_equal(result.mean, excited * (undetected / n))
    assert np.array_equal(
        result.stderr, excited * np.sqrt(undetected * (n - undetected) / (n - 1)) / n
    )
    assert undetected[0] == n and undetected[-1] < n


def test_no_jump_run_memory_is_a_few_floats_per_step():
    # a trapped run never stops: its 96 000 steps keep |e|^2 (P_e after the
    # run), the drop and S per step, and the last M emissions
    config = config_for(phase=2 * math.pi, r_m=-1.0, boxes=25, t_max=2000.0)
    assert config.n_steps == 96_000
    tracemalloc.start()
    try:
        _, survival = _evolve(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert survival[-1] > 0.0
    assert peak < 64 * config.n_steps


def test_recurrence_matches_oracle_to_1e12_relative():
    # S is the norm in flight at the end plus a reverse sum of the drops;
    # taking it as one minus the weight dropped so far puts P_e off by up to
    # ~1e-6 relative here
    config = config_for(phase=math.pi, r_m=-1.0, boxes=25, t_max=10.0)
    excited, survival = _evolve(config)
    oracle_excited, oracle_p = dense_no_jump_oracle(config, config.n_steps)
    assert config.n_steps == 480
    assert survival[-1] > 0.0
    np.testing.assert_allclose(excited, oracle_excited, rtol=1e-12, atol=0)
    # S at each step start is the chance that no detection came before it
    np.testing.assert_allclose(survival[1:], np.cumprod(1.0 - oracle_p), rtol=1e-12, atol=0)


def test_long_free_space_run_stops_where_the_norm_leaves_the_double_range():
    # S ~ exp(-t) falls below the smallest normal double near t = 708, long
    # after every uniform's threshold v = 1 - u >= 2**-53 has been passed.
    # Up to there each step keeps the no-detection chance 1 - p of the
    # per-step renormalized oracle; from the stop on the run is zero, and so
    # are the ensemble's mean and standard error.
    config = config_for(phase=math.pi, r_m=0.0, boxes=5, n_traj=1000, t_max=2000.0)
    excited, survival = _evolve(config)
    assert config.n_steps == 16000
    oracle_excited, oracle_p = dense_no_jump_oracle(config, config.n_steps)
    stop = np.count_nonzero(survival)
    assert 5000 < stop < 6000
    assert np.all(survival[:stop] >= np.finfo(float).tiny)
    assert np.all(survival[stop:] == 0.0) and np.all(excited[stop:] == 0.0)
    np.testing.assert_allclose(
        survival[1:stop] / survival[: stop - 1], 1.0 - oracle_p[: stop - 1], rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(excited[:stop], oracle_excited[:stop], rtol=1e-12, atol=0)
    # the next step would leave S below the normal range
    assert survival[stop - 1] * (1.0 - oracle_p[stop - 1]) < np.finfo(float).tiny
    result = ensemble_average(config)
    gone = np.nonzero(survival < 2.0**-53)[0][0]
    assert gone < stop
    assert np.all(result.mean[gone:] == 0.0) and np.all(result.stderr[gone:] == 0.0)


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


def test_uniforms_are_multiples_of_2_to_the_minus_53_below_one():
    # the no-jump run stops where S leaves the normal double range; that cuts
    # no trajectory only because every threshold v = 1 - u is at least 2**-53
    for seed in (0, 2**63 + 5):
        u = trajectory_rng(seed, 0).random(2**20)
        scaled = np.ldexp(u, 53)
        assert np.array_equal(scaled, np.floor(scaled))
        assert u.min() >= 0.0
        assert u.max() <= 1.0 - 2.0**-53


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


def test_a_negative_trajectory_index_is_refused():
    # Philox's advance(-1) wraps round the counter, so index -1 read a stream
    # at an arbitrary position and run_trajectory made a trajectory up
    with pytest.raises(ValueError, match="trajectory_index must be non-negative, got -1"):
        trajectory_rng(7, -1)
    with pytest.raises(ValueError, match="trajectory_index must be non-negative, got -1"):
        run_trajectory(config_for(), -1)


def test_run_trajectory_reads_the_ensembles_draw():
    # trajectory i keeps P_e at the steps where its threshold v = 1 - u_i is
    # at most S, u_i uniform i of the ensemble's draw, and is zero elsewhere
    config = config_for(r_m=-0.5, boxes=9, n_traj=8, t_max=4.0, seed=2**64 - 1)
    excited, survival = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(config.n_trajectories)
    rows = [run_trajectory(config, index) for index in range(config.n_trajectories)]
    for row, u_i in zip(rows, u):
        assert np.array_equal(row, np.where(survival >= 1.0 - u_i, excited, 0.0))
    index = 2**32 + 3
    u_i = positioned_uniform(config.master_seed, index)
    row = run_trajectory(config, index)
    assert np.array_equal(row, np.where(survival >= 1.0 - u_i, excited, 0.0))
    lengths = {np.count_nonzero(survival >= 1.0 - u_i) for u_i in u}
    assert len(lengths) > 3


def test_first_detections_at_the_survival_values():
    # v = 1 - u is undetected at the steps k with v <= S[k], so it is first
    # detected at the step k with S[k+1] < v <= S[k]: a v equal to S[k]
    # survives to step k, v = 1 goes at step 0 and v <= S[n_steps] never
    survival = np.array([1.0, 0.75, 0.5, 0.25])
    v = np.array([1.0, 0.75, 0.5 + 2**-53, 0.5, 0.25, 2**-53])
    u = 1.0 - v
    assert np.array_equal(1.0 - u, v)
    assert trajectory._undetected(survival, u).tolist() == [6, 5, 3, 2]
    rows = [trajectory._undetected(survival, u[i : i + 1]) for i in range(len(u))]
    assert [row.tolist() for row in rows] == [
        [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 1],
    ]


def test_first_detections_follow_the_survival():
    # 200 000 waiting times against the law P(first >= k) = S[k]: a chi-square
    # test of the counts per step and the DKW bound on their tail counts, each
    # failing by chance with probability below 1e-9
    config = config_for(r_m=-0.5, boxes=9, n_traj=200_000, t_max=4.0, seed=11)
    n = config.n_trajectories
    _, survival = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(n)
    undetected = trajectory._undetected(survival, u)
    assert np.array_equal(undetected, [np.count_nonzero(1.0 - u <= s) for s in survival])
    # first detected at step k: undetected at k and not at k + 1
    counts = -np.diff(undetected, append=0)
    expected = n * -np.diff(survival, append=0.0)
    assert expected.min() > 5  # every bin is inside the chi-square regime
    statistic = np.sum((counts - expected) ** 2 / expected)
    assert chi2.sf(statistic, df=len(counts) - 1) > 1e-9
    gap = np.max(np.abs(undetected / n - survival))
    assert gap <= math.sqrt(math.log(2 / 1e-9) / (2 * n))


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
    # averaging the rows gave standard errors of 2.9e-16 there.  A step
    # detects about Gamma dt / 2 of the ensemble at first, so with dt 1/198
    # the first steps of 50 trajectories go undetected.
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-0.5)
    config = TrajectoryConfig(params, boxes=100, n_trajectories=50, t_max=1.25, master_seed=1)
    result = ensemble_average(config)
    excited, survival = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(config.n_trajectories)
    none_yet = survival >= np.max(1.0 - u)  # every threshold v = 1 - u is at most S
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
    excited, survival = _evolve(config)
    assert np.array_equal(result.limit, excited * survival)
    # the mean counts the undetected trajectories, a binomial draw of mean
    # n S; five of its standard deviations bound the gap at every step
    band = 5.0 * excited * np.sqrt(survival * (1.0 - survival) / config.n_trajectories)
    assert np.all(np.abs(result.mean - result.limit) <= band + 1e-15)


def test_discretization_error_is_first_order_in_dt():
    # the box model's own error, free of sampling noise, halves with dt; the
    # mirror of coupling J = c, r_m = -0.8i (mirror_coefficients(1)), is
    # reflected with as it is
    _, j_mirror = mirror_coefficients(1.0)
    cases = [
        (math.pi, -1.0, [0.0135, 0.0069, 0.0035], 2e-4),
        (0.3, j_mirror, [0.00412, 0.00210, 0.00106], 2e-5),
    ]
    for phase, r_m, expected, tolerance in cases:
        params = SystemParams.from_round_trip_phase(tau=1.0, phase=phase, r_m=r_m)
        errors = []
        for boxes in (25, 49, 97):
            config = TrajectoryConfig(params, boxes=boxes, n_trajectories=1, t_max=10.0)
            result = ensemble_average(config)
            exact = excitation_probability_exact(params, result.times)
            errors.append(np.max(np.abs(result.limit - exact)))
        assert errors == pytest.approx(expected, abs=tolerance)
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
    config = TrajectoryConfig(params, boxes=25, n_trajectories=n, t_max=5.0, master_seed=2025)
    result = ensemble_average(config)
    excited, _ = _evolve(config)
    dkw = math.sqrt(math.log(2 / 1e-9) / (2 * n))
    assert np.all(np.abs(result.mean - result.limit) <= excited * dkw + 1e-15)
    assert np.max(np.abs(result.limit - np.exp(-result.times))) <= 1.2e-3


def test_ensemble_stderr_scale_and_seed_spread():
    # reported standard error must match the spread across master seeds
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-0.5)
    means = []
    stderrs = []
    for seed in range(10):
        config = TrajectoryConfig(
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
        config = TrajectoryConfig(
            params, boxes=boxes, n_trajectories=n, t_max=5.0, master_seed=seed
        )
        result = ensemble_average(config)
        excited, _ = _evolve(config)
        assert np.all(np.abs(result.mean - result.limit) <= excited * dkw + 1e-15)
        exact = excitation_probability_exact(params, result.times)
        bias.append(np.max(np.abs(result.limit - exact)))
    assert bias[1] / bias[0] <= 0.55


# (tau, phase, r_m, t_max, max error of the extrapolation on (49, 97) boxes)
RICHARDSON_CASES = [
    (1.0, math.pi, -1.0, 10.0, 5.89e-5),
    (1.0, 0.3, -0.8j, 100.0, 1.76e-5),
    (2.0, 2.0, -0.7, 200.0, 7.49e-5),
    (1.0, 1.0, -0.7j, 100.0, 2.61e-5),
    (1.0, 2 * math.pi, -1.0, 100.0, 9.62e-3),  # trapped
]


@pytest.mark.parametrize("tau, phase, r_m, t_max, measured", RICHARDSON_CASES)
def test_box_model_extrapolates_to_the_exact_curve_at_second_order(
    tau, phase, r_m, t_max, measured
):
    # the box model's infinite-ensemble mean is first order in dt; with
    # 2N - 1 boxes dt halves and every second fine time is a coarse time, so
    # 2 limit(2N - 1) - limit(N) is second order: the error falls ~4x per halving
    params = SystemParams.from_round_trip_phase(tau=tau, phase=phase, r_m=r_m)

    def extrapolation_error(boxes):
        coarse, fine = (
            ensemble_average(TrajectoryConfig(params, boxes=n, n_trajectories=1, t_max=t_max))
            for n in (boxes, 2 * boxes - 1)
        )
        assert np.array_equal(fine.times[::2], coarse.times)
        extrapolated = 2 * fine.limit[::2] - coarse.limit
        return np.max(np.abs(extrapolated - excitation_probability_exact(params, coarse.times)))

    error = extrapolation_error(49)
    assert extrapolation_error(25) / error >= 3
    assert measured / 2 <= error <= 2 * measured
