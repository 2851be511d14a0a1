"""Discrete-space quantum-trajectory Monte Carlo for the emitter-mirror system.

The waveguide around the emitter is discretized into N right-moving and N
left-moving boxes of temporal width dt, as in the time-delay box model of
Pichler & Zoller, PRL 116, 093601 (2016).  The emitter couples to box 0 of
each direction; the mirror sits between right boxes N-2 and N-1, so dt (N-1)
is the emitter-mirror distance and one round trip takes 2 (N-1) steps.  The
state vector has 2N+2 amplitudes ordered as

    [vacuum, excited, right boxes 0..N-1, left boxes N-1..0],

and each time step applies: (1) record P_e, (2) coherent evolution under the
emitter + local-coupling Hamiltonian, (3) simulated photon-number measurement
on the output boxes (right box N-1 behind the mirror, left box 0 past the
emitter), (4) box shift with mirror transmission/reflection, (5)
renormalization.  Amplitudes shifted past the output boxes leave the
simulated region, which maps them onto the vacuum basis state.

With a single excitation a detection leaves the vacuum for good, so all
trajectories share one deterministic no-jump evolution until their first
detection.  The ensemble is that evolution, run once, plus one waiting time
per trajectory: the waiting-time form of quantum jumps (Dalibard, Castin &
Molmer, PRL 68, 580 (1992)).  Averaging the trajectories reproduces the
open-system dynamics and serves as an independent check of the exact
analytic solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SystemParams

_NORM_FLOOR = 1e-300
# Bytes of uniforms ensemble_average draws per block of trajectories: enough
# rows to amortize the per-block array calls, small next to the samples matrix.
_DRAW_BLOCK_BYTES = 256 * 1024


class NormUnderflow(ArithmeticError):
    """State norm collapsed below 1e-300 before renormalization."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Discretization, coupling, and ensemble settings for trajectory runs.

    Attributes:
        boxes: Number N of boxes per direction (>= 2); fixes dt through the
            emitter-mirror distance dt (N-1) = tau/2.
        dt: Time step (units of 1/Gamma).
        v_right: Coupling rate into the right-moving channel.
        v_left: Coupling rate into the left-moving channel;
            v_right + v_left is the total decay rate Gamma.
        r_m: Real mirror reflection coefficient in [-1, 1].
        t_m: Mirror transmission sqrt(1 - r_m^2).
        omega_e: Emitter transition frequency (lab frame; enters as a phase
            on the excited amplitude).
        n_trajectories: Ensemble size.
        t_max: End time of each trajectory.
        master_seed: 64-bit seed; trajectory i uses the Philox stream keyed
            by (master_seed, i).
    """

    boxes: int
    dt: float
    v_right: float
    v_left: float
    r_m: float
    omega_e: float
    n_trajectories: int
    t_max: float
    master_seed: int
    t_m: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.boxes < 2:
            raise ValueError(f"boxes must be >= 2, got {self.boxes}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.v_right >= 0 and self.v_left >= 0):
            raise ValueError("coupling rates v_right/v_left must be non-negative")
        if not -1.0 <= self.r_m <= 1.0:
            raise ValueError(f"r_m must be real in [-1, 1], got {self.r_m}")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        if math.isnan(self.omega_e):
            raise ValueError("omega_e must not be nan")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.t_m is None:
            object.__setattr__(self, "t_m", math.sqrt(max(0.0, 1.0 - self.r_m**2)))
        elif not abs(self.t_m**2 + self.r_m**2 - 1.0) <= 1e-9:
            raise ValueError(
                f"mirror must be unitary: t_m^2 + r_m^2 = {self.t_m**2 + self.r_m**2}"
            )

    @classmethod
    def from_params(
        cls,
        params: SystemParams,
        boxes: int = 25,
        n_trajectories: int = 5000,
        t_max: float = 10.0,
        master_seed: int = 0,
        v_right: float | None = None,
        v_left: float | None = None,
    ) -> "TrajectoryConfig":
        """Derive a trajectory configuration from the analytic system parameters.

        dt = tau / (2 (N-1)) reproduces the emitter-mirror distance exactly;
        the couplings default to the symmetric split v_right = v_left =
        Gamma/2.  Requires tau > 0 and an (effectively) real r_m.
        """
        if params.tau <= 0:
            raise ValueError("trajectory discretization requires tau > 0")
        if boxes < 2:  # checked before dt divides by boxes - 1
            raise ValueError(f"boxes must be >= 2, got {boxes}")
        if abs(complex(params.r_m).imag) > 1e-12:
            raise ValueError("trajectory mirror rule requires real r_m")
        if v_right is None and v_left is None:
            v_right = v_left = params.gamma / 2.0
        elif v_right is None or v_left is None:
            raise ValueError("give both v_right and v_left or neither")
        return cls(
            boxes=boxes,
            dt=params.tau / (2.0 * (boxes - 1)),
            v_right=v_right,
            v_left=v_left,
            r_m=float(complex(params.r_m).real),
            omega_e=params.omega_e,
            n_trajectories=n_trajectories,
            t_max=t_max,
            master_seed=master_seed,
        )

    @property
    def gamma(self) -> float:
        return self.v_right + self.v_left

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def state_size(self) -> int:
        return 2 * self.boxes + 2


@dataclass(frozen=True)
class Propagator:
    """One-step unitary exp(-i (H_S + H_I) dt), stored as its 3x3 active block.

    H_S + H_I acts as the identity outside span{excited, right box 0,
    left box 0}; on that subspace it is Hermitian with diagonal
    (omega_e, 0, 0) and couplings sqrt(v/dt).
    """

    matrix: np.ndarray
    boxes: int


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble-averaged excitation probability with its standard error."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_trajectories: int


def build_propagator(config: TrajectoryConfig) -> Propagator:
    """Exponentiate the active 3x3 block of H_S + H_I via eigendecomposition."""
    g_right = math.sqrt(config.v_right / config.dt)
    g_left = math.sqrt(config.v_left / config.dt)
    block = np.array(
        [
            [config.omega_e, g_right, g_left],
            [g_right, 0.0, 0.0],
            [g_left, 0.0, 0.0],
        ]
    )
    eigvals, eigvecs = np.linalg.eigh(block)
    matrix = (eigvecs * np.exp(-1j * eigvals * config.dt)) @ eigvecs.T
    return Propagator(matrix=matrix, boxes=config.boxes)


def _stream_start(master_seed: int, trajectory_index: int) -> dict:
    """`np.random.Philox` state at the start of stream (master_seed, index).

    The key is the pair (master_seed, trajectory_index), each taken mod
    2**64; the counter is 0 and the buffer empty, as in a freshly keyed
    Philox.  Assigning it to a generator's `bit_generator.state` re-keys that
    generator, so one generator can read any number of streams.
    """
    key = (master_seed & 0xFFFFFFFFFFFFFFFF, trajectory_index & 0xFFFFFFFFFFFFFFFF)
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def trajectory_rng(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Counter-based RNG stream for one trajectory.

    The stream is the Philox generator keyed by (master_seed, trajectory
    index), so any trajectory can be reproduced in isolation and ensembles
    are independent of execution order.  Each step consumes exactly two
    uniforms (the second is drawn even when no detection occurs).
    `ensemble_average` builds one such generator and re-keys it to the start
    of every index in turn, which yields the same numbers.
    """
    generator = np.random.Generator(np.random.Philox(key=0))
    generator.bit_generator.state = _stream_start(master_seed, trajectory_index)
    return generator


def _initial_state(config: TrajectoryConfig) -> np.ndarray:
    """One-row batch holding |e, 0>: emitter excited, field vacuum."""
    amps = np.zeros((1, config.state_size), dtype=complex)
    amps[0, 1] = 1.0
    return amps


def _detection_draws(config: TrajectoryConfig, trajectory_index: int) -> np.ndarray:
    """Detection thresholds eps1[k] in (0, 1] of one trajectory, one per step.

    The trajectory's stream is read as one (n_steps, 2) block.  The first
    uniform u of each step gives eps1 = 1 - u, so a zero-probability event
    can never fire.  The second would pick the detection channel, which does
    not alter the post-step state; it is drawn only to keep the layout fixed.
    """
    draws = trajectory_rng(config.master_seed, trajectory_index).random((config.n_steps, 2))
    return 1.0 - draws[:, 0]


def _advance(
    amps: np.ndarray,
    config: TrajectoryConfig,
    propagator: Propagator,
    eps1: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply algorithm steps (2)-(5) to a batch of states, shape (..., 2N+2).

    A row is detected iff eps1 <= p, its probability of a photon detection in
    this step, and a detected row becomes the vacuum state.  Returns the
    advanced batch and p; `amps` itself is left unchanged.
    """
    n = config.boxes
    i_l0 = 2 * n + 1  # left box 0: at the emitter, also the left output
    i_rout = n + 1  # right box N-1: behind the mirror, the right output
    amps = amps.copy()

    # (2) coherent evolution on the active triple
    u = propagator.matrix
    e, r0, l0 = amps[..., 1].copy(), amps[..., 2].copy(), amps[..., i_l0].copy()
    amps[..., 1] = u[0, 0] * e + u[0, 1] * r0 + u[0, 2] * l0
    amps[..., 2] = u[1, 0] * e + u[1, 1] * r0 + u[1, 2] * l0
    amps[..., i_l0] = u[2, 0] * e + u[2, 1] * r0 + u[2, 2] * l0

    # (3) photon-number measurement on the output boxes
    p_right = np.abs(amps[..., i_rout]) ** 2
    p_left = np.abs(amps[..., i_l0]) ** 2
    p_total = p_right + p_left
    detected = eps1 <= p_total
    # no-detection projection: remove the output amplitudes (detected rows
    # are overwritten below, so zeroing unconditionally is safe)
    amps[..., i_rout] = 0.0
    amps[..., i_l0] = 0.0

    # (4) shift boxes by one, scattering right box N-2 at the mirror
    out = np.zeros_like(amps)
    out[..., 0] = amps[..., 0]
    out[..., 1] = amps[..., 1]
    # right-movers migrate toward the mirror; fresh vacuum enters at box 0
    out[..., 3 : n + 1] = amps[..., 2:n]
    out[..., i_rout] = config.t_m * amps[..., n]  # transmitted behind the mirror
    # left input box N-1 (index n+2) stays empty; reflection feeds box N-2
    out[..., n + 3] = config.r_m * amps[..., n]
    # left-movers migrate toward the emitter
    out[..., n + 4 :] = amps[..., n + 3 : 2 * n + 1]

    # (5) renormalize; a detected photon leaves the region -> vacuum state
    norm_sq = np.sum(np.abs(out) ** 2, axis=-1)
    out[detected, :] = 0.0
    out[detected, 0] = 1.0
    norm = np.sqrt(np.where(detected, 1.0, norm_sq))
    if np.any(norm < _NORM_FLOOR):
        raise NormUnderflow(f"state norm fell below {_NORM_FLOOR}")
    out /= norm[..., np.newaxis]
    return out, p_total


def _evolve(
    config: TrajectoryConfig, eps1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run `_advance` from |e, 0> on a one-row batch with thresholds eps1[k].

    Returns P_e at every step start (n_steps + 1 values, zero once the row is
    in the vacuum), the detection probability p[k] of every step, and the
    number of steps completed: n_steps, or the step k at which the
    undetected norm underflowed (p[k] is still recorded).  P_e is read with
    the same array expression as p; a complex-scalar abs can differ from the
    array ufunc in the last bit.
    """
    propagator = build_propagator(config)
    amps = _initial_state(config)
    excited = np.zeros(config.n_steps + 1)
    p = np.zeros(config.n_steps)
    for k in range(config.n_steps):
        excited[k : k + 1] = np.abs(amps[:, 1]) ** 2
        try:
            amps, p[k : k + 1] = _advance(amps, config, propagator, eps1[k])
        except NormUnderflow:
            # a forced detection (eps1 = 0) skips the norm check but yields p
            p[k : k + 1] = _advance(amps, config, propagator, 0.0)[1]
            return excited, p, k
    excited[-1:] = np.abs(amps[:, 1]) ** 2
    return excited, p, config.n_steps


def run_trajectory(config: TrajectoryConfig, trajectory_index: int) -> np.ndarray:
    """P_e time series of a single trajectory, sampled at every step start.

    The first sample is exactly 1 (initial state |e, 0>); the series has
    n_steps + 1 entries covering t = 0 .. t_max.  The trajectory is stepped
    directly, detections and all, from its own (master_seed, index) stream.
    """
    excited, _, completed = _evolve(config, _detection_draws(config, trajectory_index))
    if completed < config.n_steps:
        raise NormUnderflow(f"state norm fell below {_NORM_FLOOR} at step {completed}")
    return excited


def ensemble_average(config: TrajectoryConfig) -> EnsembleResult:
    """Mean P_e over the ensemble with per-time-point standard error.

    With a single excitation, a detection puts the system in the vacuum,
    which no later step leaves, so every trajectory not yet detected holds
    the same state.  The ensemble is therefore one no-jump evolution plus a waiting
    time per trajectory (the waiting-time form of quantum jumps: Dalibard,
    Castin & Molmer, PRL 68, 580 (1992)).  The no-jump run records P_e[k]
    and the detection probability p[k]; trajectory i draws its thresholds
    eps1 from its own (master_seed, i) stream and is first detected at the
    first step k with eps1[k] <= p[k].  Its row is P_e[:k+1] followed by
    zeros, bit-identical to run_trajectory(config, i), and the rows are
    reduced in index order.  The thresholds are drawn a block of
    trajectories at a time from one Philox generator, re-keyed to the start
    of stream (master_seed, i) before trajectory i: the same numbers as
    trajectory_rng(master_seed, i), without building a generator per
    trajectory.

    The no-jump run uses the largest threshold a trajectory can draw,
    eps1 = 1, so it reaches the vacuum only where every trajectory is
    detected.  NormUnderflow is raised when the no-jump norm underflows at a
    step that some trajectory passes undetected.
    """
    n_steps = config.n_steps
    n_traj = config.n_trajectories
    excited, p, completed = _evolve(config, np.ones(n_steps))
    # one generator, re-keyed to the start of each trajectory's stream
    generator = trajectory_rng(config.master_seed, 0)
    bit_generator = generator.bit_generator
    # each row holds two float64 uniforms per step
    block_rows = min(n_traj, max(1, _DRAW_BLOCK_BYTES // (16 * max(n_steps, 1))))
    block = np.empty((block_rows, n_steps, 2))
    # column n_steps stays True, so argmax is the first detection or n_steps
    hits = np.ones((block_rows, n_steps + 1), dtype=bool)
    first = np.empty(n_traj, dtype=np.int64)
    for start in range(0, n_traj, block_rows):
        rows = block[: n_traj - start]
        for i, row in enumerate(rows, start):
            bit_generator.state = _stream_start(config.master_seed, i)
            generator.random(out=row)
        eps1 = np.subtract(1.0, rows[..., 0], out=rows[..., 0])  # as in _detection_draws
        np.less_equal(eps1, p, out=hits[: len(rows), :n_steps])
        first[start : start + len(rows)] = hits[: len(rows)].argmax(axis=1)
    survivors = np.count_nonzero(first > completed)
    if survivors:
        raise NormUnderflow(
            f"state norm fell below {_NORM_FLOOR} at step {completed} "
            f"with {survivors} trajectories undetected"
        )
    samples = np.where(np.arange(n_steps + 1) <= first[:, np.newaxis], excited, 0.0)
    mean = samples.mean(axis=0)
    if n_traj > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        stderr = np.zeros(n_steps + 1)
    return EnsembleResult(
        times=config.times, mean=mean, stderr=stderr, n_trajectories=n_traj
    )
