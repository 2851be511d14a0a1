"""Discrete-space quantum-trajectory Monte Carlo for the emitter-mirror system.

The waveguide around the emitter is discretized into N right-moving and N
left-moving boxes of temporal width dt, as in the time-delay box model of
Pichler & Zoller, PRL 116, 093601 (2016).  The emitter couples to box 0 of
each direction; the mirror sits between right boxes N-2 and N-1, so dt (N-1)
is the emitter-mirror distance and one round trip takes 2 (N-1) steps.  The
state vector has 2N+2 amplitudes ordered as

    [vacuum, excited, right boxes 0..N-1, left boxes N-1..0],

and each time step applies: (1) record P_e, (2) coherent evolution under the
emitter + local-coupling Hamiltonian, (3) no-jump projection: the weight p in
the output boxes (right box N-1 behind the mirror, left box 0 past the
emitter) is the step's detection probability, and the projection drops it,
(4) box shift with mirror transmission/reflection, (5) renormalize.

With a single excitation a detection leaves the vacuum for good, so all
trajectories share one deterministic no-jump evolution until their first
detection, and nothing changes after it.  The no-jump evolution is the only
state ever evolved (its vacuum amplitude stays zero); a trajectory is that
run cut at its first detection, one waiting time drawn per trajectory: the
waiting-time form of quantum jumps (Dalibard, Castin & Molmer, PRL 68, 580
(1992)).  Averaging the trajectories reproduces the open-system dynamics and
serves as an independent check of the exact analytic solution.
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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.v_right < math.inf and 0 <= self.v_left < math.inf):
            raise ValueError("coupling rates v_right/v_left must be non-negative and finite")
        if not -1.0 <= self.r_m <= 1.0:
            raise ValueError(f"r_m must be real in [-1, 1], got {self.r_m}")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        if not math.isfinite(self.omega_e):
            raise ValueError(f"omega_e must be finite, got {self.omega_e}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
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
    uniforms (the second is drawn even when no detection occurs).  The
    first-detection search builds one such generator and re-keys it to the
    start of every index in turn, which yields the same numbers.
    """
    generator = np.random.Generator(np.random.Philox(key=0))
    generator.bit_generator.state = _stream_start(master_seed, trajectory_index)
    return generator


def _initial_state(config: TrajectoryConfig) -> np.ndarray:
    """|e, 0>: emitter excited, field vacuum."""
    amps = np.zeros(config.state_size, dtype=complex)
    amps[1] = 1.0
    return amps


def _advance(
    amps: np.ndarray, config: TrajectoryConfig, propagator: Propagator
) -> tuple[np.ndarray | None, float]:
    """Apply algorithm steps (2)-(5) to one no-jump state, shape (2N+2,).

    Returns the advanced state and p, its probability of a photon detection
    in this step; `amps` itself is left unchanged.  The state is None when
    its norm after the projection falls below the floor.
    """
    n = config.boxes
    i_l0 = 2 * n + 1  # left box 0: at the emitter, also the left output
    i_rout = n + 1  # right box N-1: behind the mirror, the right output
    amps = amps.copy()

    # (2) coherent evolution on the active triple
    u = propagator.matrix
    active = [1, 2, i_l0]  # excited, right box 0, left box 0
    e, r0, l0 = amps[active]
    amps[active] = u[:, 0] * e + u[:, 1] * r0 + u[:, 2] * l0

    # (3) no-jump projection: the output boxes hold the detection
    # probability, and the shift below drops them
    p_right, p_left = np.abs(amps[[i_rout, i_l0]]) ** 2

    # (4) shift boxes by one, scattering right box N-2 at the mirror
    out = np.zeros_like(amps)
    out[1] = amps[1]
    # right-movers migrate toward the mirror; fresh vacuum enters at box 0
    out[3 : n + 1] = amps[2:n]
    out[i_rout] = config.t_m * amps[n]  # transmitted behind the mirror
    # left input box N-1 (index n+2) stays empty; reflection feeds box N-2
    out[n + 3] = config.r_m * amps[n]
    # left-movers migrate toward the emitter
    out[n + 4 :] = amps[n + 3 : i_l0]

    # (5) renormalize
    norm = np.sqrt(np.sum(np.abs(out) ** 2))
    if norm < _NORM_FLOOR:
        return None, p_right + p_left
    out /= norm
    return out, p_right + p_left


def _evolve(config: TrajectoryConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """The no-jump run from |e, 0>: P_e at every step start, p of every step.

    The run stops after the first step k at which p[k] >= 1, where every
    threshold eps1 in (0, 1] fires, or the norm underflows; P_e after that
    step and p beyond it stay zero.  Returns P_e (n_steps + 1 values), p
    (n_steps values) and the number of steps completed: that k, or n_steps.
    P_e is read from the recorded amplitudes with the array ufunc, like p;
    a complex-scalar abs can differ from it in the last bit.
    """
    propagator = build_propagator(config)
    amps = _initial_state(config)
    amplitude = np.zeros(config.n_steps + 1, dtype=complex)
    amplitude[0] = amps[1]
    p = np.zeros(config.n_steps)
    for k in range(config.n_steps):
        amps, p[k] = _advance(amps, config, propagator)
        if amps is None or p[k] >= 1.0:
            return np.abs(amplitude) ** 2, p, k
        amplitude[k + 1] = amps[1]
    return np.abs(amplitude) ** 2, p, config.n_steps


def _first_detections(
    config: TrajectoryConfig, p: np.ndarray, completed: int, indices: range
) -> np.ndarray:
    """First detection step of each trajectory in `indices` (n_steps if none).

    Trajectory i reads its (master_seed, i) stream as one (n_steps, 2) block.
    The first uniform u of each step gives the threshold eps1 = 1 - u in
    (0, 1], so a zero-probability step never fires; the second would pick
    the detection channel, which does not alter the outcome, and is drawn
    only to keep the layout fixed.  Trajectory i is first detected at the
    first step k with eps1[k] <= p[k].  The streams are drawn a block of
    trajectories at a time from one Philox generator, re-keyed to the start
    of stream (master_seed, i) before trajectory i: the same numbers as
    trajectory_rng(master_seed, i), without building a generator per
    trajectory.

    Raises NormUnderflow if a trajectory passes step `completed` undetected:
    the no-jump run ended there because its norm underflowed.
    """
    n_steps = config.n_steps
    count = len(indices)
    generator = trajectory_rng(config.master_seed, indices[0])
    bit_generator = generator.bit_generator
    # each row holds two float64 uniforms per step
    block_rows = min(count, max(1, _DRAW_BLOCK_BYTES // (16 * max(n_steps, 1))))
    block = np.empty((block_rows, n_steps, 2))
    # column n_steps stays True, so argmax is the first detection or n_steps
    hits = np.ones((block_rows, n_steps + 1), dtype=bool)
    first = np.empty(count, dtype=np.int64)
    for start in range(0, count, block_rows):
        rows = block[: count - start]
        for i, row in zip(indices[start:], rows):
            bit_generator.state = _stream_start(config.master_seed, i)
            generator.random(out=row)
        eps1 = np.subtract(1.0, rows[..., 0], out=rows[..., 0])
        np.less_equal(eps1, p, out=hits[: len(rows), :n_steps])
        first[start : start + len(rows)] = hits[: len(rows)].argmax(axis=1)
    survivors = np.count_nonzero(first > completed)
    if survivors:
        raise NormUnderflow(
            f"state norm fell below {_NORM_FLOOR} at step {completed} "
            f"with {survivors} trajectories undetected"
        )
    return first


def run_trajectory(config: TrajectoryConfig, trajectory_index: int) -> np.ndarray:
    """P_e time series of a single trajectory, sampled at every step start.

    The first sample is exactly 1 (initial state |e, 0>); the series has
    n_steps + 1 entries covering t = 0 .. t_max.  It is the no-jump P_e up
    to the trajectory's first detection, drawn from its own
    (master_seed, index) stream, and zero after it: the row that
    `ensemble_average` reduces for this index.
    """
    excited, p, completed = _evolve(config)
    first = _first_detections(
        config, p, completed, range(trajectory_index, trajectory_index + 1)
    )
    return np.where(np.arange(config.n_steps + 1) <= first, excited, 0.0)


def ensemble_average(config: TrajectoryConfig) -> EnsembleResult:
    """Mean P_e over the ensemble with per-time-point standard error.

    With a single excitation, a detection puts the system in the vacuum,
    which no later step leaves, so every trajectory not yet detected holds
    the same state.  The ensemble is therefore one no-jump evolution plus a
    waiting time per trajectory (the waiting-time form of quantum jumps:
    Dalibard, Castin & Molmer, PRL 68, 580 (1992)).  The no-jump run records
    P_e[k] and the detection probability p[k]; trajectory i is first
    detected at step k, found from its own (master_seed, i) stream.  Its row
    is P_e[:k+1] followed by zeros, the same as run_trajectory(config, i),
    and the rows are reduced in index order.  NormUnderflow is raised when
    the no-jump norm underflows at a step that some trajectory passes
    undetected.
    """
    n_steps = config.n_steps
    n_traj = config.n_trajectories
    excited, p, completed = _evolve(config)
    first = _first_detections(config, p, completed, range(n_traj))
    samples = np.where(np.arange(n_steps + 1) <= first[:, np.newaxis], excited, 0.0)
    mean = samples.mean(axis=0)
    if n_traj > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        stderr = np.zeros(n_steps + 1)
    return EnsembleResult(
        times=config.times, mean=mean, stderr=stderr, n_trajectories=n_traj
    )
