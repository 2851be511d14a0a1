"""Discrete-space quantum-trajectory Monte Carlo for the emitter-mirror system.

The waveguide around the emitter is discretized into N right-moving and N
left-moving boxes of temporal width dt, as in the time-delay box model of
Pichler & Zoller, PRL 116, 093601 (2016).  The emitter couples to box 0 of
each direction; the mirror sits between right boxes N-2 and N-1, so dt (N-1)
is the emitter-mirror distance and one round trip takes 2 (N-1) steps.  Each
time step applies: (1) record P_e, (2) coherent evolution of the excited
amplitude e, right box 0 and left box 0 under the emitter + local-coupling
Hamiltonian, (3) no-jump projection: the weight in the output boxes (right
box N-1 behind the mirror, left box 0 past the emitter) is the step's
detection probability p, and the projection drops it, (4) box shift with
mirror transmission/reflection.

Right box 0 is empty at every coherent step, and the boxes only carry each
emission to the mirror and back, so the unnormalized no-jump state is e plus
the last M = 2 (N-1) - 1 emissions.  With u the 3x3 step unitary on (e,
right box 0, left box 0), a step is the scalar delay recurrence

    e' = u00 e + u02 l0,  emission = u10 e + u12 l0,  left out = u20 e + u22 l0,

with l0 = r_m times the emission M steps earlier; the right output is t_m
times the emission N-1 steps earlier.

With a single excitation a detection leaves the vacuum for good, so all
trajectories share this one no-jump run until their first detection, and
nothing changes after it.  A trajectory is that run cut at its first
detection, one waiting time drawn per trajectory: the waiting-time form of
quantum jumps (Dalibard, Castin & Molmer, PRL 68, 580 (1992)).  Averaging
the trajectories reproduces the open-system dynamics and serves as an
independent check of the exact analytic solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SystemParams

_NORM_FLOOR = 1e-300
# Bytes of uniforms ensemble_average draws per block of trajectories: enough
# rows to amortize the per-block array calls, few enough to stay in cache.
_DRAW_BLOCK_BYTES = 256 * 1024


class NormUnderflow(ArithmeticError):
    """The no-jump norm fell below 1e-300 of its value before the step."""


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
    """Ensemble-averaged excitation probability with its standard error.

    `limit` is the infinite-ensemble mean P_e S: the excitation probability of
    the unnormalized no-jump state, which `mean` estimates without bias.
    """

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_trajectories: int
    limit: np.ndarray


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


def _evolve(config: TrajectoryConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The no-jump run from |e, 0>: P_e and survival at every step start, p of every step.

    Steps the recurrence of the module docstring.  The squared norm S of the
    unnormalized state is summed over e and every box in flight, the
    transmitted box included; one minus the weight dropped so far would lose
    digits (8e-7 relative at phase pi, r_m -1, N 25, t 10).  P_e = |e|^2 / S
    and p = (|left out|^2 + |right out|^2) / S with S before the step.  S is
    rescaled by a power of two below 2**-128; the survival is the unscaled S.

    The run stops after the first step k with p[k] >= 1, where every eps1 in
    (0, 1] fires, or with the norm below the floor times its value before the
    step; later values stay zero.  Returns P_e and the survival (n_steps + 1
    values each), p (n_steps values) and the steps completed: k or n_steps.
    """
    (u00, _, u02), (u10, _, u12), (u20, _, u22) = build_propagator(config).matrix.tolist()
    n_steps = config.n_steps
    r_m, t_m = config.r_m, config.t_m
    reflected, transmitted = r_m * r_m, t_m * t_m
    delay = 2 * config.boxes - 3  # M: steps from an emission to its return at left box 0
    lag = config.boxes - 1  # steps from an emission to the right output
    # emissions and their |.|^2, oldest first, behind the empty boxes of t = 0
    emitted = [0j] * delay
    weight = [0.0] * delay
    e = 1 + 0j
    norm = 1.0  # S before the step
    scale = 0  # the amplitudes are 2**scale times the unnormalized state
    excited, survival, p = [1.0], [1.0], []
    for k in range(n_steps):
        l0 = r_m * emitted[-delay]
        right = t_m * emitted[-lag]
        e, emission, left = u00 * e + u02 * l0, u10 * e + u12 * l0, u20 * e + u22 * l0
        p.append(((left * left.conjugate()).real + (right * right.conjugate()).real) / norm)
        emitted.append(emission)
        weight.append((emission * emission.conjugate()).real)
        # right boxes 1..N-2 hold the N-2 newest emissions, the next one is
        # split into the transmitted box and left box N-2, older ones move left
        e2 = (e * e.conjugate()).real
        end = len(weight)
        new_norm = e2 + sum(weight[end - lag + 1 :]) + transmitted * weight[end - lag]
        new_norm += reflected * sum(weight[end - delay : end - lag + 1])
        if p[k] >= 1.0 or math.sqrt(new_norm / norm) < _NORM_FLOOR:
            break
        if new_norm < 2.0**-128:
            shift = -(math.frexp(new_norm)[1] // 2)
            factor = math.ldexp(1.0, shift)
            e *= factor
            emitted[-delay:] = [z * factor for z in emitted[-delay:]]
            weight[-delay:] = [math.ldexp(w, 2 * shift) for w in weight[-delay:]]
            e2, new_norm = math.ldexp(e2, 2 * shift), math.ldexp(new_norm, 2 * shift)
            scale += shift
        norm = new_norm
        excited.append(e2 / norm)
        survival.append(math.ldexp(norm, -2 * scale))
    else:
        k = n_steps
    for values, size in ((excited, n_steps + 1), (survival, n_steps + 1), (p, n_steps)):
        values += [0.0] * (size - len(values))  # zeros after a stop
    return np.array(excited), np.array(p), np.array(survival), k


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
    trajectories at a time from one Philox generator, re-keyed before
    trajectory i by writing (master_seed, i) into one reused start state:
    the same numbers as trajectory_rng(master_seed, i).

    Raises NormUnderflow if a trajectory passes step `completed` undetected:
    the no-jump run ended there because its norm underflowed.
    """
    n_steps = config.n_steps
    count = len(indices)
    generator = trajectory_rng(config.master_seed, indices[0])
    bit_generator = generator.bit_generator
    start_state = _stream_start(config.master_seed, indices[0])
    seed_key = start_state["state"]["key"][0]
    # each row holds two float64 uniforms per step
    block_rows = min(count, max(1, _DRAW_BLOCK_BYTES // (16 * max(n_steps, 1))))
    block = np.empty((block_rows, n_steps, 2))
    # column n_steps stays True, so argmax is the first detection or n_steps
    hits = np.ones((block_rows, n_steps + 1), dtype=bool)
    first = np.empty(count, dtype=np.int64)
    for start in range(0, count, block_rows):
        rows = block[: count - start]
        for i, row in zip(indices[start:], rows):
            start_state["state"]["key"] = (seed_key, i & 0xFFFFFFFFFFFFFFFF)
            bit_generator.state = start_state
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
    (master_seed, index) stream, and zero after it.
    """
    excited, p, _, completed = _evolve(config)
    first = _first_detections(
        config, p, completed, range(trajectory_index, trajectory_index + 1)
    )
    return np.where(np.arange(config.n_steps + 1) <= first, excited, 0.0)


def ensemble_average(config: TrajectoryConfig) -> EnsembleResult:
    """Mean P_e over the ensemble with per-time-point standard error.

    Trajectory i is the no-jump run cut at its first detection, found from
    its own (master_seed, i) stream, so at step k its P_e is P_e[k] or 0: the
    ensemble reduces to the count c[k] = #{first >= k} of trajectories not
    yet detected.  The mean is P_e (c / n) and the standard error
    P_e sqrt(c (n - c) / (n - 1)) / n, the sample formulas over the rows
    that run_trajectory returns, without building them; where no trajectory
    is detected they give P_e and 0 exactly.  NormUnderflow is raised when
    the no-jump norm underflows at a step that some trajectory passes
    undetected.
    """
    n_traj = config.n_trajectories
    excited, p, survival, completed = _evolve(config)
    first = _first_detections(config, p, completed, range(n_traj))
    undetected = np.cumsum(np.bincount(first, minlength=config.n_steps + 1)[::-1])[::-1]
    mean = excited * (undetected / n_traj)
    if n_traj > 1:
        stderr = excited * np.sqrt(undetected * (n_traj - undetected) / (n_traj - 1)) / n_traj
    else:
        stderr = np.zeros(config.n_steps + 1)
    return EnsembleResult(
        times=config.times, mean=mean, stderr=stderr, n_trajectories=n_traj,
        limit=excited * survival,
    )
