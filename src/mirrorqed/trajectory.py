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
quantum jumps (Dalibard, Castin & Molmer, PRL 68, 580 (1992)).  The squared
norm S[k] of the unnormalized no-jump state is the chance that no detection
came before step k, so one uniform per trajectory fixes its first detection.
Averaging the trajectories reproduces the open-system dynamics and serves as
an independent check of the exact analytic solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SystemParams

_NORM_FLOOR = 1e-300


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
        master_seed: 64-bit seed; trajectory i reads uniform i of the Philox
            stream keyed by master_seed.
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


def build_propagator(config: TrajectoryConfig) -> np.ndarray:
    """One-step unitary exp(-i (H_S + H_I) dt) as its 3x3 active block.

    H_S + H_I acts as the identity outside span{excited, right box 0,
    left box 0}; on that subspace it is Hermitian with diagonal
    (omega_e, 0, 0) and couplings sqrt(v/dt), exponentiated here via its
    eigendecomposition.
    """
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
    return (eigvecs * np.exp(-1j * eigvals * config.dt)) @ eigvecs.T


def trajectory_rng(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Counter-based RNG stream positioned at trajectory `trajectory_index`'s draw.

    All trajectories read one Philox stream keyed by master_seed mod 2**64:
    trajectory i takes its uniform i, so any trajectory can be reproduced in
    isolation and ensembles are independent of execution order.  Philox
    yields four 64-bit words per counter step and a float64 uniform reads
    one word, so the stream is advanced i // 4 counter steps and i % 4
    uniforms are discarded; the next uniform is the one that
    `trajectory_rng(master_seed, 0).random(n)[i]` returns.
    """
    bit_generator = np.random.Philox(key=master_seed & 0xFFFFFFFFFFFFFFFF)
    bit_generator.advance(trajectory_index // 4)
    generator = np.random.Generator(bit_generator)
    generator.random(trajectory_index % 4)
    return generator


def _evolve(config: TrajectoryConfig) -> tuple[np.ndarray, np.ndarray, int, float]:
    """The no-jump run from |e, 0>: P_e and survival S at every step start.

    Steps the recurrence of the module docstring.  The squared norm S of the
    unnormalized state is summed over e and every box in flight, the
    transmitted box included; one minus the weight dropped so far would lose
    digits (8e-7 relative at phase pi, r_m -1, N 25, t 10).  P_e = |e|^2 / S.
    S is rescaled by a power of two below 2**-128; the survival is the
    unscaled S.

    The run stops after the first step k whose detection probability
    (|left out|^2 + |right out|^2) / S is at least 1, where no no-jump state
    is left, or with the norm below the floor times its value before the
    step; later values stay zero.  Returns P_e and the survival (n_steps + 1
    values each), the steps completed (k or n_steps) and the unscaled S
    after step k: 0 when the run did not stop or was certain to detect.
    """
    (u00, _, u02), (u10, _, u12), (u20, _, u22) = build_propagator(config).tolist()
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
    excited, survival = [1.0], [1.0]
    completed, tail = n_steps, 0.0
    for step in range(n_steps):
        l0 = r_m * emitted[-delay]
        right = t_m * emitted[-lag]
        e, emission, left = u00 * e + u02 * l0, u10 * e + u12 * l0, u20 * e + u22 * l0
        emitted.append(emission)
        weight.append((emission * emission.conjugate()).real)
        # right boxes 1..N-2 hold the N-2 newest emissions, the next one is
        # split into the transmitted box and left box N-2, older ones move left
        e2 = (e * e.conjugate()).real
        end = len(weight)
        new_norm = e2 + sum(weight[end - lag + 1 :]) + transmitted * weight[end - lag]
        new_norm += reflected * sum(weight[end - delay : end - lag + 1])
        dropped = (left * left.conjugate()).real + (right * right.conjugate()).real
        if dropped / norm >= 1.0:
            completed = step
            break
        if math.sqrt(new_norm / norm) < _NORM_FLOOR:
            completed, tail = step, math.ldexp(new_norm, -2 * scale)
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
    for values in (excited, survival):
        values += [0.0] * (n_steps + 1 - len(values))  # zeros after a stop
    return np.array(excited), np.array(survival), completed, tail


def _first_detections(
    survival: np.ndarray, completed: int, tail: float, u: np.ndarray
) -> np.ndarray:
    """First detection step of the trajectories drawing uniforms `u` (n_steps if none).

    The threshold v = 1 - u lies in (0, 1].  S[k] is the chance that a
    trajectory is still undetected at step k, so the trajectory is first
    detected at the k with S[k+1] < v <= S[k], and not at all when
    v <= S[n_steps]; its first detection is the number of steps k >= 1 with
    S[k] >= v.  The running minimum keeps that count a binary search where
    rounding lifts S by an ulp.

    Raises NormUnderflow if some v <= `tail`, the survival after step
    `completed`: that trajectory passes the step undetected, but the no-jump
    run ended there because its norm underflowed.
    """
    v = 1.0 - u
    survivors = np.count_nonzero(v <= tail)
    if survivors:
        raise NormUnderflow(
            f"state norm fell below {_NORM_FLOOR} at step {completed} "
            f"with {survivors} trajectories undetected"
        )
    return np.searchsorted(-np.minimum.accumulate(survival[1:]), -v, side="right")


def run_trajectory(config: TrajectoryConfig, trajectory_index: int) -> np.ndarray:
    """P_e time series of a single trajectory, sampled at every step start.

    The first sample is exactly 1 (initial state |e, 0>); the series has
    n_steps + 1 entries covering t = 0 .. t_max.  It is the no-jump P_e up
    to the trajectory's first detection, fixed by its own uniform, and zero
    after it.
    """
    excited, survival, completed, tail = _evolve(config)
    u = trajectory_rng(config.master_seed, trajectory_index).random(1)
    first = _first_detections(survival, completed, tail, u)
    return np.where(np.arange(config.n_steps + 1) <= first, excited, 0.0)


def ensemble_average(config: TrajectoryConfig) -> EnsembleResult:
    """Mean P_e over the ensemble with per-time-point standard error.

    Trajectory i is the no-jump run cut at its first detection, fixed by
    uniform i of the master_seed stream, so at step k its P_e is P_e[k] or 0:
    the ensemble reduces to the count c[k] = #{first >= k} of trajectories
    not yet detected.  The mean is P_e (c / n) and the standard error
    P_e sqrt(c (n - c) / (n - 1)) / n, the sample formulas over the rows
    that run_trajectory returns, without building them; where no trajectory
    is detected they give P_e and 0 exactly.  NormUnderflow is raised when
    the no-jump norm underflows at a step that some trajectory passes
    undetected.
    """
    n_traj = config.n_trajectories
    excited, survival, completed, tail = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(n_traj)
    first = _first_detections(survival, completed, tail, u)
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
