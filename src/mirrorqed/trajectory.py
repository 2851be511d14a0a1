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
mirror transmission/reflection.  The system comes from a SystemParams:
dt = tau / (2 (N-1)), the emitter couples to each direction at rate
Gamma/2, and the mirror passes right box N-2 on with t_m and reflects it
with any complex r_m, |r_m|^2 + t_m^2 = 1, such as the mirror of coupling J
from `mirror_coefficients`.

Right box 0 is empty at every coherent step, and the boxes only carry each
emission to the mirror and back, so the unnormalized no-jump state is e plus
the last M = 2 (N-1) - 1 emissions.  With u the 3x3 step unitary on (e,
right box 0, left box 0), a step is the scalar delay recurrence

    e' = u00 e + u02 l0,  emission = u10 e + u12 l0,  left out = u20 e + u22 l0,

with l0 = r_m times the emission M steps earlier; the right output is t_m
times the emission N-1 steps earlier.  A step therefore reads two slots of a
ring of the last M emissions and does O(1) work, whatever N.

With a single excitation a detection leaves the vacuum for good, so all
trajectories share this one no-jump run until their first detection, and
nothing changes after it.  A trajectory is that run cut at its first
detection, one waiting time drawn per trajectory: the waiting-time form of
quantum jumps (Dalibard, Castin & Molmer, PRL 68, 580 (1992)).  The squared
norm S[k] of the unnormalized no-jump state is the chance that no detection
came before step k, so one uniform per trajectory fixes its first detection.
A trajectory with uniform u is still undetected at step k exactly when its
threshold v = 1 - u is at most S[k]; S[0] = 1, so every trajectory is at
step 0.  This one rule gives a single trajectory's series and the
ensemble's count of undetected trajectories, one sort of the thresholds
and one binary search.  S[k] is the norm still in flight at the end of the
run plus the weight each step from k on drops into the outputs, a sum of
non-negative terms, so it never rises.  The uniforms are multiples of
2**-53 below 1, so every trajectory has been detected once S falls below
2**-53: the run stops where S leaves the normal double range, or where
detection is certain, and is zero after that.  Averaging the trajectories
reproduces the open-system dynamics and serves as an independent check of
the exact analytic solution.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import SystemParams

# Longest run.  At this many steps (N 25, trapped, so the run never stops)
# `_evolve` peaks at 52 MB by tracemalloc, 26 bytes a step, and takes 1.8 s;
# `ensemble_average` peaks at 112 MB and takes 2.0 s (one x86-64 core).
_MAX_STEPS = 2**21
# Largest ensemble.  `ensemble_average` takes 24 bytes a trajectory before it
# counts any: at this many (N 25, t_max 10) it peaks at 100.7 MB by tracemalloc
# and takes 0.14 s (one x86-64 core).
_MAX_TRAJECTORIES = 2**22


@dataclass(frozen=True)
class TrajectoryConfig:
    """A system, its box discretization and the ensemble of a trajectory run.

    The system values (mirror, frequency, coupling) live in `params` alone;
    the time grid follows from it and `boxes`.

    Attributes:
        params: The emitter-mirror system; any r_m with |r_m| <= 1 and tau > 0.
        boxes: Number N of boxes per direction, 2 <= N <= 2**20 + 1, so that
            one round trip of 2 (N - 1) steps fits in the 2**21-step cap.
        n_trajectories: Ensemble size, 1 <= n <= 2**22.
        t_max: End time of each trajectory, at most 2**21 steps of dt.
        master_seed: 64-bit seed; trajectory i reads uniform i of the Philox
            stream keyed by master_seed.
    """

    params: SystemParams
    boxes: int = 25
    n_trajectories: int = 5000
    t_max: float = 10.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("boxes", "n_trajectories", "master_seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.boxes < 2:  # checked before dt divides by boxes - 1
            raise ValueError(f"boxes must be >= 2, got {self.boxes}")
        # `_evolve` allocates a ring of 2 N - 3 emissions before its first step,
        # and no run of at most _MAX_STEPS would get past the first round trip.
        # At the largest N (t_max 1e-3) `ensemble_average` peaks at 67 MB.
        if not 2 * (self.boxes - 1) <= _MAX_STEPS:
            raise ValueError(f"one round trip of 2 (boxes - 1) steps must fit in {_MAX_STEPS} "
                             f"steps, got boxes = {self.boxes}")
        if not 1 <= self.n_trajectories <= _MAX_TRAJECTORIES:
            raise ValueError(f"n_trajectories must be between 1 and {_MAX_TRAJECTORIES}, "
                             f"got {self.n_trajectories}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        dt = self.dt
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt} "
                             f"from tau = {self.params.tau}")
        if not self.t_max / dt <= _MAX_STEPS:
            raise ValueError(f"t_max / dt must be finite and at most {_MAX_STEPS} steps, "
                             f"got {self.t_max} / {dt}")

    @property
    def dt(self) -> float:
        """Time step tau / (2 (N-1)), so dt (N-1) is the emitter-mirror distance tau/2."""
        return self.params.tau / (2.0 * (self.boxes - 1))

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
    (omega_e, 0, 0) and the coupling g = sqrt(Gamma / 2 / dt) to either
    direction, exponentiated here via its eigendecomposition.
    """
    dt = config.dt
    g = math.sqrt(config.params.gamma / 2.0 / dt)
    block = np.array([[config.params.omega_e, g, g], [g, 0.0, 0.0], [g, 0.0, 0.0]])
    eigvals, eigvecs = np.linalg.eigh(block)
    return (eigvecs * np.exp(-1j * eigvals * dt)) @ eigvecs.T


def trajectory_rng(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Counter-based RNG stream positioned at trajectory `trajectory_index`'s draw.

    All trajectories read one Philox stream keyed by master_seed mod 2**64:
    trajectory i takes its uniform i, so any trajectory can be reproduced in
    isolation and ensembles are independent of execution order.  Philox
    yields four 64-bit words per counter step and a float64 uniform reads
    one word, so the stream is advanced i // 4 counter steps and i % 4
    uniforms are discarded; the next uniform is the one that
    `trajectory_rng(master_seed, 0).random(n)[i]` returns.  A negative
    index is refused (ValueError): Philox would wrap it round the counter.
    """
    if trajectory_index < 0:
        raise ValueError(f"trajectory_index must be non-negative, got {trajectory_index}")
    bit_generator = np.random.Philox(key=master_seed & 0xFFFFFFFFFFFFFFFF)
    bit_generator.advance(trajectory_index // 4)
    generator = np.random.Generator(bit_generator)
    generator.random(trajectory_index % 4)
    return generator


def _evolve(config: TrajectoryConfig) -> tuple[np.ndarray, np.ndarray]:
    """The no-jump run from |e, 0>: P_e and survival S at every step start.

    Steps the recurrence of the module docstring over a ring of the last M
    emissions: slot k % M holds the emission M steps back, whose return is
    l0, and slot (k - lag) % M the one at the right output.  A step keeps
    |e|^2 and its drop |left out|^2 + t_m^2 |emission k - lag|^2.  S at the
    end is the squared norm in flight, |e|^2 plus every box, the transmitted
    box included, and each earlier S[k] is S[k+1] plus the drop of step k: a
    reverse sum of non-negative terms, so S never rises and loses no digits
    (one minus the weight dropped so far lost 8e-7 relative at phase pi,
    r_m -1, N 25, t 10).  P_e = |e|^2 / S.

    The run stops after the first step whose drop is at least the S before
    it, where no no-jump state is left, or that leaves S below the smallest
    normal double, where every trajectory has been detected (every
    threshold v = 1 - u is at least 2**-53); later values are zero.  S never rises, so the loop
    itself ends once the norm in flight is below that double, checked every
    max(M, 32) steps.  Returns P_e and the survival, n_steps + 1 values each.
    """
    (u00, _, u02), (u10, _, u12), (u20, _, u22) = build_propagator(config).tolist()
    n_steps = config.n_steps
    r_m, t_m = config.params.r_m, config.params.t_m
    reflected, transmitted = (r_m * r_m.conjugate()).real, t_m * t_m
    delay = 2 * config.boxes - 3  # M: steps from an emission to its return at left box 0
    lag = config.boxes - 1  # steps from an emission to the right output
    tiny = float(np.finfo(float).tiny)
    # the last M emissions and their |.|^2 by slot k % M, empty boxes at t = 0
    ring = [0j] * delay
    weights = [0.0] * delay
    e = 1 + 0j
    excited, drop = np.empty(n_steps + 1), np.empty(n_steps)  # |e|^2 after step k at k + 1
    excited_at, drop_at = memoryview(excited), memoryview(drop)
    done = 0
    while done < n_steps:
        for k in range(done, min(done + max(delay, 32), n_steps)):
            i = k % delay
            l0 = r_m * ring[i]
            e, emission, left = u00 * e + u02 * l0, u10 * e + u12 * l0, u20 * e + u22 * l0
            ring[i] = emission
            drop_at[k] = (left * left.conjugate()).real + transmitted * weights[i - lag]
            weights[i] = (emission * emission.conjugate()).real
            excited_at[k + 1] = (e * e.conjugate()).real
        done = k + 1
        if (e * e.conjugate()).real + sum(weights) < tiny:  # bounds the norm in flight
            break
    # the ring from its oldest slot: right boxes 1..N-2 hold the N-2 newest
    # emissions, the next one is split into the transmitted box and left box
    # N-2, older ones move left
    oldest = done % delay
    by_age = weights[oldest:] + weights[:oldest]
    split = delay - lag
    in_flight = (e * e.conjugate()).real + sum(by_age[split + 1 :]) + transmitted * by_age[split]
    in_flight += reflected * sum(by_age[: split + 1])
    drop = drop[:done]
    survival = np.zeros(n_steps + 1)
    survival[:done] = drop
    survival[done] = in_flight
    np.cumsum(survival[done::-1], out=survival[done::-1])  # S[k] = S[k + 1] + drop[k]
    survival[0] = 1.0
    gone = (drop >= survival[:done]) | (survival[1 : done + 1] < tiny)
    stop = int(np.argmax(gone)) if gone.any() else done
    survival[stop + 1 :] = 0.0  # zeros after a stop
    excited[0] = 1.0
    excited[1 : stop + 1] /= survival[1 : stop + 1]
    excited[stop + 1 :] = 0.0
    return excited, survival


def _undetected(survival: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of the trajectories drawing uniforms `u` still undetected at each step.

    A trajectory is undetected at step k exactly when its threshold
    v = 1 - u is at most S[k], the chance that no detection came before k.
    """
    return np.searchsorted(np.sort(1.0 - u), survival, side="right")


def run_trajectory(config: TrajectoryConfig, trajectory_index: int) -> np.ndarray:
    """P_e time series of a single trajectory, sampled at every step start.

    The first sample is exactly 1 (initial state |e, 0>); the series has
    n_steps + 1 entries covering t = 0 .. t_max.  It is the no-jump P_e up
    to the trajectory's first detection, fixed by its own uniform, and zero
    after it.
    """
    excited, survival = _evolve(config)
    u = trajectory_rng(config.master_seed, trajectory_index).random(1)
    return excited * _undetected(survival, u)


def ensemble_average(config: TrajectoryConfig) -> EnsembleResult:
    """Mean P_e over the ensemble with per-time-point standard error.

    Trajectory i is the no-jump run cut at its first detection, fixed by
    uniform i of the master_seed stream, so at step k its P_e is P_e[k] or 0:
    the ensemble reduces to the count c[k] of trajectories not yet detected,
    the number of thresholds v = 1 - u with v <= S[k] (see `_undetected`):
    one sort of the thresholds and one binary search per step.  The mean is
    P_e (c / n) and the standard error P_e sqrt(c (n - c) / (n - 1)) / n, the
    sample formulas over the rows that run_trajectory returns, without
    building them; where no trajectory is detected they give P_e and 0
    exactly, and where every trajectory is detected, 0 and 0.
    """
    n_traj = config.n_trajectories
    excited, survival = _evolve(config)
    u = trajectory_rng(config.master_seed, 0).random(n_traj)
    undetected = _undetected(survival, u)
    mean = excited * (undetected / n_traj)
    if n_traj > 1:
        stderr = excited * np.sqrt(undetected * (n_traj - undetected) / (n_traj - 1)) / n_traj
    else:
        stderr = np.zeros(config.n_steps + 1)
    return EnsembleResult(
        times=config.times, mean=mean, stderr=stderr, n_trajectories=n_traj,
        limit=excited * survival,
    )
