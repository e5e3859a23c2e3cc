"""Recorded paths of the frequency processes and their CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class Trajectory:
    """States recorded along one run: ``states[j]`` at ``times[j]``.

    Times are generation indices for the finite-population chain and real
    times for the limit process.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("times and states must have matching length")

    @property
    def K(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]


def write_trajectories_csv(path, trajectories, replicate_ids=None) -> None:
    """Write ``t,x_1,...,x_K,replicate`` rows for one or many trajectories."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("nothing to write")
    K = trajectories[0].K
    if replicate_ids is None:
        replicate_ids = range(len(trajectories))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(K)] + ["replicate"])
        for rep, traj in zip(replicate_ids, trajectories):
            # csv writes a Python float as its repr, the shortest string that reads back exactly
            writer.writerows(row + [rep] for row in np.column_stack((traj.times, traj.states)).tolist())


def write_ancestral_csv(path, paths, replicate_ids=None) -> None:
    """Write ``t,n,replicate`` rows for block-count paths (times, states)."""
    paths = list(paths)
    if replicate_ids is None:
        replicate_ids = range(len(paths))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "replicate"])
        for rep, (times, states) in zip(replicate_ids, paths):
            for t, n in zip(times, states):
                writer.writerow([repr(float(t)), int(n), rep])
