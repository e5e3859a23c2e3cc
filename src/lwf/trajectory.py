"""CSV export of recorded paths of the frequency processes and of the lineage-count chain."""

from __future__ import annotations

import csv

import numpy as np


def write_trajectories_csv(path, times, states) -> None:
    """Write ``t,x_1,...,x_K,replicate`` rows, one replicate after another.

    ``states`` holds the recorded replicates, shape ``(len(times), R, K)``,
    numbered from 0.  Times are generation indices for the finite-population
    chain and real times for the limit process.
    """
    # the bytes of csv.writer, which writes a Python float as its repr, the shortest string that reads back exactly
    times = [f"{t!r}," for t in np.asarray(times, dtype=float).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + [f"x_{i + 1}" for i in range(states.shape[2])] + ["replicate"]) + "\r\n")
        for rep in range(states.shape[1]):
            end = f",{rep}\r\n"
            fh.writelines(t + ",".join(map(repr, row)) + end for t, row in zip(times, states[:, rep].tolist()))


def write_ancestral_csv(path, paths) -> None:
    """Write ``t,n,replicate`` rows for block-count paths ``(times, states)``, numbered from 0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "replicate"])
        for rep, (times, states) in enumerate(paths):
            writer.writerows([t, n, rep] for t, n in zip(times.tolist(), states.tolist()))
