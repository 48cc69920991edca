"""Piecewise-constant desired-orientation schedule with error-triggered switching.

The desired heading holds its current value until every agent's heading is
within the tracking error of it, then jumps to the next segment.  The jump
magnitudes D_k are summable by construction (finite list).

A schedule is configuration only: the run that follows it keeps its current
segment and the instants at which it switched (see ``run_epoch``), and asks
it about a block of successive instants at a time.  A constant reference is
the one-segment schedule, which never switches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _require_bool, _require_finite


@dataclass(frozen=True)
class ReferenceSchedule:
    headings: list[float]
    epsilon: float = 0.05
    # trigger over all agents by default; followers-only is a sensitivity flag
    restrict_to_followers: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.headings, (list, tuple)) or not self.headings:
            raise ValueError(f"schedule headings must be a list of at least one desired heading, "
                             f"got {self.headings!r}")
        for i, heading in enumerate(self.headings):
            _require_finite(f"schedule headings[{i}]", heading)
        _require_finite("schedule epsilon", self.epsilon)
        if not self.epsilon > 0:
            raise ValueError(f"schedule epsilon must be positive, got {self.epsilon}")
        _require_bool("schedule restrict_to_followers", self.restrict_to_followers)

    @property
    def jumps(self) -> np.ndarray:
        """D_k = |theta_bar_{k+1} - theta_bar_k|."""
        return np.abs(np.diff(np.asarray(self.headings, dtype=float)))

    def total_variation(self) -> float:
        return float(self.jumps.sum())

    def maybe_advance(self, headings: np.ndarray, leader_mask: np.ndarray,
                      segment: int) -> int | None:
        """The first row of the (n, m) block ``headings`` of successive
        instants at which a run at ``segment`` switches to the next segment:
        the first whose max heading error over the trigger set against the
        segment's desired heading is <= epsilon.  None when no row does, when
        there is no next segment, or when the block is empty."""
        if segment >= len(self.headings) - 1 or not len(headings):
            return None
        if self.restrict_to_followers and leader_mask.any():
            headings = headings[:, ~leader_mask]
        errors = np.abs(headings - float(self.headings[segment])).max(axis=1)
        rows = np.flatnonzero(errors <= self.epsilon)
        return int(rows[0]) if len(rows) else None
