"""Piecewise-constant desired-orientation schedule with error-triggered switching.

The desired heading holds its current value until every agent's heading is
within the tracking error of it, then jumps to the next segment.  The jump
magnitudes D_k are summable by construction (finite list).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import _require_bool, _require_finite


@dataclass
class ReferenceSchedule:
    headings: list[float]
    epsilon: float = 0.05
    current_segment: int = 0
    switch_log: list[int] = field(default_factory=list)
    # trigger over all agents by default; followers-only is a sensitivity flag
    restrict_to_followers: bool = False
    last_switch_index: int = -1

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

    @property
    def current_heading(self) -> float:
        return float(self.headings[self.current_segment])

    @property
    def exhausted(self) -> bool:
        return self.current_segment >= len(self.headings) - 1

    def total_variation(self) -> float:
        return float(self.jumps.sum())

    def max_tracking_error(self, state) -> float:
        headings = state.headings
        if self.restrict_to_followers and state.leader_mask.any():
            headings = headings[~state.leader_mask]
        return float(np.abs(headings - self.current_heading).max())

    def maybe_advance(self, state) -> bool:
        """Advance to the next segment when the max heading error over the
        trigger set is <= epsilon.  At most one switch per sampling instant."""
        if self.exhausted:
            return False
        if state.sample_index <= self.last_switch_index:
            return False
        if self.max_tracking_error(state) > self.epsilon:
            return False
        self.current_segment += 1
        self.switch_log.append(int(state.sample_index))
        self.last_switch_index = int(state.sample_index)
        return True

    def copy(self) -> "ReferenceSchedule":
        return ReferenceSchedule(headings=list(self.headings), epsilon=self.epsilon,
                                 current_segment=self.current_segment,
                                 switch_log=list(self.switch_log),
                                 restrict_to_followers=self.restrict_to_followers,
                                 last_switch_index=self.last_switch_index)

