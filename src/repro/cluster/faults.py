"""Deterministic fault injection and recovery for the simulated cluster.

The paper's benchmark assumes a 32-machine cluster where no worker ever
fails, but both substrate systems are built for environments where they
do: DistDGL layers sampler/server retry and restartable trainers over its
partitioned graph, and DistGNN's full-batch BSP epochs are the classic
checkpoint/restart workload. This module represents failures explicitly:

* :class:`FaultEvent` — one injected fault: a machine crash, a transient
  slowdown (straggler) or a lost message, pinned to an epoch (and, for
  mini-batch training, a step within it).
* :class:`FaultPlan` — an immutable, seeded schedule of fault events.
  ``FaultPlan.generate`` draws events from per-(epoch, machine) Bernoulli
  trials with a dedicated ``numpy`` generator, so a plan is a pure
  function of its arguments: the same seed always yields the same
  failures, which keeps fault sweeps record-identical between the serial
  and process-parallel runners.
* :class:`RecoveryPolicy` — how the engines respond: checkpoint/restart
  every ``checkpoint_every`` epochs (full-batch), per-minibatch retry
  with exponential backoff plus graceful degradation to the surviving
  workers (mini-batch).
* :class:`FaultSummary` — mutable counters an engine fills in while it
  simulates a faulty run; the time side of recovery is charged through
  the cluster timeline (phases named ``fault-*``, ``replay:*`` and
  ``checkpoint``) so it shows up in the Chrome trace like any other
  phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "RecoveryPolicy",
    "FaultSummary",
]

#: The three failure modes the simulator injects.
FAULT_KINDS: Tuple[str, ...] = ("crash", "slowdown", "lost-message")

_KIND_ORDER = {kind: i for i, kind in enumerate(FAULT_KINDS)}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    ``epoch`` pins the event to a training epoch. ``step`` is only
    meaningful for mini-batch training, where it selects the step within
    the epoch (taken modulo the epoch's step count, so plans are valid
    for any batch size); full-batch training ignores it. ``magnitude``
    is the slowdown factor for ``slowdown`` events (2.0 = half speed)
    and unused otherwise.
    """

    kind: str
    epoch: int
    machine: int
    step: int = 0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.epoch < 0:
            raise ValueError("fault epoch must be non-negative")
        if self.machine < 0:
            raise ValueError("fault machine must be non-negative")
        if self.step < 0:
            raise ValueError("fault step must be non-negative")
        if not math.isfinite(self.magnitude):
            raise ValueError("fault magnitude must be finite")
        if self.kind == "slowdown" and self.magnitude < 1.0:
            raise ValueError(
                "slowdown magnitude is a stretch factor and must be >= 1"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events, sorted deterministically."""

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        events = tuple(
            sorted(
                self.events,
                key=lambda e: (
                    e.epoch, e.step, _KIND_ORDER[e.kind], e.machine
                ),
            )
        )
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"FaultPlan takes FaultEvent instances, got "
                    f"{type(event).__name__}"
                )
        object.__setattr__(self, "events", events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def crashes_at(self, epoch: int) -> Tuple[FaultEvent, ...]:
        """Crash events scheduled for ``epoch``."""
        return tuple(
            e for e in self.events
            if e.epoch == epoch and e.kind == "crash"
        )

    def slowdowns_at(self, epoch: int) -> Tuple[FaultEvent, ...]:
        """Slowdown events scheduled for ``epoch``."""
        return tuple(
            e for e in self.events
            if e.epoch == epoch and e.kind == "slowdown"
        )

    def losses_at(self, epoch: int) -> Tuple[FaultEvent, ...]:
        """Lost-message events scheduled for ``epoch``."""
        return tuple(
            e for e in self.events
            if e.epoch == epoch and e.kind == "lost-message"
        )

    @classmethod
    def generate(
        cls,
        num_machines: int,
        num_epochs: int,
        crash_rate: float = 0.0,
        slowdown_rate: float = 0.0,
        loss_rate: float = 0.0,
        slowdown_factor: float = 4.0,
        seed: int = 0,
    ) -> "FaultPlan":
        """Draw a plan from per-(epoch, machine) Bernoulli trials.

        Each rate is the probability that the corresponding fault strikes
        a given machine in a given epoch. All randomness comes from one
        ``default_rng(seed)`` consumed in a fixed order, so the plan is a
        pure function of the arguments.
        """
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        if num_epochs < 0:
            raise ValueError("num_epochs must be non-negative")
        for label, rate in (
            ("crash_rate", crash_rate),
            ("slowdown_rate", slowdown_rate),
            ("loss_rate", loss_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if not 1.0 <= slowdown_factor < math.inf:  # NaN fails both
            raise ValueError("slowdown_factor must be finite and >= 1")
        rng = np.random.default_rng(seed)
        shape = (num_epochs, num_machines)
        crash_draw = rng.random(shape)
        slow_draw = rng.random(shape)
        loss_draw = rng.random(shape)
        step_draw = rng.integers(0, 1 << 30, size=shape)
        events = []
        for epoch in range(num_epochs):
            for machine in range(num_machines):
                step = int(step_draw[epoch, machine])
                if crash_draw[epoch, machine] < crash_rate:
                    events.append(
                        FaultEvent("crash", epoch, machine, step=step)
                    )
                if slow_draw[epoch, machine] < slowdown_rate:
                    events.append(
                        FaultEvent(
                            "slowdown", epoch, machine,
                            magnitude=slowdown_factor,
                        )
                    )
                if loss_draw[epoch, machine] < loss_rate:
                    events.append(
                        FaultEvent(
                            "lost-message", epoch, machine, step=step
                        )
                    )
        return cls(events=tuple(events), seed=seed)


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the engines respond to injected faults.

    Full-batch (DistGNN): a checkpoint of model + optimizer state is
    written every ``checkpoint_every`` epochs; on a crash the cluster
    stalls for ``detection_timeout_seconds``, restores the last
    checkpoint (restore time covers model state plus re-loading the
    crashed partitions' graph structure and features, so skewed
    partitions pay more) and re-executes the epochs since it.

    Mini-batch (DistDGL): a crashed worker's step is retried
    ``max_retries`` times with exponential backoff
    (``backoff_base_seconds * backoff_factor**attempt``); when the
    worker stays dead the epoch degrades gracefully to the surviving
    workers, and the dead trainer restarts (re-loading its partition)
    at the next epoch boundary.
    """

    checkpoint_every: int = 5
    max_retries: int = 3
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    detection_timeout_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        # Written so that NaN, which fails every comparison, fails here.
        for label, value, low in (
            ("backoff_base_seconds", self.backoff_base_seconds, 0.0),
            ("backoff_factor", self.backoff_factor, 1.0),
            ("detection_timeout_seconds", self.detection_timeout_seconds, 0.0),
        ):
            if not low <= value < math.inf:
                raise ValueError(f"{label} must be finite and >= {low:g}")

    def backoff_seconds(self) -> float:
        """Total wait across all retry attempts for one crashed step."""
        return float(
            sum(
                self.backoff_base_seconds * self.backoff_factor ** attempt
                for attempt in range(self.max_retries)
            )
        )


@dataclass
class FaultSummary:
    """Counters an engine fills in while simulating a faulty run.

    The *time* cost of recovery is not duplicated here: it is charged to
    the cluster timeline as phases named ``fault-*`` (detection, backoff,
    restore, restart, retransmit), ``replay:*`` (re-executed epochs) and
    ``checkpoint``, and read back via
    :meth:`repro.cluster.Timeline.recovery_seconds` /
    :meth:`repro.cluster.Timeline.checkpoint_seconds`.
    """

    crashes: int = 0
    slowdowns: int = 0
    lost_messages: int = 0
    retries: int = 0
    degraded_steps: int = 0
    reexecuted_epochs: int = 0
    checkpoints: int = 0
