"""Runtime substrate: machine, events, metrics, background threads."""

from .events import Event, EventKind, EventLog
from .machine import Machine, MachineError
from .metrics import Counters, FootprintTimeline, SimulationResult
from .threads import BackgroundWorker
from .trace_sim import PreparedTrace, simulate_trace

__all__ = [
    "BackgroundWorker",
    "Counters",
    "Event",
    "EventKind",
    "EventLog",
    "FootprintTimeline",
    "Machine",
    "MachineError",
    "PreparedTrace",
    "SimulationResult",
    "simulate_trace",
]
