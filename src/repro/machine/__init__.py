"""Machine timing models: functional executor plus R4600/R10000 analogs."""

from .executor import ExecResult, ExecutionError, Executor, RunTrace, TraceEvent, execute
from .latencies import r4600_latency, r10000_latency
from .pipeline import R4600Model, TimingResult
from .superscalar import R10000Config, R10000Model

__all__ = [
    "ExecResult",
    "ExecutionError",
    "Executor",
    "RunTrace",
    "TraceEvent",
    "execute",
    "r4600_latency",
    "r10000_latency",
    "R4600Model",
    "TimingResult",
    "R10000Config",
    "R10000Model",
]
