"""The synchronous message model of Section 3.2.

A real-time workload is a :class:`~repro.messages.message_set.MessageSet` of
:class:`~repro.messages.stream.SynchronousStream` objects — one periodic
stream per station, deadline equal to period.  Payload lengths are stored in
*bits* (the physical quantity); transmission times ``C_i`` are derived from
the ring bandwidth at analysis time, which lets one message set be evaluated
across a whole bandwidth sweep.

:mod:`~repro.messages.generators` draws random message sets from the
distributions of the paper's Monte Carlo study, and
:mod:`~repro.messages.transforms` provides the scaling operations used to
drive a set to its saturation boundary.
"""

from repro.messages.generators import (
    MessageSetSampler,
    PeriodDistribution,
    uniform_period_bounds,
)
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.messages.transforms import (
    scale_payloads,
    set_utilization,
    with_payloads,
)

__all__ = [
    "SynchronousStream",
    "MessageSet",
    "MessageSetSampler",
    "PeriodDistribution",
    "uniform_period_bounds",
    "scale_payloads",
    "set_utilization",
    "with_payloads",
]
