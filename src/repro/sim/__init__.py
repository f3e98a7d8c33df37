"""Discrete-event simulation of both token ring protocols.

The simulators exist to *validate* the schedulability analyses: a message
set that Theorem 4.1 / 5.1 declares schedulable must never miss a deadline
in simulation, under critical-instant phasings and saturating asynchronous
background traffic.  Each protocol has one discrete-event simulator
(:class:`PDPRingSimulator`, :class:`TTPRingSimulator`), which is the
specification the analyses are checked against, plus the faithful 802.5
model for the fidelity comparison.  They also expose protocol-level
quantities the analyses only bound — actual token rotation times,
per-message response times, medium utilization — for the examples and
ablation studies.

* :mod:`~repro.sim.engine` — a from-scratch event-queue kernel (the
  environment has no simpy; see DESIGN.md §5).
* :mod:`~repro.sim.token_ring` — shared ring plumbing: station geometry,
  token walk segments, message/transmission records.
* :mod:`~repro.sim.traffic` — periodic synchronous sources and saturating
  asynchronous background sources.
* :mod:`~repro.sim.pdp_sim` — the priority driven protocol (standard and
  modified IEEE 802.5) at frame-arbitration granularity.
* :mod:`~repro.sim.ieee8025` — the protocol-faithful 802.5 variant with
  real token priority/reservation fields, priority stacking, and the
  8-level service-priority quantization.
* :mod:`~repro.sim.ttp_sim` — the timed token protocol with the FDDI
  timer rules (TRT, THT, late count) and synchronous bandwidths.
* :mod:`~repro.sim.trace` — deadline accounting and rotation statistics.
* :mod:`~repro.sim.validate` — analysis-versus-simulation cross checks.
"""

from repro.sim.engine import Simulator
from repro.sim.ieee8025 import IEEE8025Config, IEEE8025Simulator
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig
from repro.sim.trace import DeadlineStats, SimulationReport
from repro.sim.traffic import ArrivalPhasing, SynchronousTraffic
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig
from repro.sim.validate import cross_validate_pdp, cross_validate_ttp

__all__ = [
    "Simulator",
    "IEEE8025Simulator",
    "IEEE8025Config",
    "PDPRingSimulator",
    "PDPSimConfig",
    "TTPRingSimulator",
    "TTPSimConfig",
    "SynchronousTraffic",
    "ArrivalPhasing",
    "DeadlineStats",
    "SimulationReport",
    "cross_validate_pdp",
    "cross_validate_ttp",
]
