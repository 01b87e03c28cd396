"""Discrete-event sensor-network simulation substrate."""

from repro.sim.energy import EnergyModel
from repro.sim.engine import ArrayNetwork
from repro.sim.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.kernel import Event, EventKernel, TimerWheelKernel
from repro.sim.radio import LossyLinkModel
from repro.sim.messages import (
    CATEGORY_CLUSTERING,
    CATEGORY_DATA,
    CATEGORY_QUERY,
    CATEGORY_REPAIR,
    CATEGORY_SYNC,
    CATEGORY_UPDATE,
    Message,
)
from repro.sim.network import ENGINE_ENV, Network, default_engine
from repro.sim.node import ProtocolNode
from repro.sim.stats import MessageStats

__all__ = [
    "ArrayNetwork",
    "ENGINE_ENV",
    "CATEGORY_CLUSTERING",
    "CATEGORY_DATA",
    "CATEGORY_QUERY",
    "CATEGORY_REPAIR",
    "CATEGORY_SYNC",
    "CATEGORY_UPDATE",
    "EnergyModel",
    "Event",
    "EventKernel",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LossyLinkModel",
    "Message",
    "MessageStats",
    "Network",
    "ProtocolNode",
    "TimerWheelKernel",
    "default_engine",
]
