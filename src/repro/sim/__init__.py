"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free cooperative simulation engine in the style of
SimPy.  Application code runs as generator-based :class:`~repro.sim.process.Process`
objects scheduled by a :class:`~repro.sim.kernel.Simulator` with a virtual
clock.  All scheduling is deterministic: events firing at the same virtual
time are ordered by a monotonically increasing sequence number, so two runs
of the same program produce bit-identical event orders.

The kernel knows nothing about MPI or networks; those live in
:mod:`repro.network` and :mod:`repro.mpi`.
"""

from repro.sim.kernel import Simulator, SimulationError, StopSimulation
from repro.sim.process import Process, ProcessCrashed, ProcessFailure
from repro.sim.sync import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "ProcessCrashed",
    "ProcessFailure",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
]
