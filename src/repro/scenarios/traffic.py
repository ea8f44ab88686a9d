"""Open-loop traffic scenarios: Poisson, bursty on/off, diurnal.

Each scenario binds the :mod:`repro.sim.traffic` engine onto the
campaign's batching grid: ``steps`` epochs spanning the fault-active
window (so seeded fault mixes land under live client load), a bounded
admission queue per client, and the seeded arrival plans drawn from the
dedicated ``traffic.*`` RNG streams.  The bound scenario carries the
:class:`~repro.sim.traffic.TrafficBook` the job surfaces in
``JobResult`` and the campaign audits for request-accounting balance.

The default rate (3.2 M req/s per client over 5 µs epochs) offers a mean
of ~16 requests per epoch against a 12-slot queue — a mild structural
overload, so every run exercises the rejection path, while fault-induced
loss (``requests_lost``) stays attributable to the mix, not the load.
"""

from __future__ import annotations

from repro.scenarios.base import BoundScenario, Scenario, register
from repro.sim.traffic import (
    TrafficBook,
    TrafficConfig,
    build_plans,
    expected_traffic_results,
    open_loop_app,
    scaled_config,
)

__all__ = ["TrafficScenario"]


class TrafficScenario(Scenario):
    """One open-loop client population, parameterized by arrival shape."""

    def __init__(self, name: str, description: str, template: TrafficConfig) -> None:
        super().__init__(
            name, description,
            min_ranks=2,
            # clients carry TrafficState through recovery points
            supports_respawn=True,
        )
        self.template = template

    def bind(self, cfg, seed: int) -> BoundScenario:
        tcfg = scaled_config(self.template, cfg.steps, cfg.active)
        plans = build_plans(tcfg, cfg.n_ranks, seed)
        book = TrafficBook(plans)
        return BoundScenario(
            factory=open_loop_app,
            kwargs={"book": book},
            expected=expected_traffic_results(plans),
            traffic=book,
        )


register(TrafficScenario(
    "traffic-poisson",
    "open-loop Poisson arrivals, epoch-batched through one commit allreduce",
    TrafficConfig(process="poisson"),
))
register(TrafficScenario(
    "traffic-bursty",
    "open-loop bursty on/off arrivals (8:1 burst ratio, 4-epoch period)",
    TrafficConfig(process="bursty"),
))
register(TrafficScenario(
    "traffic-diurnal",
    "open-loop diurnal sinusoidal arrivals (0.9 amplitude over the run)",
    TrafficConfig(process="diurnal"),
))
