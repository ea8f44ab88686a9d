"""The Scenario protocol and registry: one workload abstraction.

Before this package, workloads were wired into the harness three
different ways — the ``WORKLOADS`` dict in ``harness/campaign.py``, the
ad-hoc workload functions in ``tools/bench.py``, and per-file app
definitions in the ``benchmarks/`` ablation drivers.  A
:class:`Scenario` replaces all three: it owns the per-rank entrypoint
(the generator factory ``Job.launch`` consumes), declares its valid
rank/degree envelope (checked at *build* time, like the sweep axes), and
binds a campaign configuration + seed to a :class:`BoundScenario` — the
launch kwargs, the closed-form per-rank expected results, and (for the
open-loop family) the seeded :class:`~repro.sim.traffic.TrafficBook`.

Registration is declarative (module import registers the scenario); the
campaign runner, the sweep orchestrator, ``tools/bench.py`` and the
ablation drivers all resolve names through :func:`get_scenario`, so a
new workload lands everywhere at once.  See ``docs/workloads.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "ScenarioError",
    "BoundScenario",
    "Scenario",
    "ClosedLoopScenario",
    "register",
    "get_scenario",
    "scenario_names",
    "scenarios",
]


class ScenarioError(ValueError):
    """Unknown scenario, invalid registration, or rank/degree envelope
    violation — raised when the matrix is built, not when config #1731
    finally executes."""


@dataclass(frozen=True)
class BoundScenario:
    """One scenario resolved against a concrete ``(config, seed)``.

    ``factory`` + ``kwargs`` feed ``Job.launch``; ``expected`` is the
    ground truth every finished rank is classified against; ``traffic``
    (open-loop scenarios only) is the request ledger the job surfaces in
    ``JobResult`` and the campaign audits for zero-loss accounting.
    """

    factory: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    expected: Dict[int, float] = field(default_factory=dict)
    traffic: Optional[Any] = None


class Scenario:
    """One registered workload: entrypoint, validity envelope, binding.

    Subclasses implement :meth:`bind`.  ``supports_respawn`` declares
    whether the factory accepts ``state=`` (recovery forks); the fault
    sampler gates respawn/churn draws on it so a scenario that cannot
    fork is never asked to.  ``seed_free_binding`` declares that
    :meth:`bind` ignores its seed — one of the three conditions for the
    sweep executor's run memo (``docs/sweeps.md``).
    """

    seed_free_binding = False

    def __init__(
        self,
        name: str,
        description: str,
        *,
        min_ranks: int = 2,
        max_ranks: Optional[int] = None,
        pow2_ranks: bool = False,
        supports_respawn: bool = False,
    ) -> None:
        self.name = name
        self.description = description
        self.min_ranks = min_ranks
        self.max_ranks = max_ranks
        self.pow2_ranks = pow2_ranks
        self.supports_respawn = supports_respawn

    def check(self, n_ranks: int, degree: int) -> None:
        """Validate a ``(n_ranks, degree)`` shape against the envelope."""
        if n_ranks < self.min_ranks:
            raise ScenarioError(
                f"scenario {self.name!r} needs >= {self.min_ranks} ranks, got {n_ranks}"
            )
        if self.max_ranks is not None and n_ranks > self.max_ranks:
            raise ScenarioError(
                f"scenario {self.name!r} supports <= {self.max_ranks} ranks, got {n_ranks}"
            )
        if self.pow2_ranks and (n_ranks & (n_ranks - 1)):
            raise ScenarioError(
                f"scenario {self.name!r} needs a power-of-two rank count, got {n_ranks}"
            )
        if degree < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: replication degree must be >= 1, got {degree}"
            )

    def bind(self, cfg: Any, seed: int) -> BoundScenario:
        """Resolve against a campaign config (duck-typed: ``n_ranks``,
        ``degree``, ``steps``, ``horizon``, ``active``) and a seed."""
        raise NotImplementedError


class ClosedLoopScenario(Scenario):
    """The classic SPMD shape: a factory taking ``steps=``, a closed-form
    ``expected_fn(cfg)``, no traffic ledger."""

    seed_free_binding = True  # bind() below never reads its seed

    def __init__(
        self,
        name: str,
        description: str,
        factory: Callable[..., Any],
        expected_fn: Callable[[Any], Dict[int, float]],
        kwargs_fn: Optional[Callable[[Any], Dict[str, Any]]] = None,
        **env: Any,
    ) -> None:
        super().__init__(name, description, **env)
        self.factory = factory
        self.expected_fn = expected_fn
        self.kwargs_fn = kwargs_fn or (lambda cfg: {"steps": cfg.steps})

    def bind(self, cfg: Any, seed: int) -> BoundScenario:
        return BoundScenario(
            factory=self.factory,
            kwargs=self.kwargs_fn(cfg),
            expected=self.expected_fn(cfg),
        )


# ----------------------------------------------------------------- registry
_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add *scenario* to the registry; collides loudly on a name reuse."""
    if scenario.name in _REGISTRY:
        raise ScenarioError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown workload {name!r}; have {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def scenarios() -> List[Scenario]:
    return [_REGISTRY[name] for name in scenario_names()]
