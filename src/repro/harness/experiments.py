"""Experiment definitions: one entry per paper table/figure plus ablations.

Scales
------
``quick`` (default) runs class C on 64 ranks with capped iterations so the
whole bench suite finishes in minutes on a laptop; ``paper`` runs the
paper's exact configuration (class D, 256 ranks, full iteration counts) —
select with ``REPRO_SCALE=paper``.  Overheads are ratios, so the shape
claims survive the scaling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.cm1 import cm1_rank
from repro.apps.hpccg import hpccg_rank
from repro.apps.nas import NAS_APPS
from repro.apps.netpipe import DEFAULT_SIZES, netpipe_sweep
from repro.core.config import ReplicationConfig
from repro.harness.metrics import overhead_pct
from repro.harness.runner import Job, cluster_for

__all__ = [
    "Scale",
    "current_scale",
    "run_nas",
    "run_hpccg",
    "run_cm1",
    "fig7",
    "nas_overhead",
    "app_overhead",
]


@dataclass(frozen=True)
class Scale:
    """One evaluation scale."""

    name: str
    n_ranks: int
    nas_class: str
    nas_iter_cap: Optional[int]
    hpccg_iters: int
    cm1_steps: int
    netpipe_iters: int
    #: OS-noise sigma applied to compute phases (see Cluster.compute_noise)
    noise: float = 0.08

    def nas_iters(self, default: int) -> Optional[int]:
        if self.nas_iter_cap is None:
            return None  # use the class's official count
        return min(default, self.nas_iter_cap)


SCALES: Dict[str, Scale] = {
    "quick": Scale("quick", n_ranks=64, nas_class="C", nas_iter_cap=10,
                   hpccg_iters=20, cm1_steps=10, netpipe_iters=10),
    "small": Scale("small", n_ranks=16, nas_class="A", nas_iter_cap=5,
                   hpccg_iters=10, cm1_steps=5, netpipe_iters=5),
    "paper": Scale("paper", n_ranks=256, nas_class="D", nas_iter_cap=None,
                   hpccg_iters=149, cm1_steps=200, netpipe_iters=10),
}


def current_scale() -> Scale:
    name = os.environ.get("REPRO_SCALE", "quick")
    if name not in SCALES:
        raise ValueError(f"unknown REPRO_SCALE {name!r}; known scales: {', '.join(sorted(SCALES))}")
    return SCALES[name]


def _cfg(protocol: str, degree: int = 2) -> ReplicationConfig:
    if protocol == "native":
        return ReplicationConfig(degree=1, protocol="native")
    return ReplicationConfig(degree=degree, protocol=protocol)


def _run(
    app: Callable, n_ranks: int, protocol: str, degree: int = 2, noise: float = 0.0, **kwargs
) -> Tuple[float, Any]:
    cfg = _cfg(protocol, degree)
    cluster = cluster_for(n_ranks, cfg.degree, compute_noise=noise)
    job = Job(n_ranks, cfg=cfg, cluster=cluster)
    res = job.launch(app, **kwargs).run()
    return res.runtime, res


def run_nas(name: str, protocol: str, scale: Optional[Scale] = None, degree: int = 2) -> Tuple[float, Any]:
    scale = scale or current_scale()
    from repro.apps.nas.common import PROBLEMS

    prob = PROBLEMS[name][scale.nas_class]
    return _run(
        NAS_APPS[name],
        scale.n_ranks,
        protocol,
        degree,
        noise=scale.noise,
        klass=scale.nas_class,
        iters=scale.nas_iters(prob.iterations),
    )


def run_hpccg(protocol: str, scale: Optional[Scale] = None, degree: int = 2) -> Tuple[float, Any]:
    scale = scale or current_scale()
    return _run(hpccg_rank, scale.n_ranks, protocol, degree, noise=scale.noise, iters=scale.hpccg_iters)


def run_cm1(protocol: str, scale: Optional[Scale] = None, degree: int = 2) -> Tuple[float, Any]:
    scale = scale or current_scale()
    return _run(cm1_rank, scale.n_ranks, protocol, degree, noise=scale.noise, steps=scale.cm1_steps)


def nas_overhead(name: str, scale: Optional[Scale] = None, protocol: str = "sdr") -> Dict[str, float]:
    """One Table 1 row: native vs replicated runtime and overhead %."""
    native, _ = run_nas(name, "native", scale)
    replicated, res = run_nas(name, protocol, scale)
    return {
        "native_s": native,
        "replicated_s": replicated,
        "overhead_pct": overhead_pct(native, replicated),
        "acks": res.stat_total("acks_sent"),
    }


def app_overhead(which: str, scale: Optional[Scale] = None, protocol: str = "sdr") -> Dict[str, float]:
    """One Table 2 row (HPCCG or CM1)."""
    runner = {"HPCCG": run_hpccg, "CM1": run_cm1}[which]
    native, _ = runner("native", scale)
    replicated, res = runner(protocol, scale)
    return {
        "native_s": native,
        "replicated_s": replicated,
        "overhead_pct": overhead_pct(native, replicated),
        "unexpected": res.stat_total("unexpected_count"),
        "acks": res.stat_total("acks_sent"),
    }


def fig7(sizes=DEFAULT_SIZES, iters: Optional[int] = None) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Regenerate Fig. 7a/7b: NetPipe sweeps, native and SDR-MPI."""
    iters = iters if iters is not None else current_scale().netpipe_iters
    return {
        "native": netpipe_sweep("native", sizes=sizes, iters=iters),
        "sdr": netpipe_sweep("sdr", sizes=sizes, iters=iters),
    }
