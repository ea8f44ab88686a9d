"""Experiment harness: job launcher, fault schedules, metrics, reports."""

from repro.harness.runner import Job, JobResult, cluster_for
from repro.harness.faults import CrashSpec, FaultSchedule

__all__ = ["CrashSpec", "FaultSchedule", "Job", "JobResult", "cluster_for"]
