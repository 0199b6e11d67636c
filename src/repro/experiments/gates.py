"""One gate evaluator for the six ``BENCH_*.json`` capability benches.

Each bench module declares its gates as a plain table of :class:`Gate`
entries: a name, a check over the assembled report and, for a gate that
only means something on some hosts or injection plans, a requirement
that returns the reason to skip it (``None`` when the gate can run).

:func:`evaluate` fills ``report["gates"]`` (name → bool) and
``report["gates_skipped"]`` (``{gate, reason}``).  A check reads its
readings straight out of the report, so a missing reading raises
instead of quietly skipping the gate.  :func:`assert_gates` fails
unless every declared gate either passed or is listed as skipped with a
reason.  :func:`host_facts` is the host header every document carries.
"""

from __future__ import annotations

import os
import platform
from typing import Callable, NamedTuple, Sequence

#: The process-vs-serial 2x gate only means something with real cores
#: and enough sites to amortise worker warm-up; below either threshold
#: the gate is recorded under ``gates_skipped`` instead.
PROCESS_SPEEDUP_BOUND = 2.0
PROCESS_2X_MIN_CPUS = 4
PROCESS_2X_MIN_SITES = 10_000


class Gate(NamedTuple):
    name: str
    check: Callable[[dict], bool]
    requires: "Callable[[dict], str | None] | None" = None


def host_facts() -> dict:
    """CPUs this process may run on, the Python version and the code
    fingerprint — the header of every BENCH document.

    ``cpu_count`` is the affinity mask's size, not the machine's: a gate
    that needs N cores must count the cores the run can use.
    """
    from repro.experiments.runner import code_fingerprint

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without an affinity API
        cpus = os.cpu_count() or 1
    return {"cpu_count": cpus, "python": platform.python_version(),
            "code_fingerprint": code_fingerprint()}


def process_2x_unmet(cpus: int, sites: int) -> "str | None":
    """Why the process-2x-serial gate cannot run, or ``None``."""
    if cpus >= PROCESS_2X_MIN_CPUS and sites >= PROCESS_2X_MIN_SITES:
        return None
    return (f"needs >= {PROCESS_2X_MIN_CPUS} CPUs (have {cpus}) and >= "
            f"{PROCESS_2X_MIN_SITES} sites (have {sites})")


def evaluate(report: dict, table: Sequence[Gate]) -> dict:
    """Fill ``gates`` and ``gates_skipped`` of ``report`` from ``table``."""
    gates: dict[str, bool] = {}
    skipped: list[dict] = []
    for gate in table:
        reason = gate.requires(report) if gate.requires else None
        if reason:
            skipped.append({"gate": gate.name, "reason": reason})
        else:
            gates[gate.name] = bool(gate.check(report))
    report["gates"], report["gates_skipped"] = gates, skipped
    return report


def failures(report: dict, table: Sequence[Gate]) -> "list[str]":
    """Every declared gate that failed, or was neither evaluated nor
    skipped with a reason."""
    reasons = {entry["gate"]: entry.get("reason")
               for entry in report["gates_skipped"]}
    problems = []
    for gate in table:
        if gate.name in report["gates"]:
            if not report["gates"][gate.name]:
                problems.append(f"{gate.name} failed")
        elif not reasons.get(gate.name):
            problems.append(f"{gate.name} neither evaluated nor skipped "
                            "with a reason")
    return problems


def assert_gates(report: dict, table: Sequence[Gate]) -> None:
    problems = failures(report, table)
    if problems:
        raise AssertionError("; ".join(problems))
