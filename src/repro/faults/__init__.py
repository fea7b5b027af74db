"""Deterministic fault injection and chaos testing for the Force.

Public surface:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultSpec`,
  the ``KIND@SITE[/NAME][:key=value,...]`` spec grammar, and
  :func:`random_plan` for seeded plan derivation;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` consulted
  from the runtime's interception sites, plus the fault exceptions;
* :mod:`repro.faults.corpus` — native workloads with result oracles;
* :mod:`repro.faults.chaos` — the sweep harness behind ``force chaos``.

Every name resolves on first use (PEP 562): the runtime imports
:mod:`repro.faults.injector`, and chaos imports the runtime, so eager
re-export here would be circular.
"""

from repro._util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.plan": ("FAULT_KINDS", "NOTIFY_SITES", "SITES",
                          "FaultPlan", "FaultSpec", "FaultSpecError",
                          "parse_fault_spec", "random_plan"),
    "repro.faults.injector": ("FaultInjector", "InjectedDeath",
                              "InjectedFault", "InjectionRecord"),
    "repro.faults.corpus": ("CORPUS", "ChaosCheckError", "ChaosProgram"),
    "repro.faults.chaos": ("ChaosOutcome", "ChaosReport", "chaos_sweep",
                           "render_report", "run_one",
                           "write_failure_artifacts"),
})
