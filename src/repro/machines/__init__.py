"""Models of the six shared-memory multiprocessors hosting the Force.

§4.1 of the paper catalogues exactly what varies between machines:

* **process creation** — UNIX fork/join with full data+stack copy
  (Encore, Sequent), a fork variant sharing all data segments (Alliant),
  or cheap subroutine-call process creation (HEP);
* **lock support** — software test&set spinlocks (Sequent, Encore),
  operating-system call locks (Cray), a combined spin-then-syscall lock
  (Flex), or hardware full/empty bits on every memory cell (HEP);
* **shared-memory binding time** — compile time (HEP, Flex), link time
  via a two-run startup/linker protocol (Sequent), or run time with
  shared pages and padding (Encore; Alliant additionally requires
  sharing to begin on a page boundary).

Each :class:`MachineModel` captures those axes plus a cycle-cost table
used by the discrete-event simulator, so lock contention, process
creation overhead and barrier scaling take machine-specific shapes.
"""

from repro._util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.machines.model": ("CostTable", "LockType", "MachineModel",
                             "ProcessModel", "SharingBinding"),
    "repro.machines.catalog": ("ALLIANT_FX8", "CRAY_2", "ENCORE_MULTIMAX",
                               "FLEX_32", "HEP", "MACHINES", "PYTHON_HOST",
                               "SEQUENT_BALANCE", "get_machine",
                               "machine_names"),
    "repro.machines.memory": ("MemoryLayout", "SharedArena",
                              "SharedRegionPlan"),
    "repro._util.errors": ("MachineError",),
})
