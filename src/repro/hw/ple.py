"""Pause-Loop Exiting (PLE) model.

Intel/AMD processors count PAUSE instructions executed in a tight spin;
when the count inside a window exceeds a threshold the CPU raises a
VMEXIT (``EXIT_REASON_PAUSE_INSTRUCTION``) so the hypervisor can
deschedule the spinning vCPU. In time terms that contract is simply
"spinning continuously for longer than a window traps", which is how we
model it: the executor lets a vCPU spin for :attr:`window` nanoseconds
and then reports a PLE exit.
"""

from dataclasses import dataclass

from ..runner.jobs import DEFAULT_PLE_WINDOW


@dataclass
class PleConfig:
    """PLE hardware configuration.

    The default ``ple_window`` is 4096 cycles — ~1.7 µs at the E5645's
    2.4 GHz; we charge 3 µs per spin round (window plus trap/re-entry
    overhead). Xen 4.x used the static hardware default, which is what
    produces the paper's tens-of-millions co-run yield counts (Table 2):
    any wait stretched by a preempted peer traps within microseconds.
    """

    enabled: bool = True
    window: int = DEFAULT_PLE_WINDOW

    def spin_budget(self):
        """How long a vCPU may spin before the hardware traps, or ``None``
        when PLE is disabled (it spins until its slice expires)."""
        return self.window if self.enabled else None
