"""User-level critical sections — the paper's §4.4 extension.

The paper's mechanism only accelerates *kernel* critical services,
because only the kernel symbol table is available to the hypervisor.
§4.4 sketches the extension we implement here:

    "A new user-level interface can be added to describe the user-level
    critical sections, and make them accessible from the hypervisor.
    The hypervisor will be able to register the critical regions in its
    separate per-process symbol table, and accelerate those regions on
    the micro-sliced CPU pool."

Pieces:

* :class:`UserCriticalRegistry` — a per-domain table of user-space
  address ranges declared critical (the "per-process symbol table").
  Applications register regions by name; each gets a synthetic address
  range in user space, exactly parallel to the kernel ``System.map``.
* :class:`UserAwareDetector` — extends the IP detector: when the kernel
  table misses (user-space IP), consult the domain's user registry; a
  hit classifies as :data:`USER_CRITICAL`.
* Guest side: task programs mark critical bodies by computing at
  ``symbol="user:<region>"``; ``GuestKernel.addr_for`` materialises
  those into the registered ranges.

Workloads using plain user-space locks (futex-style: user spinlock,
sleep on contention) get the same LHP pathology as kernel locks; with
the extension the preempted holder is detected and accelerated.
"""

from ..errors import SymbolTableError
from .detection import CriticalServiceDetector

#: Criticality class for registered user regions (not part of Table 3).
USER_CRITICAL = "user_critical"

#: Registered regions live in their own user-space window, far from the
#: synthetic program text at USER_IP.
USER_CRIT_BASE = 0x00007F0000000000
USER_CRIT_REGION_SIZE = 0x1000


class UserCriticalRegistry:
    """Per-domain table of declared user-level critical regions."""

    def __init__(self):
        self._regions = {}       # name -> (start, end)
        self._ordered = []       # (start, end, name), sorted

    def register(self, name, size=USER_CRIT_REGION_SIZE):
        """Declare a region; returns its synthetic start address.
        Idempotent per name."""
        if name in self._regions:
            return self._regions[name][0]
        start = USER_CRIT_BASE + len(self._ordered) * USER_CRIT_REGION_SIZE
        end = start + min(size, USER_CRIT_REGION_SIZE)
        self._regions[name] = (start, end)
        self._ordered.append((start, end, name))
        return start

    def addr_of(self, name):
        try:
            return self._regions[name][0]
        except KeyError:
            raise SymbolTableError("unregistered user region %r" % name) from None

    def resolve(self, address):
        """Region name containing ``address``, or ``None``."""
        if address is None or not (
            USER_CRIT_BASE
            <= address
            < USER_CRIT_BASE + len(self._ordered) * USER_CRIT_REGION_SIZE
        ):
            return None
        index = (address - USER_CRIT_BASE) // USER_CRIT_REGION_SIZE
        start, end, name = self._ordered[index]
        return name if start <= address < end else None

    def __len__(self):
        return len(self._regions)

    def __contains__(self, name):
        return name in self._regions


class UserAwareDetector(CriticalServiceDetector):
    """IP detector that also consults per-domain user registries."""

    def resolve(self, vcpu):
        answer = super().resolve(vcpu)
        if answer[0] is not None or answer[1] is not None:
            return answer
        registry = getattr(vcpu.domain, "user_critical", None)
        if registry is None:
            return answer
        region = registry.resolve(vcpu.domain.kernel.addr_for(vcpu.current_symbol))
        if region is None:
            return answer
        self.hits += 1
        return "user:%s" % region, USER_CRITICAL


def enable_user_critical(domain):
    """Attach a user-critical registry to a domain (the guest exposing
    its per-process table to the hypervisor). Returns the registry."""
    registry = getattr(domain, "user_critical", None)
    if registry is None:
        registry = UserCriticalRegistry()
        domain.user_critical = registry
        domain.kernel.user_critical = registry
    return registry
