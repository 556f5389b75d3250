"""Critical-OS-service detection (§4.1 of the paper).

The hypervisor is guest-agnostic: all it can see of a preempted vCPU is
its register state. The detector reads the vCPU's instruction pointer,
resolves it against that guest's kernel symbol table (``System.map``,
provided out of band), and checks the symbol against the Table-3
whitelist. A hit identifies a vCPU suspended inside a critical OS
service — a lock holder mid-critical-section, a TLB-shootdown
participant, an interrupt path — without any guest modification.

Degraded mode: the symbol table is an out-of-band input, so it can go
away (guest kexec, stale ``System.map``, management-plane hiccup —
modelled by the ``symbol_table`` fault kind). While a guest's
``kernel.symbol_fault`` is set the detector does not hard-fail:

* ``"miss"`` — resolution is unavailable. The detector falls back to
  the address ranges it *learned* from earlier healthy critical hits
  (IP-range matching needs no names), counting every consulted miss in
  ``symbol_misses`` and every rescue in ``fallback_hits``.
* ``"corrupt"`` — resolution succeeds but returns the neighbouring
  symbol, so classification misfires both ways (missed criticals and
  false positives). This models a skewed/stale map.
"""

from ..guest.symbols import KERNEL_TEXT_BASE
from .whitelist import classify


class Detection:
    """The result of classifying one vCPU."""

    __slots__ = ("vcpu", "symbol", "critical_class")

    def __init__(self, vcpu, symbol, critical_class):
        self.vcpu = vcpu
        self.symbol = symbol
        self.critical_class = critical_class

    @property
    def critical(self):
        return self.critical_class is not None

    def __repr__(self):
        return "<Detection %s %s -> %s>" % (
            self.vcpu.name,
            self.symbol,
            self.critical_class,
        )


class CriticalServiceDetector:
    """IP -> symbol -> criticality, per the whitelist."""

    def __init__(self, whitelist_classify=classify):
        self._classify = whitelist_classify
        self.inspections = 0
        self.hits = 0
        #: Degraded-mode accounting (symbol_table faults only).
        self.symbol_misses = 0
        self.fallback_hits = 0
        self._memos = {}          # kernel -> {ip: (symbol, class)}
        self._learned = {}        # kernel -> {(lo, hi): (name, class)}
        self._corrupt_maps = {}   # kernel -> {name: neighbouring name}

    def inspect(self, vcpu):
        """Classify one vCPU from its current instruction pointer."""
        return Detection(vcpu, *self.resolve(vcpu))

    def resolve(self, vcpu):
        """``(symbol, critical_class)`` for one vCPU's instruction
        pointer. Healthy resolutions are memoized per kernel by IP: the
        answer is a pure function of the kernel's symbol table, which
        never changes after the domain is built. Fault modes bypass the
        memo."""
        self.inspections += 1
        kernel = vcpu.domain.kernel
        fault = kernel.symbol_fault
        ip = kernel.addr_for(vcpu.current_symbol)
        if fault is None:
            try:
                answer = self._memos[kernel][ip]
            except KeyError:
                answer = self._resolve_first(kernel, ip)
            if answer[1] is not None:
                self.hits += 1
            return answer
        if fault == "miss":
            return self._resolve_without_table(kernel, ip)
        return self._resolve_corrupted(kernel, ip)

    def _resolve_first(self, kernel, ip):
        """Binary-search the table for an IP not yet in the memo,
        learning the range of a critical hit for the ``miss`` fallback."""
        found = kernel.symbols.lookup(ip)
        symbol = found.name if found is not None else None
        critical_class = self._classify(symbol)
        if critical_class is not None:
            self._learn(kernel, found, critical_class)
        answer = (symbol, critical_class)
        self._memos.setdefault(kernel, {})[ip] = answer
        return answer

    def _resolve_without_table(self, kernel, ip):
        """Resolution unavailable: match the IP against address ranges
        learned from earlier healthy hits."""
        symbol = critical_class = None
        if ip is not None and ip >= KERNEL_TEXT_BASE:
            self.symbol_misses += 1
            for (lo, hi), (name, learned_class) in self._learned.get(
                kernel, {}
            ).items():
                if lo <= ip < hi:
                    symbol, critical_class = name, learned_class
                    break
        if critical_class is not None:
            self.hits += 1
            self.fallback_hits += 1
        return symbol, critical_class

    def _resolve_corrupted(self, kernel, ip):
        """Resolution 'works' but hands back the neighbouring symbol."""
        symbol = kernel.symbols.resolve_name(ip)
        if symbol is not None:
            self.symbol_misses += 1
            symbol = self._neighbour(kernel, symbol)
        critical_class = self._classify(symbol)
        if critical_class is not None:
            self.hits += 1
        return symbol, critical_class

    def _learn(self, kernel, found, critical_class):
        """Remember the address range of a healthy critical hit so the
        ``miss`` fallback can keep classifying without names."""
        if found is None:
            return
        ranges = self._learned.setdefault(kernel, {})
        key = (found.address, found.end)
        if key not in ranges:
            ranges[key] = (found.name, critical_class)

    def _neighbour(self, kernel, name):
        """Deterministic wrong answer: the next symbol in address order
        (wrapping), the way an off-by-one-entry stale map resolves."""
        mapping = self._corrupt_maps.get(kernel)
        if mapping is None:
            names = [symbol.name for symbol in kernel.symbols]
            mapping = {
                current: names[(index + 1) % len(names)]
                for index, current in enumerate(names)
            }
            self._corrupt_maps[kernel] = mapping
        return mapping.get(name, name)
