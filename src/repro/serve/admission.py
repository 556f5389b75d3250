"""Admission control for the simulation service.

The worker pool is shared capacity; an unbounded accept loop would let
one burst (or one greedy client) queue hours of simulation and turn
every later request into a hang. Admission therefore enforces two
budgets **before** a submission is queued:

* a global bound on queued submissions (:attr:`max_queue_depth`), and
* a per-client cap on in-flight submissions — queued plus running —
  keyed by the ``X-Repro-Client`` header (falling back to the peer
  address).

Overload is answered, not absorbed: a refused submission gets **429**
with a ``Retry-After`` estimate: the job manager's predicted wall time
for everything already queued, from one wall-seconds-per-simulated-ns
rate that each finished wave updates (a new client told
"try again in 7 s" after a fig7 burst is strictly more useful than a
socket that eventually times out). Draining (SIGTERM received) refuses
with **503** so load balancers fail over immediately.

Every decision is counted (``serve.admission.*``) — rejections are a
monitored, first-class outcome, never an error path.
"""

from ..errors import ConfigError
from ..obs import telemetry
from ..runner.jobs import is_int

_ADMITTED = telemetry.counter("serve.admission.admitted")
_REJECTED_QUEUE = telemetry.counter("serve.admission.rejected_queue_full")
_REJECTED_CLIENT = telemetry.counter("serve.admission.rejected_client_cap")
_REJECTED_DRAINING = telemetry.counter("serve.admission.rejected_draining")

#: Defaults; `repro serve --max-queue-depth/--max-inflight` override.
DEFAULT_MAX_QUEUE_DEPTH = 64
DEFAULT_MAX_INFLIGHT_PER_CLIENT = 8

#: Retry-After clamp (seconds): never tell a client "0" (a stampede)
#: or "an hour" (it will just leave).
MIN_RETRY_AFTER = 1
MAX_RETRY_AFTER = 600


class Rejection(Exception):
    """Raised by :meth:`AdmissionController.admit` for a refused
    submission; carries the HTTP status and the Retry-After hint."""

    def __init__(self, status, detail, retry_after):
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.retry_after = retry_after


class AdmissionController:
    """Bounded-queue + per-client-cap admission with predictive
    Retry-After.

    The controller owns no queue itself — the caller reports state
    transitions (:meth:`started`, :meth:`finished`) and the controller
    keeps the books. ``predicted_backlog_seconds`` is a callable
    supplied by the job manager returning its wall-time estimate for
    everything queued or running."""

    def __init__(self, max_queue_depth=DEFAULT_MAX_QUEUE_DEPTH,
                 max_inflight_per_client=DEFAULT_MAX_INFLIGHT_PER_CLIENT,
                 predicted_backlog_seconds=None):
        for name, value in (("max_queue_depth", max_queue_depth),
                            ("max_inflight_per_client", max_inflight_per_client)):
            if not is_int(value, 1):
                raise ConfigError("%s must be an integer >= 1, got %r" % (name, value))
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_client = max_inflight_per_client
        self.draining = False
        self.queued = 0
        self._inflight = {}  # client -> queued + running submissions
        self._predict = predicted_backlog_seconds or (lambda: 0.0)

    # -- bookkeeping ---------------------------------------------------

    def inflight(self, client):
        return self._inflight.get(client, 0)

    def retry_after(self):
        """Seconds a refused client should wait: the predicted wall
        time to drain the current backlog, clamped to something a
        polite client will actually honour."""
        predicted = self._predict()
        return int(min(MAX_RETRY_AFTER, max(MIN_RETRY_AFTER, round(predicted))))

    # -- decisions -----------------------------------------------------

    def admit(self, client):
        """Account one submission for ``client`` or raise
        :class:`Rejection`. On success the submission counts as queued
        until :meth:`started`, and in-flight until :meth:`finished`."""
        if self.draining:
            _REJECTED_DRAINING.inc()
            raise Rejection(503, "server is draining; not accepting work",
                            self.retry_after())
        if self.queued >= self.max_queue_depth:
            _REJECTED_QUEUE.inc()
            raise Rejection(
                429,
                "queue depth limit reached (%d queued)" % self.queued,
                self.retry_after(),
            )
        if self.inflight(client) >= self.max_inflight_per_client:
            _REJECTED_CLIENT.inc()
            raise Rejection(
                429,
                "client %r already has %d submissions in flight"
                % (client, self.inflight(client)),
                self.retry_after(),
            )
        self.queued += 1
        self._inflight[client] = self.inflight(client) + 1
        _ADMITTED.inc()

    def started(self, client):
        """A queued submission was picked up by the dispatcher (it
        still counts against the client's in-flight cap)."""
        self.queued = max(0, self.queued - 1)

    def unqueue(self, client):
        """A queued submission left the queue without running (cache
        fast path, cancellation before dispatch)."""
        self.queued = max(0, self.queued - 1)

    def finished(self, client):
        """A submission reached a terminal state; release its slot."""
        count = self.inflight(client)
        if count <= 1:
            self._inflight.pop(client, None)
        else:
            self._inflight[client] = count - 1
