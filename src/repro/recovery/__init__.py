"""Self-healing supervision plane (E26).

The paper's restart story (§5.2) is administrative: a human (or the
restart manager, on whole-host crashes) notices a dead daemon and
relaunches it from scratch, losing all of its in-memory state.  This
package closes the loop automatically at per-daemon granularity:

* :class:`SupervisorDaemon` — one per host.  Detection reuses the §2.4
  lease machinery: every daemon *beats* into its host's supervisor
  whenever the ASD confirms a lease renewal (zero extra wire traffic),
  and the supervisor keeps a local :class:`~repro.core.leases.LeaseTable`
  whose duration is the **suspicion window**.  A missed window raises a
  suspicion; a locally-live daemon (e.g. one partitioned away from the
  directory) is *fenced* — re-armed, never double-spawned — while a dead
  one is restarted.
* **Checkpointed restart** — the supervisor periodically snapshots every
  :class:`~repro.services.base.Checkpointable` daemon (service state +
  idempotency dedup cache + incarnation) into its own memory and, for
  daemons that allow it, durably into the persistent store under
  ``/recovery/checkpoints/<name>``.  The checkpoint is restored into the
  reincarnation *before* it starts, so it never serves from a blank
  slate.
* **Reincarnation** — the replacement registers with the ASD under an
  incremented incarnation number (``inc``); the directory fences
  registrations from stale incarnations, the client lookup caches are
  invalidated so redirection is immediate, and
  :meth:`~repro.core.policy.ResilienceRegistry.notify_restart` force-
  closes the address's circuit breaker and tells interested peers (store
  replicas clear their replication cooldown).

Together with the client-side ``(o_cid, o_cseq)`` idempotency stamps and
the daemon-side dedup cache (which rides inside the checkpoint), a crash
between executing a command and delivering its reply turns the client's
retry into a **replay** instead of a re-execution: exactly-once across
the restart.
"""

from repro.recovery.supervisor import (
    CHECKPOINT_PREFIX,
    SupervisionPlane,
    SupervisorDaemon,
)

__all__ = ["CHECKPOINT_PREFIX", "SupervisionPlane", "SupervisorDaemon"]
