"""Unit tests for LeaseTable + integration: ASD purges crashed services."""

import pytest

from repro.core.leases import LeaseTable
from repro.lang import ACECmdLine

from tests.core.conftest import AceFixture, EchoDaemon


# -- unit --------------------------------------------------------------------

def test_grant_and_validity():
    table = LeaseTable(10.0)
    lease = table.grant("svc", now=0.0)
    assert lease.valid_at(5.0)
    assert not lease.valid_at(10.0)
    assert "svc" in table


def test_renew_extends():
    table = LeaseTable(10.0)
    table.grant("svc", now=0.0)
    lease = table.renew("svc", now=8.0)
    assert lease is not None
    assert lease.valid_at(17.9)
    assert lease.renewals == 1


def test_renew_after_expiry_refused():
    table = LeaseTable(10.0)
    table.grant("svc", now=0.0)
    assert table.renew("svc", now=11.0) is None


def test_expire_reports_and_calls_back():
    expired = []
    table = LeaseTable(10.0, on_expire=expired.append)
    table.grant("a", now=0.0)
    table.grant("b", now=5.0)
    assert table.expire(now=12.0) == ["a"]
    assert expired == ["a"]
    assert table.holders() == ["b"]


def test_release_voluntary():
    table = LeaseTable(10.0)
    table.grant("svc", now=0.0)
    assert table.release("svc") is True
    assert table.release("svc") is False


def test_holders_filtered_by_time():
    table = LeaseTable(10.0)
    table.grant("a", now=0.0)
    table.grant("b", now=5.0)
    assert table.holders(now=12.0) == ["b"]
    assert table.holders() == ["a", "b"]


def test_bad_duration():
    with pytest.raises(ValueError):
        LeaseTable(0.0)


# -- boundary conditions -----------------------------------------------------

def test_renewal_exactly_at_expiry_refused():
    """``valid_at`` is strictly ``<``: a renewal arriving at the exact
    expiry instant is too late and must re-register."""
    table = LeaseTable(10.0)
    lease = table.grant("svc", now=0.0)
    assert not lease.valid_at(10.0)
    assert table.renew("svc", now=10.0) is None
    # Refusal does not remove the entry; the next sweep purges it.
    assert "svc" in table
    assert table.expire(now=10.0) == ["svc"]
    assert "svc" not in table


def test_regrant_same_tick_as_expiry():
    """A name whose lease lapses at time T can be re-registered at T: the
    fresh grant overwrites the stale lease and survives the same-tick
    sweep (no spurious expiry callback for the reborn holder)."""
    expired = []
    table = LeaseTable(10.0, on_expire=expired.append)
    table.grant("svc", now=0.0)
    fresh = table.grant("svc", now=10.0)  # re-register at the expiry instant
    assert table.expire(now=10.0) == []
    assert expired == []
    assert fresh.valid_at(19.9) and not fresh.valid_at(20.0)
    assert fresh.renewals == 0
    assert table.renew("svc", now=15.0) is not None


# -- integration ----------------------------------------------------------------

def test_crashed_service_purged_after_lease(ace_with_echo):
    """§2.4: a daemon that stops renewing vanishes from the ASD."""
    ace, echo = ace_with_echo
    assert "echo1" in ace.asd.records
    ace.net.crash_host("bar")  # echo's host dies; no more renewals
    ace.sim.run(until=ace.sim.now + ace.ctx.lease_duration * 2.5)
    assert "echo1" not in ace.asd.records
    assert "echo1" not in ace.asd.leases


def test_a_crash_ends_the_old_incarnation_even_when_the_host_is_back_at_once(ace_with_echo):
    """Leases purge a crashed service only if it stops renewing.  A host
    that crashes and is back within one lease period runs nothing of its
    earlier life: the old daemon never renews again, and the directory
    drops its record within one lease duration plus one sweep."""
    ace, echo = ace_with_echo
    renewals = ace.ctx.obs.metrics.counter("daemon.echo1.lease_renewals")
    sweep = ace.ctx.lease_duration * 0.25
    crashed_at = ace.sim.now
    ace.net.crash_host("bar")
    renewed = renewals.value
    ace.sim.run(until=crashed_at + 0.5)
    ace.net.restart_host("bar")
    ace.sim.run(until=crashed_at + ace.ctx.lease_duration + sweep)
    assert renewals.value == renewed
    assert "echo1" not in ace.asd.records
    assert not echo.running and not echo._main_proc.is_alive
    assert echo._child_procs == {}
    assert echo not in echo.host.residents


def test_a_crash_cuts_a_graceful_stop_short(ace_with_echo):
    """A stop still deregistering when its host crashes ends with the host
    instead of waiting out its call from a dead host."""
    ace, echo = ace_with_echo
    stop = echo.stop()
    ace.sim.run(until=ace.sim.now + 1e-4)    # the deregister is in flight
    ace.net.crash_host("bar")
    ace.sim.run(until=ace.sim.now + 1e-4)
    assert not stop.is_alive
    assert echo not in echo.host.residents


def test_live_service_stays_registered_across_many_leases(ace_with_echo):
    ace, echo = ace_with_echo
    ace.sim.run(until=ace.sim.now + ace.ctx.lease_duration * 5)
    assert "echo1" in ace.asd.records
    lease = ace.asd.leases.get("echo1")
    assert lease is not None and lease.renewals >= 4


def test_reregistration_after_asd_restart():
    """If the ASD loses state, daemons re-register on the next renewal."""
    ace = AceFixture(lease_duration=2.0).boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    # Simulate ASD state loss (crash+restart of the process, same address).
    ace.asd.records.clear()
    ace.asd.leases = type(ace.asd.leases)(ace.ctx.lease_duration, on_expire=ace.asd._lease_expired)
    ace.sim.run(until=ace.sim.now + 5.0)
    assert "echo1" in ace.asd.records


def test_lookup_does_not_return_expired(ace_with_echo):
    ace, echo = ace_with_echo
    ace.net.crash_host("bar")
    ace.sim.run(until=ace.sim.now + ace.ctx.lease_duration * 2.5)

    def scenario():
        client = ace.client()
        reply = yield from client.call(
            ace.ctx.asd_address, ACECmdLine("lookup", cls="Echo")
        )
        return reply

    reply = ace.run(scenario())
    assert reply["count"] == 0
