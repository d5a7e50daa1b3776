"""What one kernel occurrence costs in Python frames, pinned as exact counts.

Calls are noise-free where host times are not.  Under ``sys.setprofile``
every call of a function defined in ``repro/sim/kernel.py`` is counted
while a process wakes in a loop; the run is repeated at two lengths and
the difference taken, which cancels what entering ``run()``, bootstrapping
the process and finishing it cost.  Two budgets:

* a ``yield sim.timeout(1)`` wake runs **3** kernel functions —
  ``Simulator.timeout``, ``Event._deliver``, ``Process._resume`` (8 while
  the timer was built through ``Timeout.__init__`` / ``Event.__init__`` /
  ``_schedule``, and delivery went ``_pop_next`` → ``_deliver`` →
  ``_resume`` → ``_step``);
* an ``event(); succeed(); yield ev`` wake runs **5** — ``event``,
  ``succeed``, ``_schedule``, ``_deliver``, ``_resume`` (9 before).
"""

import repro.sim.kernel as kernel
from repro.sim import Simulator
from tests.call_counts import calls_per_unit, profiled_calls

KERNEL_FILE = kernel.__file__


def _timer_wakes(sim, n):
    for _ in range(n):
        yield sim.timeout(1)


def _ready_wakes(sim, n):
    for i in range(n):
        ev = sim.event()
        ev.succeed(i)
        yield ev


def _profiled_run(wakes, n):
    """Kernel calls by function, and occurrences delivered, while a fresh
    simulator runs one process of ``n`` wakes to the end."""
    sim = Simulator()
    sim.process(wakes(sim, n))
    _, calls = profiled_calls(sim.run, lambda filename: filename == KERNEL_FILE)
    return calls, sim.n_delivered


def _calls_per_wake(wakes, n=200):
    _profiled_run(wakes, n)   # warm-up
    short, short_delivered = _profiled_run(wakes, n)
    long, long_delivered = _profiled_run(wakes, 2 * n)
    assert long_delivered - short_delivered == n
    return calls_per_unit(short, long, n)


def test_a_timer_wake_costs_three_kernel_calls():
    per_wake, per_function = _calls_per_wake(_timer_wakes)
    assert per_wake <= 3, per_function


def test_a_ready_wake_costs_five_kernel_calls():
    per_wake, per_function = _calls_per_wake(_ready_wakes)
    assert per_wake <= 5, per_function
