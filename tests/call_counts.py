"""Python calls counted under ``sys.setprofile``: the one helper the
call-budget tests share (``tests/sim/test_kernel_calls.py``,
``tests/core/test_round_trip_budget.py``).

Calls are noise-free where host times are not.  A function is keyed by
``(co_filename, co_name, co_firstlineno)``, which every supported Python
has (``co_qualname`` is 3.11+).  Each resume of a generator is a call of
its own: the interpreter enters the frame again.
"""

import sys
from collections import Counter


def profiled_calls(run, counted):
    """Run ``run()`` under ``sys.setprofile``; returns its result and the
    calls it made, by function, of code whose file ``counted(filename)``
    accepts."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if counted(code.co_filename):
                calls[code.co_filename, code.co_name, code.co_firstlineno] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def calls_per_unit(short, long, units):
    """What ``units`` more units of work cost, per unit: the calls of the
    longer run less the shorter's, divided by ``units``, in total and by
    function.  The difference cancels what both runs pay once."""
    per_function = {key: (long[key] - short[key]) / units
                    for key in long if long[key] != short[key]}
    return sum(per_function.values()), per_function
