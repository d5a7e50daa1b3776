"""Every command the standard stack defines ends in a reply.

For each daemon ``add_infrastructure()`` boots, every command in its
vocabulary is sent once with its required arguments built from their
declared types.  Each must end in ``cmdOk`` or ``cmdFailed`` within a
2 s deadline, and the daemon must answer ``ping`` after it: a handler
that crashes its control thread, or parks it, fails here.
"""

import pytest

from repro.core import CallError, CallPolicy
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine, ArgType

#: one value of each declared argument type
SAMPLE = {
    ArgType.INTEGER: 1, ArgType.FLOAT: 1.0, ArgType.NUMBER: 1.0,
    ArgType.WORD: "probe", ArgType.STRING: "probe", ArgType.ANY: "probe",
    ArgType.VECTOR: (1.0,), ArgType.ARRAY: ((1.0,),),
}

#: one attempt, answered within 2 s of simulated time or failed
PROBE_POLICY = CallPolicy(deadline=2.0, attempt_timeout=2.0, max_attempts=1,
                          breaker_threshold=0)


def build():
    env = ACEEnvironment(seed=41)
    env.add_infrastructure("infra")
    return env


@pytest.mark.parametrize("name", sorted(build().daemons))
def test_every_defined_command_ends_in_a_reply(name):
    env = build()
    env.boot()
    daemon = env.daemon(name)
    client = env.client(env.net.host("infra"), principal="prober")
    outcomes = {}

    def answer(command, check):
        try:
            reply = yield from client.call(daemon.address, command, PROBE_POLICY, check=check)
        except CallError as exc:
            return type(exc).__name__
        return reply.name

    def probe():
        for command_name in daemon.semantics.commands():
            spec = daemon.semantics.lookup(command_name)
            command = ACECmdLine(command_name, **{
                arg.name: SAMPLE[arg.type] for arg in spec.args if arg.required})
            outcomes[command_name] = (
                (yield from answer(command, check=False)),
                (yield from answer(ACECmdLine("ping"), check=True)))

    env.run(probe())
    unanswered = {command: outcome for command, outcome in outcomes.items()
                  if outcome[0] not in ("cmdOk", "cmdFailed") or outcome[1] != "cmdOk"}
    assert unanswered == {}
