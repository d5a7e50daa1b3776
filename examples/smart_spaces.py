#!/usr/bin/env python
"""Chapter 9, implemented: the paper's future-work features working together.

* personnel tracking (a *non-human ACE user*, §1.1);
* "print this out to the nearest printer" task automation;
* voice control of devices (§7.5's "next stage in development");
* mobile sockets surviving a daemon crash;
* Ninja-style Automatic Path Creation for media pipelines (§8.1).

Run:  python examples/smart_spaces.py
"""

from repro import ACECmdLine
from repro.core import Service
from repro.core.client import FAILOVER_POLICY
from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import parse_command
from repro.services.audio import SpeechToCommandDaemon, TextToSpeechDaemon
from repro.services.fiu import noisy_sample
from repro.services.printer import PrinterDaemon, TaskAutomationDaemon
from repro.services.tracker import PersonnelTrackerDaemon


def main() -> None:
    env = standard_environment(seed=404)
    infra = env.net.host("infra")
    office = env.add_workstation("officebox", room="office21", monitors=False)
    env.add_id_devices(office, room="office21")
    env.add_daemon(PersonnelTrackerDaemon(env.ctx, "tracker", infra, room="machineroom"))
    env.add_device(PrinterDaemon, "printer.hawk", env.net.host("podium"), room="hawk")
    env.add_device(PrinterDaemon, "printer.office", office, room="office21")
    env.add_daemon(TaskAutomationDaemon(env.ctx, "automation", infra, room="machineroom"))
    av = env.net.host("podium")
    tts = env.add_daemon(TextToSpeechDaemon(env.ctx, "tts", av, room="hawk"))
    s2c = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c", av, room="hawk"))
    env.boot()
    env.run(scenario_1_new_user(env))
    print(f"smart-space ACE up: {len(env.daemons)} daemons\n")

    def call(daemon_name, command):
        def go():
            client = env.client(infra, principal="demo")
            return (yield from client.call(env.daemon(daemon_name).address, command))

        return env.run(go())

    def identify(device):
        fiu = env.daemon(device)

        def go():
            driver = env.client(fiu.host, principal="driver")
            yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
            sample = noisy_sample(env.users["john"].fingerprint_template,
                                  env.rng.np(f"demo.{device}"))
            yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample))

        env.run(go())
        env.run_for(1.0)

    # --- personnel tracking -------------------------------------------------
    identify("fiu.podium")
    identify("fiu.officebox")
    where = call("tracker", ACECmdLine("whereIsUser", username="john"))
    print(f"tracker: john last seen in {where['location']!r} "
          f"(via {where['device']})")

    # --- nearest-printer automation -----------------------------------------
    job = call("automation", ACECmdLine("printNearest", user="john",
                                        doc="quarterly.ps", pages=3))
    print(f"automation: 'print this to the nearest printer' -> "
          f"{job['printer']} ({job['selection']}, room {job['room']})")
    env.run_for(20.0)
    print(f"            printed: {env.daemon(job['printer']).printed}")

    # --- voice control --------------------------------------------------------
    call("tts", ACECmdLine("addSink", host=s2c.address.host, port=s2c.address.port))
    projector = env.daemon("projector.hawk")
    call("s2c", ACECmdLine("mapCommand", word="projector_on",
                           host=projector.address.host, port=projector.address.port,
                           command="power state=on;"))
    call("tts", ACECmdLine("say", text="projector_on"))
    env.run_for(3.0)
    print(f"voice: said 'projector_on' -> projector powered={projector.powered}")

    # --- mobile sockets ---------------------------------------------------------
    client = env.client(infra, principal="mobile-demo")

    def mobile_demo():
        # The call names the service, not an address.
        printer = Service(cls="Printer")
        first = yield from client.call(printer, ACECmdLine("getInfo"), FAILOVER_POLICY)
        env.net.crash_host(first["host"])
        t0 = env.sim.now
        second = yield from client.call(printer, ACECmdLine("getInfo"), FAILOVER_POLICY)
        return first["name"], second["name"], env.sim.now - t0

    first, second, outage = env.run(mobile_demo())
    print(f"mobile socket: answered by {first}, host crashed, resumed on {second} "
          f"in {outage * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
