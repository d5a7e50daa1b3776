"""X2 (extension) — identification accuracy of the simulated FIU (§4.8).

The paper asserts fingerprint identification works; this experiment
characterizes the simulated sensor: genuine-match rate and impostor
rejection vs. sensor noise, and where the matcher's threshold places the
operating point.
"""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable
from repro.services.fiu import FingerprintUnitDaemon, make_template, noisy_sample


def build(threshold=1.0, n_users=20, seed=180):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("door", room="hawk", monitors=False)
    fiu = FingerprintUnitDaemon(env.ctx, "fiu", host, room="hawk",
                                threshold=threshold)
    env.add_daemon(fiu)
    users = {}
    for i in range(n_users):
        identity = env.create_identity(f"user{i:02d}")
        env.register_user_direct(identity)
        users[identity.username] = identity
    env.boot()

    def load():
        client = env.client(env.net.host("infra"))
        yield from client.call(fiu.address, ACECmdLine("loadTemplates"))

    env.run(load())
    return env, fiu, users


def scan(env, fiu, sample):
    def go():
        client = env.client(env.net.host("infra"), principal="driver")
        return (yield from client.call(fiu.address,
                                       ACECmdLine("scan", sample=sample)))

    return env.run(go())


def test_x2_accuracy_vs_noise(benchmark, table_printer):
    table = table_printer(ResultTable(
        "X2: FIU accuracy vs sensor noise (20 enrolled users, 40 genuine "
        "+ 40 impostor presses per level)",
        ["noise_sigma", "genuine_accept_%", "genuine_correct_%", "impostor_accept_%"],
    ))

    def run():
        rows = []
        for noise in (0.05, 0.2, 0.5):
            env, fiu, users = build()
            rng = env.rng.np(f"x2.{noise}")
            genuine_ok = genuine_right = 0
            trials = 40
            names = sorted(users)
            for t in range(trials):
                username = names[t % len(names)]
                sample = noisy_sample(users[username].fingerprint_template, rng, noise)
                reply = scan(env, fiu, sample)
                if reply.int("matched") == 1:
                    genuine_ok += 1
                    if reply.str("username") == username:
                        genuine_right += 1
            impostor_ok = 0
            for t in range(trials):
                stranger = make_template(rng)  # never enrolled
                reply = scan(env, fiu, stranger)
                impostor_ok += reply.int("matched")
            rows.append((noise,
                         100.0 * genuine_ok / trials,
                         100.0 * genuine_right / trials,
                         100.0 * impostor_ok / trials))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for noise, accept, correct, impostor in rows:
        table.add(noise, round(accept, 1), round(correct, 1), round(impostor, 1))
    # Shape: near-perfect at realistic noise; degrades as noise approaches
    # template scale; impostors essentially never accepted (16-dim space).
    assert rows[0][1] == 100.0 and rows[0][2] == 100.0
    assert rows[-1][1] <= rows[0][1]
    assert all(impostor <= 5.0 for *_x, impostor in rows)


def test_x2_threshold_tradeoff(benchmark, table_printer):
    """Tighter thresholds reject more genuine presses at high noise."""
    table = table_printer(ResultTable(
        "X2: matcher threshold at noise sigma 0.25",
        ["threshold", "genuine_accept_%"],
    ))

    def run():
        rows = []
        for threshold in (0.5, 1.0, 2.0):
            env, fiu, users = build(threshold=threshold, seed=181)
            rng = env.rng.np(f"x2b.{threshold}")
            names = sorted(users)
            ok = 0
            trials = 30
            for t in range(trials):
                username = names[t % len(names)]
                sample = noisy_sample(users[username].fingerprint_template, rng, 0.25)
                reply = scan(env, fiu, sample)
                ok += reply.int("matched")
            rows.append((threshold, 100.0 * ok / trials))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for threshold, accept in rows:
        table.add(threshold, round(accept, 1))
    accepts = [a for _, a in rows]
    assert accepts == sorted(accepts)  # monotone in the threshold
