"""Secure channels over stream connections (the paper's SSL, §3.1).

A :class:`SecureChannel` wraps a :class:`~repro.net.sockets.Connection` after
a three-message handshake:

1. ``ClientHello``  — client nonce + ephemeral DH public value.
2. ``ServerHello``  — server nonce + DH public value + the server's
   certificate + a Schnorr signature over the handshake transcript
   (authenticates the server and prevents man-in-the-middle splicing).
3. ``Finished``     — client's HMAC over the transcript under the derived
   MAC key, proving key agreement.

Records are then encrypted with a keystream cipher and authenticated with
HMAC-SHA256, with per-direction sequence numbers to stop replay/reorder.

Cryptographic *work* is also charged as simulated CPU time on the endpoint
hosts so experiment E5 (plain vs SSL vs SSL+KeyNote command cost) reflects
both the latency of extra round trips and the compute of the primitives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional, Union

from repro.lang.command import ACECmdLine
from repro.security.crypto import (
    Certificate,
    KeyPair,
    KeystreamCipher,
    constant_time_equal,
    derive_keys,
    dh_keypair,
    dh_shared_secret,
    hmac_sha256,
    verify_certificate,
    verify_signature,
)

from repro.net.sockets import Connection

# Simulated CPU cost of crypto, in bogomips-seconds.  On an 800-bogomips
# host: ~2.5 ms per handshake half, ~10 µs + 2.5 µs/KB per record —
# millisecond-scale public-key ops and microsecond-scale symmetric ops,
# matching the paper's era of hardware.
HANDSHAKE_WORK = 2.0
RECORD_WORK_BASE = 0.008
RECORD_WORK_PER_BYTE = 2e-6


class HandshakeError(Exception):
    """Certificate, signature, or protocol failure during the handshake."""


@dataclass(frozen=True)
class _Record:
    """An encrypted, MACed frame on the wire."""

    nonce: bytes
    ciphertext: bytes
    mac: bytes

    def wire_size(self) -> int:
        return len(self.ciphertext) + len(self.nonce) + len(self.mac) + 5


Payload = Union[str, bytes, ACECmdLine]


class SecureChannel:
    """Encrypted/authenticated message pipe mirroring the Connection API."""

    def __init__(
        self,
        conn: Connection,
        cipher_key: bytes,
        mac_key: bytes,
        peer_subject: str,
    ):
        self.conn = conn
        self.peer_subject = peer_subject
        self._cipher = KeystreamCipher(cipher_key)
        self._mac_key = mac_key
        self._send_seq = 0
        self._recv_seq = 0

    @property
    def closed(self) -> bool:
        return self.conn.closed

    @property
    def remote(self):
        return self.conn.remote

    def send(self, payload: Payload) -> Generator:
        """Encrypt, MAC, and transmit ``payload`` (str or bytes; a command
        goes as its wire text, which the receiver gets back as a str)."""
        if isinstance(payload, ACECmdLine):
            payload = payload.to_string()
        if isinstance(payload, str):
            plaintext = b"s" + payload.encode("utf-8")
        elif isinstance(payload, bytes):
            plaintext = b"b" + payload
        else:
            raise TypeError(f"SecureChannel carries str/bytes, not {type(payload).__name__}")
        seq = self._send_seq
        self._send_seq += 1
        nonce = seq.to_bytes(8, "big")
        ciphertext = self._cipher.encrypt(nonce, plaintext)
        mac = hmac_sha256(self._mac_key, nonce + ciphertext)[:16]
        yield from self.conn.host.execute(RECORD_WORK_BASE + RECORD_WORK_PER_BYTE * len(plaintext))
        yield from self.conn.send(_Record(nonce, ciphertext, mac))

    def recv(self) -> Generator:
        """Receive, verify, and decrypt the next record."""
        record = yield from self.conn.recv()
        if not isinstance(record, _Record):
            raise HandshakeError(f"plaintext injection on secure channel: {record!r}")
        expected_seq = self._recv_seq
        self._recv_seq += 1
        if int.from_bytes(record.nonce, "big") != expected_seq:
            raise HandshakeError("record replay or reorder detected")
        mac = hmac_sha256(self._mac_key, record.nonce + record.ciphertext)[:16]
        if not constant_time_equal(mac, record.mac):
            raise HandshakeError("record MAC verification failed")
        yield from self.conn.host.execute(
            RECORD_WORK_BASE + RECORD_WORK_PER_BYTE * len(record.ciphertext)
        )
        plaintext = self._cipher.decrypt(record.nonce, record.ciphertext)
        tag, body = plaintext[:1], plaintext[1:]
        if tag == b"s":
            return body.decode("utf-8")
        if tag == b"b":
            return body
        raise HandshakeError(f"corrupt record type tag {tag!r}")

    def pending(self) -> int:
        return self.conn.pending()

    def close(self) -> None:
        self.conn.close()


def handshake_client(
    conn: Connection,
    rng: random.Random,
    ca_public_key: int,
    ca_name: str,
    expected_subject: Optional[str] = None,
) -> Generator:
    """Client side of the handshake; returns a :class:`SecureChannel`."""
    client_nonce = "%016x" % rng.getrandbits(64)
    dh_priv, dh_pub = dh_keypair(rng)
    yield from conn.host.execute(HANDSHAKE_WORK)
    yield from conn.send(("hello", client_nonce, dh_pub))

    reply = yield from conn.recv()
    try:
        kind, server_nonce, server_dh_pub, cert, signature = reply
    except (TypeError, ValueError):
        raise HandshakeError(f"malformed ServerHello {reply!r}")
    if kind != "hello-ack" or not isinstance(cert, Certificate):
        raise HandshakeError("malformed ServerHello")
    if not verify_certificate(cert, ca_public_key, ca_name):
        raise HandshakeError(f"untrusted certificate for {cert.subject!r}")
    if expected_subject is not None and cert.subject != expected_subject:
        raise HandshakeError(
            f"certificate subject {cert.subject!r} != expected {expected_subject!r}"
        )
    transcript = f"{client_nonce}|{dh_pub}|{server_nonce}|{server_dh_pub}|{cert.subject}"
    if not verify_signature(cert.public_key, transcript, signature):
        raise HandshakeError("server transcript signature invalid")
    yield from conn.host.execute(HANDSHAKE_WORK)
    shared = dh_shared_secret(dh_priv, server_dh_pub)
    cipher_key, mac_key = derive_keys(shared, transcript)
    finished = hmac_sha256(mac_key, b"finished:" + transcript.encode())[:16]
    yield from conn.send(("finished", finished))
    return SecureChannel(conn, cipher_key, mac_key, cert.subject)


def handshake_server(
    conn: Connection,
    rng: random.Random,
    keypair: KeyPair,
    certificate: Certificate,
) -> Generator:
    """Server side of the handshake; returns a :class:`SecureChannel`."""
    hello = yield from conn.recv()
    try:
        kind, client_nonce, client_dh_pub = hello
    except (TypeError, ValueError):
        raise HandshakeError(f"malformed ClientHello {hello!r}")
    if kind != "hello":
        raise HandshakeError(f"malformed ClientHello {hello!r}")
    server_nonce = "%016x" % rng.getrandbits(64)
    dh_priv, dh_pub = dh_keypair(rng)
    transcript = (
        f"{client_nonce}|{client_dh_pub}|{server_nonce}|{dh_pub}|{certificate.subject}"
    )
    signature = keypair.sign(transcript)
    yield from conn.host.execute(HANDSHAKE_WORK)
    yield from conn.send(("hello-ack", server_nonce, dh_pub, certificate, signature))

    shared = dh_shared_secret(dh_priv, client_dh_pub)
    cipher_key, mac_key = derive_keys(shared, transcript)
    fin = yield from conn.recv()
    try:
        kind, finished = fin
    except (TypeError, ValueError):
        raise HandshakeError(f"malformed Finished {fin!r}")
    expected = hmac_sha256(mac_key, b"finished:" + transcript.encode())[:16]
    if kind != "finished" or not constant_time_equal(finished, expected):
        raise HandshakeError("client Finished verification failed")
    yield from conn.host.execute(HANDSHAKE_WORK)
    return SecureChannel(conn, cipher_key, mac_key, peer_subject="")
