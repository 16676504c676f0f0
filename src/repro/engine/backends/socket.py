"""Socket execution backend: a pull-based coordinator/worker protocol.

The coordinator (:class:`SocketBackend`) listens on a TCP address; worker
processes — started anywhere with ``repro worker --connect HOST:PORT`` —
connect and *pull* task chunks, so load-balancing is automatic and workers
can join or leave mid-sweep (elastic membership: a late joiner immediately
claims the costliest remaining chunk, a leaver's chunk is requeued).

Wire protocol (version 2)
-------------------------
Length-prefixed, **MAC'd** frames: a 4-byte big-endian body length, a
32-byte HMAC-SHA256 over the header and payload, then the payload.  The MAC
key is the shared secret (``REPRO_ENGINE_SECRET`` on both ends); with no
secret configured a well-known default key is used, which still gives
*integrity* (torn or corrupted frames are detected before anything is
unpickled) but not authentication.  The ``hello``/``error`` control frames
are JSON — validated before the coordinator will unpickle anything from a
connection — and every other message is a pickled dict.  Messages:

========== =========== ====================================================
direction  type        payload
========== =========== ====================================================
worker →   hello       ``worker``, ``version``, ``ciphers``, ``nonce``
                       (JSON handshake)
coord  →   welcome     ``version``, ``sweep_id`` (+``cipher``, ``nonce``
                       when payload encryption is negotiated)
coord  →   error       rejection reason (JSON; aborts the worker)
worker →   result      ``chunk_id``, ``task_ids``, ``results``, ``error``,
                       ``stats``, ``key`` (+``spooled`` on replay)
coord  →   ack         ``key`` echo; the worker may delete its spool entry
worker →   ready       request for the next chunk
coord  →   chunk       ``chunk_id``, ``tasks``, ``config``, ``plan``,
                       ``cache_root``
worker →   heartbeat   liveness ping, sent every few seconds mid-chunk
coord  →   shutdown    no more work; the worker exits
========== =========== ====================================================

Version 1 peers (unauthenticated, un-MAC'd framing) are detected in the
handshake and rejected with an actionable upgrade message; a non-protocol
peer (port scanner, misdirected client) never reaches the unpickler.

Payload encryption (a backward-compatible v2 extension): when a real
shared secret is configured, every post-handshake payload is encrypted
with a cipher negotiated in the hello/welcome exchange — AES-256-GCM when
both ends have the optional ``cryptography`` package, else a pure-stdlib
authenticated HMAC-CTR construction (:mod:`repro.engine.backends.crypto`).
Channel keys derive from the secret via HKDF-SHA256 salted with both
sides' handshake nonces, so they are per-connection and never the raw
secret or the frame-MAC key.  A coordinator holding a real secret refuses
workers that cannot encrypt, and both sides refuse plaintext payloads on
an encrypted channel, so encryption cannot be silently downgraded.  Under
the default key encryption is pointless (the key is public) — the channel
stays integrity-only and both ends print a loud warning saying exactly
that.

Scheduling
----------
``_SweepState`` orders the chunk queue by **estimated cost** (LPT: the
costliest chunk is claimed first — see
:func:`~repro.engine.tasks.estimate_chunk_cost`, mix size x scheme weight
x trace length), so a sweep's long poles start first and the tail of the
sweep is short cheap chunks that balance well across however many workers
are connected.  Scheduling affects wall-clock only: the runner merges in
request order, so results are bit-identical under any schedule.

Fault model
-----------
A worker is presumed dead when its connection drops or stays silent past
``heartbeat_timeout`` (workers heartbeat every ``heartbeat_interval``
seconds while simulating, so silence means a hang or a kill).  Its
in-flight chunk is *requeued* for the next ``ready`` worker — dispatch is
at-least-once, and the coordinator deduplicates completions by chunk, so a
presumed-dead-but-slow worker's late result can never yield a task twice.
Workers optionally **spool** every completed chunk to an on-disk journal
(``--spool DIR``) before sending it: an un-acked result survives both a
dropped connection and a *coordinator* restart, and is replayed — not
re-simulated — when the worker reconnects (chunk ids are content hashes of
the task ids and the sweep id derives from ``(config, plan)``, so replay
identity is stable across restarts).  Task results are deterministic in
``(config, plan, task)``, so requeue or replay affects wall-clock only,
never the merged output.  A run with work pending but no connected workers
for ``worker_wait`` seconds raises
:class:`~repro.common.errors.EngineError` instead of hanging forever.

The entire failure surface is exercisable on demand: pass a
:class:`~repro.engine.backends.faults.FaultSpec` (or its string grammar via
``repro worker --inject-faults``) to inject seed-scheduled frame drops,
delays, duplicates, torn frames and mid-send worker death — see
:mod:`repro.engine.backends.faults` and the fault-matrix suite.

.. warning::
   Per-frame MACs authenticate peers and encrypted payloads keep results
   confidential, but the payloads are still **pickled**: anyone holding
   the shared secret can execute code on the peers.  Treat the secret
   like an SSH key, bind loopback (the default) or trusted networks only,
   and note that ``error`` frames are deliberately surfaced *without* MAC
   verification (a peer with the wrong secret could not read the
   rejection otherwise) — they are plaintext JSON that can only abort a
   worker with a message, never execute anything.  With no secret
   configured the traffic is readable on the wire; the loud startup
   warning exists so nobody discovers that in production.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import hmac
import json
import os
import pickle
import socket
import struct
import sys
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...common.config import SystemConfig
from ...common.errors import AuthError, EngineError, ProtocolError
from ...core.cmp import SimResult
from ...experiments.runner import RunPlan
from ..execution import execute_task_chunk
from ..tasks import SimTask, estimate_chunk_cost
from .base import ExecutionBackend
from .crypto import PayloadCipher, make_cipher, negotiate_cipher, supported_ciphers
from .faults import FaultInjector, FaultSpec

__all__ = [
    "SocketBackend",
    "ResultSpool",
    "run_worker",
    "send_msg",
    "recv_msg",
    "send_hello",
    "recv_hello",
    "accept_peer",
    "connect_peer",
    "resolve_secret",
    "PROTOCOL_VERSION",
]

#: Bumped on incompatible wire-protocol changes; the handshake rejects
#: mismatched workers so a stale deployment fails loudly, not subtly.
#: v2: per-frame HMAC auth, welcome/ack messages, result spool replay.
PROTOCOL_VERSION = 2

#: Seconds between worker heartbeats while a chunk is simulating.
HEARTBEAT_INTERVAL = 2.0

#: Coordinator-side silence threshold before a worker is presumed dead.
HEARTBEAT_TIMEOUT = 30.0

_HEADER = struct.Struct(">I")

#: HMAC-SHA256 digest prefixed to every frame payload.
_MAC_SIZE = 32

#: Refuse absurd frames (corrupt header / non-protocol peer) early — the
#: cap is checked *before* any payload allocation.
_MAX_FRAME = 1 << 28

#: A hello is a tiny JSON object; anything bigger is not a worker.  The
#: tight cap means a garbage first frame (e.g. an HTTP request line read as
#: a length) is rejected before allocating or reading its claimed body.
_MAX_HELLO = 1 << 16

#: MAC key when no shared secret is configured: gives frame *integrity*
#: (torn/corrupt frames detected before unpickling), not authentication.
_DEFAULT_KEY = b"repro-engine-v2-unauthenticated"

#: Environment variable both ends read when no explicit secret is passed.
SECRET_ENV = "REPRO_ENGINE_SECRET"


def resolve_secret(secret: str | bytes | None) -> bytes:
    """The frame-MAC key: explicit secret, else ``$REPRO_ENGINE_SECRET``,
    else the well-known integrity-only default key."""
    if isinstance(secret, bytes):
        return secret
    if secret is None:
        secret = os.environ.get(SECRET_ENV)
    return secret.encode() if secret else _DEFAULT_KEY


#: Marker byte prefixed to encrypted payloads.  Distinct from both pickle
#: streams (``\\x80``) and JSON control frames (``{``), so a receiver can
#: tell — and *enforce* — which form it was handed.
_ENC_MARKER = b"E"

#: Handshake nonce length (hex-encoded on the wire); both sides' nonces
#: salt the HKDF so channel keys are fresh per connection.
_NONCE_BYTES = 16


def _warn_default_key(role: str) -> None:
    """Loud, unmissable stderr warning for unencrypted default-key channels."""
    print(
        f"WARNING: repro engine {role}: no shared secret configured — socket "
        f"payloads are UNENCRYPTED and unauthenticated (integrity-only "
        f"default key); set {SECRET_ENV} on the coordinator and every worker "
        "to enable payload encryption",
        file=sys.stderr,
        flush=True,
    )


def _channel_cipher(
    name: str, key: bytes, worker_nonce: str, coord_nonce: str
) -> PayloadCipher:
    """Build the negotiated per-connection payload cipher from both nonces."""
    try:
        salt = bytes.fromhex(worker_nonce) + bytes.fromhex(coord_nonce)
    except (ValueError, TypeError):
        raise ProtocolError(
            "handshake nonce is not valid hex; cannot derive channel keys"
        ) from None
    if not salt:
        raise ProtocolError(
            "handshake carried no nonces; cannot derive channel keys"
        )
    return make_cipher(name, key, salt=salt)


# -- framing ----------------------------------------------------------------


def _frame_mac(key: bytes, header: bytes, payload: bytes) -> bytes:
    return hmac.new(key, header + payload, hashlib.sha256).digest()


def _build_frame(payload: bytes, key: bytes) -> bytes:
    header = _HEADER.pack(len(payload) + _MAC_SIZE)
    return header + _frame_mac(key, header, payload) + payload


def send_frame(
    sock: socket.socket,
    payload: bytes,
    key: bytes,
    *,
    injector: FaultInjector | None = None,
    exempt: bool = False,
) -> None:
    """Send one MAC'd frame, through the fault injector when one is active."""
    frame = _build_frame(payload, key)
    if injector is not None:
        injector.send_frame(sock, frame, exempt=exempt)
    else:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int, *, allow_eof: bool = False) -> Optional[bytes]:
    """Read exactly *n* bytes; ``None`` on clean EOF at a frame boundary
    (only when *allow_eof*), :class:`ProtocolError` on EOF mid-frame."""
    parts: List[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0 and allow_eof:
                return None
            raise ProtocolError(
                "connection closed mid-frame (truncated protocol frame)"
            )
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)


def _parse_json_dict(raw: bytes) -> Optional[dict]:
    """*raw* as a JSON object, or ``None`` if it is anything else."""
    try:
        value = json.loads(raw)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _recv_frame(
    sock: socket.socket, key: bytes, *, max_frame: int = _MAX_FRAME
) -> Optional[bytes]:
    """Receive one frame and verify its MAC before returning the payload.

    ``None`` on clean EOF.  Truncated, runt or oversized frames raise
    :class:`ProtocolError`; a MAC mismatch raises :class:`AuthError` —
    either way the payload is never handed to the unpickler.  A JSON
    ``error`` payload under a failed MAC is surfaced as the peer's
    rejection message (a worker with the wrong secret could not read it
    otherwise); it can only abort with a message, never execute.
    """
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame + _MAC_SIZE:
        raise ProtocolError(
            f"oversized protocol frame ({length} bytes, cap "
            f"{max_frame + _MAC_SIZE}); refusing to allocate"
        )
    if length < _MAC_SIZE:
        raise ProtocolError(
            f"runt protocol frame ({length} bytes: too short to carry a MAC)"
        )
    body = _recv_exact(sock, length)
    mac, payload = body[:_MAC_SIZE], body[_MAC_SIZE:]
    if not hmac.compare_digest(mac, _frame_mac(key, header, payload)):
        rejection = _parse_json_dict(payload)
        if rejection is not None and rejection.get("type") == "error":
            raise AuthError(
                f"coordinator rejected this worker: {rejection.get('error')}"
            )
        raise AuthError(
            "frame MAC verification failed: shared-secret mismatch (set the "
            f"same {SECRET_ENV} on the coordinator and every worker) or a "
            "non-protocol peer"
        )
    return payload


def send_msg(
    sock: socket.socket,
    message: dict,
    key: bytes | str | None = None,
    *,
    cipher: PayloadCipher | None = None,
    injector: FaultInjector | None = None,
    exempt: bool = False,
) -> None:
    """Send one MAC'd pickled message, encrypted when a *cipher* is active."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if cipher is not None:
        body = _ENC_MARKER + cipher.seal(body)
    send_frame(sock, body, resolve_secret(key), injector=injector, exempt=exempt)


def recv_msg(
    sock: socket.socket,
    key: bytes | str | None = None,
    *,
    cipher: PayloadCipher | None = None,
) -> Optional[dict]:
    """Receive one message; ``None`` when the peer closed the connection.

    The frame MAC is verified *before* unpickling, so attacker-controlled
    bytes are rejected with :class:`AuthError`/:class:`ProtocolError`
    instead of reaching the unpickler.  JSON control frames (``error``)
    raise :class:`AuthError` carrying the coordinator's message.

    When a *cipher* was negotiated it is enforced both ways: an encrypted
    payload with no cipher, or a plaintext pickle on an encrypted channel,
    is a :class:`ProtocolError` — a peer cannot silently downgrade the
    channel after the handshake.
    """
    payload = _recv_frame(sock, resolve_secret(key))
    if payload is None:
        return None
    if payload[:1] == b"{":  # JSON control frame (pickle streams start \\x80)
        control = _parse_json_dict(payload)
        if control is not None and control.get("type") == "error":
            raise AuthError(f"coordinator rejected this worker: {control.get('error')}")
        raise ProtocolError("unexpected JSON control frame")
    if payload[:1] == _ENC_MARKER:
        if cipher is None:
            raise ProtocolError(
                "encrypted payload on a channel that negotiated no cipher"
            )
        payload = cipher.open(payload[1:])
    elif cipher is not None:
        raise ProtocolError(
            "plaintext payload on an encrypted channel (downgrade refused)"
        )
    try:
        message = pickle.loads(payload)
    except Exception:
        raise ProtocolError("undecodable protocol frame body") from None
    if not isinstance(message, dict):
        raise ProtocolError("protocol frame body is not a message dict")
    return message


def send_hello(
    sock: socket.socket,
    worker: str,
    key: bytes | str | None = None,
    *,
    version: int = PROTOCOL_VERSION,
    ciphers: Sequence[str] | None = None,
    nonce: str | None = None,
    injector: FaultInjector | None = None,
) -> None:
    """Send the JSON handshake frame (MAC'd like every other frame).

    *ciphers* advertises the payload ciphers this worker can run (defaults
    to everything the interpreter supports) and *nonce* is the worker's
    half of the HKDF salt; the coordinator answers both in its welcome.
    """
    hello = {
        "type": "hello",
        "version": version,
        "worker": worker,
        "ciphers": list(supported_ciphers() if ciphers is None else ciphers),
        "nonce": os.urandom(_NONCE_BYTES).hex() if nonce is None else nonce,
    }
    send_frame(sock, json.dumps(hello).encode(), resolve_secret(key), injector=injector)


def recv_hello(sock: socket.socket, key: bytes | str | None = None) -> Optional[dict]:
    """Receive and validate the handshake *without* touching the unpickler.

    Returns the hello dict, or ``None`` on a clean EOF probe.  Raises
    :class:`AuthError` with an actionable message for stale-protocol or
    wrong-secret workers (the coordinator forwards it to the peer as an
    ``error`` frame), and :class:`ProtocolError` for non-protocol peers,
    which are dropped silently.  The hello size cap rejects garbage first
    frames before allocating their claimed length.
    """
    resolved = resolve_secret(key)
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_HELLO:
        raise ProtocolError(f"oversized hello frame ({length} bytes): not a repro worker")
    if length < _MAC_SIZE:
        raise ProtocolError(f"runt hello frame ({length} bytes): not a repro worker")
    body = _recv_exact(sock, length)
    mac, payload = body[:_MAC_SIZE], body[_MAC_SIZE:]
    if hmac.compare_digest(mac, _frame_mac(resolved, header, payload)):
        hello = _parse_json_dict(payload)
        if hello is None or hello.get("type") != "hello":
            raise ProtocolError("first frame is not a hello handshake")
        if hello.get("version") != PROTOCOL_VERSION:
            raise AuthError(
                f"worker speaks protocol version {hello.get('version')}, this "
                f"coordinator requires {PROTOCOL_VERSION} (v2 added per-frame "
                "HMAC auth and result spooling); upgrade the older side"
            )
        return hello
    # MAC mismatch: classify the peer so the rejection is actionable.  A
    # version-1 worker framed the hello without a MAC, so the *whole* body
    # is its JSON; a version-2 worker with the wrong secret MAC'd a JSON
    # hello we can still read (the MAC authenticates, it does not encrypt).
    legacy = _parse_json_dict(body)
    if legacy is not None and legacy.get("type") == "hello":
        raise AuthError(
            f"worker speaks stale protocol version {legacy.get('version')} "
            f"(pre-auth framing); this coordinator requires "
            f"{PROTOCOL_VERSION} — upgrade repro on the worker host"
        )
    peer = _parse_json_dict(payload)
    if peer is not None and peer.get("type") == "hello":
        raise AuthError(
            "worker authentication failed: shared-secret mismatch — set the "
            f"same {SECRET_ENV} on the coordinator and every worker"
        )
    raise ProtocolError("unauthenticated non-protocol peer (garbage handshake)")


def _send_error(sock: socket.socket, key: bytes, message: str) -> None:
    """Best-effort JSON rejection frame (readable even under a key mismatch)."""
    try:
        send_frame(sock, json.dumps({"type": "error", "error": message}).encode(), key)
    except OSError:  # pragma: no cover - peer already gone
        pass


def accept_peer(
    sock: socket.socket,
    key: bytes | str | None = None,
    *,
    welcome_extra: Optional[dict] = None,
) -> Optional[Tuple[dict, Optional[PayloadCipher]]]:
    """Server half of the v2 handshake: hello in, welcome (+cipher) out.

    Validates the peer's hello (:func:`recv_hello` — version and MAC checks,
    never the unpickler), negotiates the payload cipher (mandatory under a
    real shared secret: a peer that cannot encrypt is refused, no silent
    downgrade), and answers with a ``welcome`` frame merged with
    *welcome_extra*.  Returns ``(hello, cipher)`` — ``cipher`` is ``None``
    on an integrity-only default-key channel.  Returns ``None`` when the
    peer was a clean EOF probe or was rejected (the actionable reason has
    already been sent as an ``error`` frame).  Non-protocol peers raise
    :class:`ProtocolError` and should be dropped silently.

    This is the handshake the engine coordinator runs for every worker; the
    simulation service (:mod:`repro.service.server`) runs the same one for
    its clients, which is how job submission inherits HMAC frame auth and
    AEAD payload encryption unchanged.
    """
    resolved = resolve_secret(key)
    try:
        hello = recv_hello(sock, resolved)
    except AuthError as exc:
        # Stale-protocol or wrong-secret peer: forward the reason so the
        # *peer's* failure message is actionable, then drop.
        _send_error(sock, resolved, str(exc))
        return None
    if hello is None:
        return None  # clean EOF probe; never a peer
    # Payload-cipher negotiation: mandatory under a real secret (a peer
    # that cannot encrypt is refused — no silent downgrade), skipped under
    # the public default key where encryption would only be theater.
    cipher: Optional[PayloadCipher] = None
    welcome = {"type": "welcome", "version": PROTOCOL_VERSION}
    if welcome_extra:
        welcome.update(welcome_extra)
    if resolved != _DEFAULT_KEY:
        chosen = negotiate_cipher(hello.get("ciphers") or [])
        if chosen is None or not hello.get("nonce"):
            _send_error(
                sock,
                resolved,
                "this coordinator requires encrypted result payloads "
                "(a shared secret is configured) but the worker "
                "offered no supported payload cipher — upgrade repro "
                "on the worker host",
            )
            return None
        server_nonce = os.urandom(_NONCE_BYTES).hex()
        welcome["cipher"] = chosen
        welcome["nonce"] = server_nonce
        cipher = _channel_cipher(chosen, resolved, str(hello["nonce"]), server_nonce)
    # The welcome itself travels plaintext (the peer cannot have the
    # server nonce yet); everything after it is encrypted.
    send_msg(sock, welcome, resolved)
    return hello, cipher


def connect_peer(
    sock: socket.socket,
    key: bytes | str | None = None,
    name: str = "client",
    *,
    injector: FaultInjector | None = None,
) -> Tuple[dict, Optional[PayloadCipher]]:
    """Client half of the v2 handshake: hello out, welcome (+cipher) back.

    Sends the MAC'd JSON hello, validates the welcome, and derives the
    negotiated per-connection payload cipher from both nonces.  Returns
    ``(welcome, cipher)``.  Raises :class:`AuthError` on rejection or on a
    server that will not encrypt while this side holds a real secret
    (plaintext is refused both directions), and :class:`ProtocolError` on a
    non-protocol peer.  Used by ``repro worker`` connections and by the
    simulation-service client alike.
    """
    resolved = resolve_secret(key)
    nonce = os.urandom(_NONCE_BYTES).hex()
    send_hello(sock, name, resolved, nonce=nonce, injector=injector)
    welcome = recv_msg(sock, resolved)
    if welcome is None:
        raise ProtocolError("coordinator closed the connection during handshake")
    if welcome.get("type") != "welcome":
        raise ProtocolError(f"expected welcome, got {welcome.get('type')!r}")
    if welcome.get("version") != PROTOCOL_VERSION:
        raise AuthError(
            f"coordinator speaks protocol version {welcome.get('version')}, "
            f"this worker speaks {PROTOCOL_VERSION}; upgrade the older side"
        )
    cipher: Optional[PayloadCipher] = None
    if welcome.get("cipher"):
        cipher = _channel_cipher(
            str(welcome["cipher"]), resolved, nonce, str(welcome.get("nonce", ""))
        )
    elif resolved != _DEFAULT_KEY:
        # This side holds a real secret, so the server must too (the
        # welcome's MAC verified) — a welcome without a cipher means a
        # pre-encryption server.  Refuse rather than send plaintext.
        raise AuthError(
            "coordinator did not negotiate payload encryption but a shared "
            "secret is configured; upgrade repro on the coordinator host "
            "(this worker refuses to send results in plaintext)"
        )
    return welcome, cipher


# -- identities -------------------------------------------------------------


def _sweep_id(config: SystemConfig, plan: RunPlan) -> str:
    """Stable sweep identity: a hash of the resolved ``(config, plan)``.

    Deliberately independent of the *pending* task set, so a coordinator
    restarted with ``--resume`` (fewer pending chunks) still owns the same
    sweep id and workers' spooled results remain replayable.
    """
    payload = {
        "config": dataclasses.asdict(config),
        "plan": dataclasses.asdict(plan),
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _chunk_id(tasks: Sequence[SimTask]) -> str:
    """Content-based chunk identity: a hash of the member task ids.

    Task ids are unique within a sweep and chunks partition the task set,
    so chunk ids are collision-free — and, unlike the old positional index,
    stable across coordinator restarts, which is what lets a worker's spool
    entry complete the same chunk on a restarted coordinator.
    """
    blob = "\x00".join(task.task_id for task in tasks)
    return "c" + hashlib.sha256(blob.encode()).hexdigest()[:15]


# -- worker-side result spool -----------------------------------------------


class ResultSpool:
    """On-disk journal of completed-but-unacknowledged chunk results.

    Layout: ``<root>/<sweep_id>/<chunk_id>.pkl``, each entry one pickled
    ``{"chunk_id", "task_ids", "results", "stats"}`` payload written via
    temp-file + ``os.replace`` so a torn write is never replayed.  A worker
    writes the entry *before* sending the result and deletes it on the
    coordinator's ``ack`` — so any result the coordinator did not durably
    consume survives worker reconnects and coordinator restarts, and is
    replayed instead of re-simulated.  The spool only ever holds successful
    chunks (an errored chunk must re-raise live, not replay silently).
    Deleting the directory is always safe: entries are an optimization,
    never the source of truth.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def _entry(self, sweep_id: str, chunk_id: str) -> Path:
        return self.root / sweep_id / f"{chunk_id}.pkl"

    def put(self, sweep_id: str, chunk_id: str, payload: dict) -> None:
        """Journal one finished chunk atomically."""
        path = self._entry(sweep_id, chunk_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, path)

    def entries(self, sweep_id: str) -> List[Tuple[str, dict]]:
        """All replayable ``(chunk_id, payload)`` entries for one sweep.

        Corrupt entries (torn by an old non-atomic writer, truncated disk)
        are deleted and skipped: replaying garbage is worse than
        re-simulating one chunk.
        """
        directory = self.root / sweep_id
        if not directory.is_dir():
            return []
        out: List[Tuple[str, dict]] = []
        for path in sorted(directory.glob("*.pkl")):
            try:
                payload = pickle.loads(path.read_bytes())
                if not isinstance(payload, dict) or "results" not in payload:
                    raise ValueError("not a spool payload")
            except Exception:
                path.unlink(missing_ok=True)
                continue
            out.append((path.stem, payload))
        return out

    def delete(self, sweep_id: str, chunk_id: str) -> None:
        """Drop one acknowledged entry (idempotent)."""
        self._entry(sweep_id, chunk_id).unlink(missing_ok=True)

    def gc(self, max_age_s: float, *, keep: Set[str] = frozenset()) -> List[str]:
        """Remove stale sweep directories; returns the sweep ids removed.

        Every acked entry is deleted individually, but the per-sweep
        directories (and entries for sweeps that never resumed) accumulate
        forever on long-lived worker hosts.  A sweep directory is removed
        only when it is *both* old — nothing under it (nor the directory
        itself) touched within *max_age_s* seconds — and not in *keep*
        (the sweep this worker is currently serving), so an in-flight
        sweep's journal can never be collected out from under it.
        """
        removed: List[str] = []
        if not self.root.is_dir():
            return removed
        now = time.time()
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or entry.name in keep:
                continue
            try:
                stamps = [entry.stat().st_mtime] + [
                    child.stat().st_mtime for child in entry.iterdir()
                ]
            except OSError:  # pragma: no cover - raced by another worker
                continue
            if now - max(stamps) < max_age_s:
                continue
            try:
                for child in entry.iterdir():
                    child.unlink(missing_ok=True)
                entry.rmdir()
            except OSError:  # pragma: no cover - raced by another worker
                continue
            removed.append(entry.name)
        return removed


# -- coordinator ------------------------------------------------------------


class _SweepState:
    """Shared coordinator state: the cost-ordered chunk queue, completions,
    liveness.

    Chunks are claimed **costliest-first** (LPT scheduling over
    :func:`~repro.engine.tasks.estimate_chunk_cost`) with the submission
    index as a deterministic tie-break; requeued chunks re-enter at their
    original priority.  Completion is tracked per chunk id and deduplicated,
    so at-least-once dispatch (requeue, duplicate frames, spool replay)
    still reports every task exactly once.
    """

    def __init__(self, chunks: Sequence[List[SimTask]], plan: RunPlan) -> None:
        self.cond = threading.Condition()
        self.chunks: Dict[str, List[SimTask]] = {}
        self._priority: Dict[str, Tuple[float, int]] = {}
        self._heap: List[Tuple[float, int, str]] = []
        for index, chunk in enumerate(chunks):
            cid = _chunk_id(chunk)
            self.chunks[cid] = list(chunk)
            priority = (-estimate_chunk_cost(chunk, plan), index)
            self._priority[cid] = priority
            self._heap.append((*priority, cid))
        heapq.heapify(self._heap)
        #: Completion events for the consuming generator, exactly one per
        #: chunk: ``(pairs, error, stats)``.  Folding a chunk's outcome into
        #: a single event means the consumer can never observe its pairs
        #: without also observing its error.
        self.events: "Queue[tuple]" = Queue()
        self.done: set[str] = set()
        self.finished = threading.Event()
        #: Set on an injected coordinator crash: handlers drop their workers
        #: without a word instead of serving or shutting them down.
        self.abandoned = threading.Event()
        self.connected = 0
        self._stall_since: float | None = None
        self.conns: set[socket.socket] = set()
        #: Per-connection handler threads, so teardown can drain them.
        self.handlers: List[threading.Thread] = []

    # -- worker bookkeeping (called from handler threads) ------------------

    def worker_joined(self, conn: socket.socket) -> None:
        with self.cond:
            self._check_abandoned()
            self.connected += 1
            self._stall_since = None
            self.conns.add(conn)

    def worker_left(self, conn: socket.socket) -> None:
        with self.cond:
            self.connected -= 1
            self.conns.discard(conn)

    # -- chunk lifecycle ---------------------------------------------------

    def _pop_runnable(self) -> Optional[Tuple[str, List[SimTask]]]:
        """Costliest pending chunk, skipping late-requeued completions.
        Caller holds ``self.cond``."""
        while self._heap:
            _, _, cid = heapq.heappop(self._heap)
            if cid in self.done:
                continue
            return cid, self.chunks[cid]
        return None

    def try_claim(self) -> Optional[Tuple[str, List[SimTask]]]:
        """Non-blocking claim: the costliest runnable chunk, or ``None``."""
        with self.cond:
            return self._pop_runnable()

    def claim(self) -> Optional[Tuple[str, List[SimTask]]]:
        """Next runnable chunk (costliest first), or ``None`` once the sweep
        is finished.  Blocks while all chunks are claimed-but-incomplete:
        one of them may yet be requeued."""
        with self.cond:
            while not self.finished.is_set():
                self._check_abandoned()
                claimed = self._pop_runnable()
                if claimed is not None:
                    return claimed
                self.cond.wait(0.2)
        return None

    def requeue(self, chunk_id: str) -> None:
        """Return a presumed-dead worker's chunk to the queue (if unfinished),
        at its original cost priority."""
        with self.cond:
            if chunk_id in self.done or chunk_id not in self.chunks:
                return
            if self.finished.is_set():
                return
            heapq.heappush(self._heap, (*self._priority[chunk_id], chunk_id))
            self.cond.notify()

    def complete(self, chunk_id: str, message: dict) -> bool:
        """Record one chunk result by id, deduplicating late duplicates.

        The event is enqueued under the lock before the chunk joins
        ``done``; the consumer counts consumed events rather than reading
        ``done``, so completion can never race it into returning while a
        chunk's outcome is still unqueued.
        """
        with self.cond:
            if chunk_id in self.done or chunk_id not in self.chunks:
                return False
            tasks = self.chunks[chunk_id]
            self.events.put(
                (
                    list(zip(tasks, message["results"])),
                    message.get("error"),
                    message.get("stats", {}),
                )
            )
            self.done.add(chunk_id)
            return True

    def absorb(self, message: dict) -> List[str]:
        """Complete every chunk fully covered by a result message's tasks.

        Live results complete exactly their own chunk.  *Spooled* results
        from before a coordinator restart may carry a task grouping that no
        longer matches the pending chunk partition (``--resume`` drops
        completed tasks before chunking); matching at the task level lets
        any current chunk whose tasks are all present complete from the
        replay.  Tasks that only partially cover a chunk are re-simulated —
        deterministic, so that costs wall-clock, never correctness.  The
        message's trace stats are attached to the first completed chunk
        only (they describe one worker execution, however many chunks it
        completes).
        """
        task_map: Dict[str, SimResult] = dict(
            zip(message.get("task_ids", ()), message["results"])
        )
        completed: List[str] = []
        with self.cond:
            for cid, tasks in self.chunks.items():
                if cid in self.done:
                    continue
                if all(task.task_id in task_map for task in tasks):
                    pairs = [(task, task_map[task.task_id]) for task in tasks]
                    stats = message.get("stats", {}) if not completed else {}
                    self.events.put((pairs, None, stats))
                    self.done.add(cid)
                    completed.append(cid)
        return completed

    def finish(self) -> None:
        """Mark the sweep over and wake every blocked :meth:`claim`."""
        self.finished.set()
        with self.cond:
            self.cond.notify_all()

    def abandon(self) -> None:
        """Crash the sweep: wake every blocked :meth:`claim` into an error,
        so no handler serves or shuts down a worker from here on."""
        self.abandoned.set()
        with self.cond:
            self.cond.notify_all()

    def _check_abandoned(self) -> None:
        if self.abandoned.is_set():
            raise EngineError("sweep abandoned by a coordinator crash")

    def check_stall(self, worker_wait: float, address: Tuple[str, int]) -> None:
        """Raise when work is pending but no worker has been alive for a while."""
        with self.cond:
            pending = len(self.chunks) - len(self.done)
            if self.connected > 0 or pending <= 0:
                self._stall_since = None
                return
            now = time.monotonic()
            if self._stall_since is None:
                self._stall_since = now
                return
            if now - self._stall_since <= worker_wait:
                return
        host, port = address
        raise EngineError(
            f"socket backend: no live workers for {worker_wait:.0f}s with "
            f"{pending} chunk(s) pending; start workers with `repro worker "
            f"--connect {host}:{port}` (workers need the matching "
            f"{SECRET_ENV} when the coordinator sets one)"
        )


class SocketBackend(ExecutionBackend):
    """Coordinator side of the socket worker protocol.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` picks a free port (read
        :attr:`address` after :meth:`bind`).
    heartbeat_timeout:
        Seconds of silence after which an in-flight worker is presumed dead
        and its chunk requeued.
    worker_wait:
        Seconds to tolerate having pending work but zero connected workers
        before giving up with :class:`EngineError`.
    cache_root:
        Shared trace-cache directory shipped to workers with every chunk.
    secret:
        Shared auth secret for frame MACs; ``None`` falls back to
        ``$REPRO_ENGINE_SECRET``, then the integrity-only default key.
    faults:
        Coordinator-side fault schedule (a :class:`FaultSpec` or its string
        grammar); only ``crash=N`` applies here — the sweep aborts after
        *N* chunk completions, simulating a coordinator crash for
        restart/replay testing.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        worker_wait: float = 60.0,
        cache_root: str | None = None,
        secret: str | None = None,
        faults: FaultSpec | str | None = None,
    ) -> None:
        super().__init__(cache_root)
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_wait = worker_wait
        self._key = resolve_secret(secret)
        self.faults = FaultSpec.parse(faults) if isinstance(faults, str) else faults
        self.listener: socket.socket | None = None
        self.address: Tuple[str, int] | None = None
        #: Workers that ever completed a handshake (for the CLI summary).
        self.workers_seen = 0
        #: Payload cipher negotiated with the most recent worker (all
        #: workers of one coordinator negotiate the same one).
        self.cipher_name: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def bind(self) -> Tuple[str, int]:
        """Start listening (idempotent); returns the bound ``(host, port)``."""
        if self.listener is None:
            if self._key == _DEFAULT_KEY:
                _warn_default_key("coordinator")
            self.listener = socket.create_server((self.host, self.port), backlog=32)
            self.address = self.listener.getsockname()[:2]
        return self.address

    def submit_chunks(
        self,
        config: SystemConfig,
        plan: RunPlan,
        chunks: Sequence[List[SimTask]],
    ) -> Iterator[Tuple[SimTask, SimResult]]:
        self.bind()
        state = _SweepState(chunks, plan)
        sweep = _sweep_id(config, plan)
        acceptor = threading.Thread(
            target=self._accept_loop, args=(state, config, plan, sweep), daemon=True
        )
        acceptor.start()
        crash_after = self.faults.crash if self.faults is not None else None
        crashed = False
        try:
            # Count consumed per-chunk events (each completed chunk queues
            # exactly one) — never the done set, which a handler thread
            # updates and could therefore race the final read.  A chunk's
            # pairs, error and stats travel in one event, so a task error in
            # the last chunk still raises after its siblings are yielded.
            consumed = 0
            total = len(state.chunks)
            while consumed < total:
                try:
                    pairs, error, stats = state.events.get(timeout=0.25)
                except Empty:
                    state.check_stall(self.worker_wait, self.address)
                    continue
                consumed += 1
                self.record_stats(stats)
                yield from pairs
                if error is not None:
                    raise error
                if crash_after is not None and crash_after <= consumed < total:
                    # A crashed coordinator dies mid-conversation: workers
                    # must observe exactly that (so they reconnect and replay
                    # their spools), never an orderly end-of-sweep.  Stop
                    # listening first, so a worker that re-dials now finds
                    # nobody rather than a handler that would hand it a
                    # shutdown, then sever the live connections.  The state
                    # is abandoned, never finished (see the finally clause).
                    crashed = True
                    self._close_listener()
                    state.abandon()
                    with state.cond:
                        conns = list(state.conns)
                    for conn in conns:
                        try:
                            conn.close()
                        except OSError:  # pragma: no cover - already dead
                            pass
                    raise EngineError(
                        f"injected coordinator crash after {consumed} chunk "
                        "completion(s)"
                    )
            # Graceful drain on normal completion: the last event can be
            # consumed while its handler thread is still sending the final
            # result ack (and the follow-up shutdown).  Severing the socket
            # first loses that ack, and a spooling worker would keep its
            # last journal entry forever and retry a coordinator that is
            # gone.  Finish the state so idle handlers hand out shutdowns,
            # then give every handler a bounded window to complete its
            # conversation before the teardown below closes what remains.
            state.finish()
            deadline = time.monotonic() + 5.0
            with state.cond:
                handlers = list(state.handlers)
            for handler in handlers:
                handler.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            if not crashed:
                state.finish()
            self._close_listener()
            acceptor.join(timeout=5.0)
            # Unblock any worker still attached (idle or mid-send); handlers
            # swallow the resulting socket errors and exit.
            with state.cond:
                conns = list(state.conns)
            for conn in conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _close_listener(self) -> None:
        """Stop listening (idempotent)."""
        listener, self.listener = self.listener, None
        self.address = None
        if listener is not None:
            # shutdown() before close(): a close alone does not wake a thread
            # blocked in accept(), and the in-flight syscall would keep the
            # kernel socket alive — still listening — past this teardown, so
            # a restarted coordinator could not rebind the port.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            listener.close()

    def _accept_loop(self, state: _SweepState, config, plan, sweep: str) -> None:
        listener = self.listener
        while not state.finished.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener closed: sweep over
                return
            handler = threading.Thread(
                target=self._serve_worker,
                args=(conn, state, config, plan, sweep),
                daemon=True,
            )
            with state.cond:
                state.handlers.append(handler)
            handler.start()

    def _serve_worker(
        self, conn: socket.socket, state: _SweepState, config, plan, sweep: str
    ) -> None:
        """Drive one worker connection; requeue its chunk if it dies."""
        conn.settimeout(self.heartbeat_timeout)
        registered = False
        current: str | None = None
        try:
            accepted = accept_peer(
                conn, self._key, welcome_extra={"sweep_id": sweep}
            )
            if accepted is None:
                return  # EOF probe, stale protocol, or wrong secret: dropped
            hello, cipher = accepted
            if cipher is not None:
                self.cipher_name = cipher.name
            state.worker_joined(conn)
            registered = True
            self.workers_seen += 1
            while True:
                msg = recv_msg(conn, self._key, cipher=cipher)
                if msg is None:
                    return  # worker hung up; finally requeues
                kind = msg.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "result":
                    # Live results and spool replays take the same path:
                    # task-level matching + per-chunk dedupe make duplicate
                    # frames, restarts and regrouped chunks all safe.
                    if msg.get("error") is not None:
                        state.complete(msg.get("chunk_id"), msg)
                    else:
                        state.absorb(msg)
                    if msg.get("chunk_id") == current:
                        current = None
                    send_msg(
                        conn,
                        {"type": "ack", "key": msg.get("key", msg.get("chunk_id"))},
                        self._key,
                        cipher=cipher,
                    )
                    continue
                if kind == "ready":
                    if current is not None:
                        # The worker moved on without delivering: its result
                        # frame was lost in transit.  Requeue; the worker's
                        # spool may still replay it later (dedupe keeps that
                        # safe).
                        state.requeue(current)
                        current = None
                    claimed = state.claim()
                    if claimed is None:
                        send_msg(conn, {"type": "shutdown"}, self._key, cipher=cipher)
                        return
                    current, tasks = claimed
                    send_msg(
                        conn,
                        {
                            "type": "chunk",
                            "chunk_id": current,
                            "tasks": tasks,
                            "config": config,
                            "plan": plan,
                            "cache_root": self.cache_root,
                        },
                        self._key,
                        cipher=cipher,
                    )
                    continue
                return  # protocol violation: treat as dead
        except (OSError, EOFError, EngineError):
            pass  # connection-level failure == worker death
        finally:
            if registered:
                state.worker_left(conn)
            if current is not None:
                state.requeue(current)
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def describe(self) -> str:
        seen = self.workers_seen
        if self._key != _DEFAULT_KEY:
            auth = "authenticated"
            if self.cipher_name is not None:
                auth += f", {self.cipher_name} encrypted"
        else:
            auth = "open"
        return f"socket ({seen} worker{'s' if seen != 1 else ''} participated, {auth})"


# -- worker -----------------------------------------------------------------


def _connect_with_retry(host: str, port: int, timeout: float) -> socket.socket:
    """Dial the coordinator, retrying until *timeout* (workers may start first).

    The total retry window is bounded: each attempt's own timeout is capped
    to the time remaining, so the loop cannot overshoot *timeout* by a full
    per-attempt timeout.  The raised message carries the last socket error —
    "connection refused" vs "no route to host" is the difference between a
    coordinator that is not up yet and a typo in ``--connect``.
    """
    deadline = time.monotonic() + timeout
    last: OSError | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 and last is not None:
            detail = f" (last error: {last})" if last is not None else ""
            raise EngineError(
                f"worker could not reach coordinator at {host}:{port} within "
                f"{timeout:.0f}s{detail}"
            ) from None
        try:
            return socket.create_connection(
                (host, port), timeout=min(10.0, max(remaining, 0.1))
            )
        except OSError as exc:
            last = exc
            time.sleep(min(0.2, max(deadline - time.monotonic(), 0.0)))


def _heartbeat_loop(
    sock: socket.socket,
    lock: threading.Lock,
    stop: threading.Event,
    interval: float,
    key: bytes,
    cipher: PayloadCipher | None,
    injector: FaultInjector | None,
) -> None:
    while not stop.wait(interval):
        try:
            with lock:
                # Heartbeats are fault-exempt: they are timing-driven, so
                # faulting them would make the injected schedule depend on
                # wall-clock interleaving instead of the frame sequence.
                send_msg(
                    sock,
                    {"type": "heartbeat"},
                    key,
                    cipher=cipher,
                    injector=injector,
                    exempt=True,
                )
        except OSError:
            return


def _sendable_error(error: BaseException | None) -> BaseException | None:
    """The chunk error, downgraded to EngineError if it cannot pickle."""
    if error is None:
        return None
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return EngineError(f"worker task failed: {error!r}")


def _await_ack(
    sock: socket.socket,
    key: bytes,
    expect: str,
    timeout: float,
    cipher: PayloadCipher | None = None,
) -> None:
    """Wait for the coordinator's ack of one result frame.

    A bounded wait: if the result frame was lost (dropped, torn) the
    coordinator will never ack, and waiting forever would deadlock against
    a coordinator that is itself waiting for the result — timing out turns
    the loss into an ordinary reconnect, after which the spool replays the
    result.  Stray acks for earlier duplicate frames are skipped.
    """
    previous = sock.gettimeout()
    sock.settimeout(timeout)
    try:
        while True:
            msg = recv_msg(sock, key, cipher=cipher)
            if msg is None:
                raise ProtocolError("coordinator closed before acknowledging a result")
            if msg.get("type") == "ack":
                if msg.get("key") == expect:
                    return
                continue  # ack for an earlier duplicate frame
            raise ProtocolError(
                f"expected result ack, got {msg.get('type')!r}"
            )
    finally:
        try:
            sock.settimeout(previous)
        except OSError:  # pragma: no cover - socket died inside the wait
            pass


def _recv_skipping_acks(
    sock: socket.socket, key: bytes, cipher: PayloadCipher | None = None
) -> Optional[dict]:
    """Next non-ack message (duplicate result frames earn duplicate acks)."""
    while True:
        msg = recv_msg(sock, key, cipher=cipher)
        if msg is None or msg.get("type") != "ack":
            return msg


def _serve_connection(
    sock: socket.socket,
    *,
    key: bytes,
    name: str,
    injector: FaultInjector | None,
    spool: ResultSpool | None,
    cache_root: str | None,
    max_chunks: int | None,
    heartbeat_interval: float,
    ack_timeout: float,
    counters: Dict[str, int],
    spool_gc_age: float | None = None,
) -> None:
    """One worker connection: handshake, spool replay, then the chunk loop.

    Returns when the coordinator says ``shutdown`` (or *max_chunks* is
    reached); raises ``OSError``/:class:`ProtocolError` on connection-level
    failure (the caller may reconnect) and :class:`AuthError` on rejection
    (the caller must not).
    """
    sock.settimeout(None)
    send_lock = threading.Lock()
    # The handshake predates the heartbeat thread, so no lock is needed
    # around it — nothing else can write to the socket yet.
    welcome, cipher = connect_peer(sock, key, name, injector=injector)
    sweep_id = str(welcome.get("sweep_id", ""))

    if spool is not None and spool_gc_age is not None:
        # Collect journal directories of long-dead sweeps, never the one
        # this connection is about to serve (or replay into).
        spool.gc(spool_gc_age, keep={sweep_id})

    if spool is not None:
        # Replay journaled results the previous coordinator (or connection)
        # never acknowledged: completed work survives both ends crashing.
        for chunk_id, payload in spool.entries(sweep_id):
            message = {"type": "result", "error": None, "spooled": True,
                       "key": chunk_id, **payload}
            with send_lock:
                send_msg(sock, message, key, cipher=cipher, injector=injector)
            _await_ack(sock, key, chunk_id, ack_timeout, cipher)
            spool.delete(sweep_id, chunk_id)
            counters["replayed"] += 1

    while max_chunks is None or counters["computed"] < max_chunks:
        with send_lock:
            send_msg(sock, {"type": "ready"}, key, cipher=cipher, injector=injector)
        msg = _recv_skipping_acks(sock, key, cipher)
        if msg is None:
            raise ProtocolError("coordinator closed the connection")
        if msg.get("type") == "shutdown":
            return
        if msg.get("type") != "chunk":
            raise ProtocolError(f"unexpected coordinator message {msg.get('type')!r}")
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, stop, heartbeat_interval, key, cipher, injector),
            daemon=True,
        )
        beat.start()
        try:
            results, error, stats = execute_task_chunk(
                msg["config"],
                msg["plan"],
                msg["tasks"],
                cache_root if cache_root is not None else msg.get("cache_root"),
            )
        finally:
            stop.set()
            beat.join()
        chunk_id = msg["chunk_id"]
        payload = {
            "chunk_id": chunk_id,
            "task_ids": [task.task_id for task in msg["tasks"]],
            "results": results,
            "stats": stats,
        }
        if spool is not None and error is None:
            spool.put(sweep_id, chunk_id, payload)
        counters["computed"] += 1
        with send_lock:
            send_msg(
                sock,
                {"type": "result", "error": _sendable_error(error),
                 "key": chunk_id, **payload},
                key,
                cipher=cipher,
                injector=injector,
            )
        _await_ack(sock, key, chunk_id, ack_timeout, cipher)
        if spool is not None and error is None:
            spool.delete(sweep_id, chunk_id)
    return


def run_worker(
    host: str,
    port: int,
    *,
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
    connect_timeout: float = 30.0,
    cache_root: str | None = None,
    max_chunks: int | None = None,
    secret: str | None = None,
    spool_dir: str | None = None,
    spool_gc: bool = False,
    spool_gc_age: float = 7 * 24 * 3600.0,
    faults: FaultSpec | FaultInjector | str | None = None,
    reconnect: bool = False,
    ack_timeout: float = 10.0,
    stats: Dict[str, int] | None = None,
) -> int:
    """Process task chunks from a coordinator until it says shutdown.

    This is the body of ``repro worker --connect HOST:PORT``.  A heartbeat
    thread pings the coordinator every *heartbeat_interval* seconds while a
    chunk is simulating so long chunks are not mistaken for death.
    *cache_root* overrides the coordinator-shipped trace-cache directory
    (useful when workers mount it elsewhere); *max_chunks* bounds how many
    chunks to process before exiting (mainly for tests).

    *secret* authenticates the worker and keys payload encryption (default
    ``$REPRO_ENGINE_SECRET``); *spool_dir* journals completed chunks for
    crash-safe replay, and *spool_gc* additionally collects journal
    directories of sweeps untouched for *spool_gc_age* seconds (the sweep
    being served is always kept); *faults* injects a deterministic failure
    schedule (and implies *reconnect*); *reconnect* re-dials the
    coordinator after a connection loss — each reattempt window is bounded
    by *connect_timeout*, and once the coordinator is gone for good the
    worker exits with the work it has.  *stats*, when passed, is filled
    with ``computed``/``replayed``/``reconnects`` counters.  Returns the
    number of chunks computed.
    """
    key = resolve_secret(secret)
    if key == _DEFAULT_KEY:
        _warn_default_key("worker")
    injector: FaultInjector | None = None
    if faults is not None:
        injector = faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        reconnect = True
    spool = ResultSpool(spool_dir) if spool_dir else None
    counters = stats if stats is not None else {}
    for name in ("computed", "replayed", "reconnects"):
        counters.setdefault(name, 0)
    name = f"{socket.gethostname()}:{os.getpid()}"
    ever_connected = False
    while True:
        try:
            sock = _connect_with_retry(host, port, connect_timeout)
        except EngineError:
            if ever_connected:
                break  # coordinator gone for good; exit with what we have
            raise
        ever_connected = True
        try:
            _serve_connection(
                sock,
                key=key,
                name=name,
                injector=injector,
                spool=spool,
                cache_root=cache_root,
                max_chunks=max_chunks,
                heartbeat_interval=heartbeat_interval,
                ack_timeout=ack_timeout,
                counters=counters,
                spool_gc_age=spool_gc_age if spool_gc else None,
            )
            break  # clean shutdown (or max_chunks reached)
        except AuthError:
            raise  # rejection is final: reconnecting would loop forever
        except (OSError, EOFError, ProtocolError):
            if not reconnect:
                break
            counters["reconnects"] += 1
            continue
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return counters["computed"]
