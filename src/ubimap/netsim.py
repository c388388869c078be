"""Map-distribution protocol and the deterministic simulated network.

Wire frame (all multi-byte integers little-endian):

    magic "UBSM" | version 0x01 | kind (1 byte) | seq (u32) |
    sender_id (u16) | payload_len (u32) | payload

Kinds: HELLO=1, MAP_UPDATE=2, ROBOT_POSE=3, SENSOR_UPLOAD=4, ACK=5.

MAP_UPDATE / SENSOR_UPLOAD payload:
    revision (u32) | width (u16) | height (u16) | cell states, one byte
    each, row-major (Unexplored=0, Explored=1, Wall=2, Obstacle=3, Robot=4).
ROBOT_POSE payload: robot_id (u16) | x, y, theta (f64 each, finite).
ACK payload: the acknowledged upload's seq (u32).

Delivery model: each message is independently dropped with the configured
probability or delivered after mean latency plus uniform jitter, in
delivery-time order with ties broken by seq. No retransmission: the next
periodic broadcast supersedes a lost update. Everything runs on a virtual
clock; identical seeds give identical schedules.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .fusion import DimensionMismatchError, GridMap, merge_robot_map

MAGIC = b"UBSM"
VERSION = 1
HEADER = struct.Struct("<4sBBIHI")
MAX_PAYLOAD = 2**24
SERVER_ID = 0  # the map server's network address and sender id; robots use their own ids
# Uploads the server remembers per sender, counting back from the highest
# seq it merged from that sender; anything older counts as a duplicate.
UPLOAD_WINDOW = 64


class MessageKind(IntEnum):
    HELLO = 1
    MAP_UPDATE = 2
    ROBOT_POSE = 3
    SENSOR_UPLOAD = 4
    ACK = 5


class MalformedFrameError(ValueError):
    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class TruncatedFrameError(ValueError):
    pass


class WrongDirectionError(ValueError):
    pass


class OversizePayloadError(ValueError):
    pass


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    seq: int
    sender_id: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.seq < 2**32:
            raise ValueError("seq must fit in an unsigned 32-bit integer")
        if not 0 <= self.sender_id < 2**16:
            raise ValueError("sender_id must fit in an unsigned 16-bit integer")
        if len(self.payload) > MAX_PAYLOAD:
            raise OversizePayloadError(f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD}")


def encode(msg: Message) -> bytes:
    return (
        HEADER.pack(MAGIC, VERSION, int(msg.kind), msg.seq, msg.sender_id, len(msg.payload))
        + msg.payload
    )


def decode(data: bytes) -> Message:
    if len(data) < HEADER.size:
        raise TruncatedFrameError(f"frame of {len(data)} bytes is shorter than the {HEADER.size}-byte header")
    magic, version, kind, seq, sender_id, payload_len = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedFrameError(0, f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrameError(4, f"unsupported version {version}")
    try:
        kind = MessageKind(kind)
    except ValueError:
        raise MalformedFrameError(5, f"unknown message kind {kind}") from None
    if payload_len > MAX_PAYLOAD:
        raise MalformedFrameError(12, f"declared payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")
    end = HEADER.size + payload_len
    if len(data) < end:
        raise TruncatedFrameError(f"declared payload of {payload_len} bytes overruns the {len(data)}-byte buffer")
    if len(data) > end:
        raise MalformedFrameError(end, f"{len(data) - end} trailing bytes after the frame")
    return Message(kind=kind, seq=seq, sender_id=sender_id, payload=bytes(data[HEADER.size : end]))


# -- payload codecs -----------------------------------------------------------

_MAP_HEADER = struct.Struct("<IHH")
_POSE_PAYLOAD = struct.Struct("<Hddd")
_ACK_PAYLOAD = struct.Struct("<I")


def encode_map_payload(revision: int, cells: np.ndarray) -> bytes:
    """Map payload of a (height, width) uint8 array of cell states."""
    height, width = cells.shape
    return _MAP_HEADER.pack(revision, width, height) + cells.tobytes()


def decode_map_payload(payload: bytes) -> tuple[int, np.ndarray]:
    """-> (revision, cells): cells is a read-only (height, width) uint8
    array; validates the dimensions, the cell count and the state range."""
    if len(payload) < _MAP_HEADER.size:
        raise MalformedFrameError(0, "map payload shorter than its header")
    revision, width, height = _MAP_HEADER.unpack_from(payload)
    cells = np.frombuffer(payload, np.uint8, offset=_MAP_HEADER.size)
    if width == 0 or height == 0:
        raise MalformedFrameError(4, "map dimensions must be positive")
    if len(cells) != width * height:
        raise MalformedFrameError(_MAP_HEADER.size, f"expected {width * height} cells, got {len(cells)}")
    if cells.max() > 4:
        raise MalformedFrameError(_MAP_HEADER.size, "cell byte outside the state range 0..4")
    cells = cells.reshape(height, width)
    cells.flags.writeable = False
    return revision, cells


def encode_pose_payload(robot_id: int, x: float, y: float, theta: float) -> bytes:
    return _POSE_PAYLOAD.pack(robot_id, x, y, theta)


def decode_pose_payload(payload: bytes) -> tuple[int, float, float, float]:
    if len(payload) != _POSE_PAYLOAD.size:
        raise MalformedFrameError(0, f"pose payload must be {_POSE_PAYLOAD.size} bytes")
    robot_id, x, y, theta = _POSE_PAYLOAD.unpack(payload)
    if not all(map(math.isfinite, (x, y, theta))):
        raise MalformedFrameError(2, "pose x, y and theta must be finite")
    return robot_id, x, y, theta


# -- simulated network --------------------------------------------------------


@dataclass(frozen=True)
class NetworkParams:
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    loss_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.latency_ms >= 0 and self.jitter_ms >= 0):  # so that NaN fails
            raise ValueError("latency and jitter must be >= 0")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")


class Delivery(NamedTuple):
    time: float
    dest: int
    message: Message


class SimulatedNetwork:
    """Lossy, jittery, seeded message queue over a virtual clock."""

    def __init__(self, params: NetworkParams) -> None:
        self.params = params
        self._rng = random.Random(params.seed)
        self._queue: list[tuple[float, int, int, int, Message]] = []
        self._counter = 0
        self.sent = 0
        self.dropped = 0
        self.delivered = 0

    def send(self, msg: Message, dest: int, now: float) -> None:
        self.sent += 1
        if self._rng.random() < self.params.loss_probability:
            self.dropped += 1
            return
        jitter = self._rng.uniform(-self.params.jitter_ms, self.params.jitter_ms)
        latency = max(0.0, self.params.latency_ms + jitter) / 1000.0
        self._counter += 1
        heapq.heappush(self._queue, (now + latency, msg.seq, self._counter, dest, msg))

    def deliver_due(self, now: float) -> list[Delivery]:
        """Messages whose delivery time has arrived, in (time, seq) order."""
        out = []
        while self._queue and self._queue[0][0] <= now:
            time, seq, _, dest, msg = heapq.heappop(self._queue)
            self.delivered += 1
            out.append(Delivery(time=time, dest=dest, message=msg))
        return out

    def pending(self) -> int:
        return len(self._queue)

    def drain(self) -> list[Delivery]:
        """Deliver everything still in flight (end-of-run quiescence)."""
        if not self._queue:
            return []
        return self.deliver_due(max(item[0] for item in self._queue))


# -- client and server state machines ----------------------------------------


class ClientState:
    """A robot's view of the broadcast channel: the revision and cell
    states of its map copy (0 and None before the first update), the
    number of MAP_UPDATEs applied and dropped as stale, and the last pose
    and ACK received. Applied MAP_UPDATE seqs increase in serial number order."""

    def __init__(self, robot_id: int) -> None:
        self.robot_id = robot_id
        self.last_applied_seq = -1
        self.revision = 0
        self.cells: np.ndarray | None = None
        self.stale_count = 0
        self.applied_count = 0
        self.last_pose: tuple[int, float, float, float] | None = None
        self.last_ack: int | None = None


def client_apply(cs: ClientState, msg: Message) -> ClientState:
    """Apply one decoded server message to the client's state.

    Stale MAP_UPDATEs (seq not after the last applied in serial number order,
    where 0 follows 2**32 - 1) are dropped and counted. SENSOR_UPLOAD travels
    client-to-server only and is rejected here.
    """
    if msg.kind == MessageKind.SENSOR_UPLOAD:
        raise WrongDirectionError("SENSOR_UPLOAD is client-to-server only")
    if msg.kind == MessageKind.MAP_UPDATE:
        if cs.last_applied_seq >= 0 and _serial_distance(msg.seq, cs.last_applied_seq) <= 0:
            cs.stale_count += 1
            return cs
        cs.revision, cs.cells = decode_map_payload(msg.payload)
        cs.last_applied_seq = msg.seq
        cs.applied_count += 1
    elif msg.kind == MessageKind.ROBOT_POSE:
        cs.last_pose = decode_pose_payload(msg.payload)
    elif msg.kind == MessageKind.ACK:
        if len(msg.payload) != _ACK_PAYLOAD.size:
            raise MalformedFrameError(0, f"ack payload must be {_ACK_PAYLOAD.size} bytes")
        (cs.last_ack,) = _ACK_PAYLOAD.unpack(msg.payload)
    return cs


def _serial_distance(a: int, b: int) -> int:
    """a - b for u32 seqs in serial number arithmetic (RFC 1982): > 0 when a comes after b."""
    return (a - b + 2**31) % 2**32 - 2**31


class MapServer:
    """Server half of the protocol, sending as SERVER_ID: broadcasts the
    fused map, merges and acknowledges robot uploads, counting the merges
    in uploads_merged, one per sender and seq. Duplicates are found in a
    window of UPLOAD_WINDOW seqs per sender, so memory stays bounded."""

    def __init__(self, grid_map: GridMap) -> None:
        self.grid_map = grid_map
        self.faults: list[str] = []
        self.stale_uploads = 0
        self.uploads_merged = 0
        self._seqs: dict[MessageKind, int] = {}
        # sender -> (highest merged seq, bitmask: bit k set when seq
        # highest - k was merged)
        self._upload_windows: dict[int, tuple[int, int]] = {}

    def next_seq(self, kind: MessageKind) -> int:
        """The kind's next seq: 0 first, and 0 again after 2**32 - 1, the
        largest the u32 header field holds."""
        seq = self._seqs.get(kind, 0)
        self._seqs[kind] = (seq + 1) % 2**32
        return seq

    def map_update_message(self) -> Message:
        return Message(
            kind=MessageKind.MAP_UPDATE,
            seq=self.next_seq(MessageKind.MAP_UPDATE),
            sender_id=SERVER_ID,
            payload=encode_map_payload(self.grid_map.revision, self.grid_map.cells),
        )

    def pose_message(self, robot_id: int, x: float, y: float, theta: float) -> Message:
        return Message(
            kind=MessageKind.ROBOT_POSE,
            seq=self.next_seq(MessageKind.ROBOT_POSE),
            sender_id=SERVER_ID,
            payload=encode_pose_payload(robot_id, x, y, theta),
        )

    def ingest(self, msg: Message) -> Message | None:
        """Handle a SENSOR_UPLOAD: merge its map fragment (once per sender
        and seq) and return the ACK to queue back, or None on a malformed
        or mismatched fragment, which is dropped with a recorded fault and
        not remembered, so a retransmission is merged or rejected afresh.
        An upload UPLOAD_WINDOW or more seqs behind the sender's highest
        merged one, in serial number order, counts as a duplicate: ACKed,
        counted, not merged."""
        if msg.kind != MessageKind.SENSOR_UPLOAD:
            raise WrongDirectionError(f"server ingest expects SENSOR_UPLOAD, got {msg.kind.name}")
        try:
            _, cells = decode_map_payload(msg.payload)
        except (MalformedFrameError, TruncatedFrameError) as exc:
            self.faults.append(f"upload from {msg.sender_id} seq {msg.seq} dropped: {exc}")
            return None
        high, merged = self._upload_windows.get(msg.sender_id, (msg.seq, 0))
        age = _serial_distance(high, msg.seq)
        if age >= UPLOAD_WINDOW or (age >= 0 and merged >> age & 1):
            self.stale_uploads += 1
        else:
            try:
                merge_robot_map(self.grid_map, cells)
            except DimensionMismatchError as exc:
                self.faults.append(f"upload from {msg.sender_id} seq {msg.seq} rejected: {exc}")
                return None
            if age < 0:  # a new highest seq slides the window forward
                high, merged = msg.seq, (merged << -age if -age < UPLOAD_WINDOW else 0) | 1
            else:
                merged |= 1 << age
            self._upload_windows[msg.sender_id] = (high, merged & ((1 << UPLOAD_WINDOW) - 1))
            self.uploads_merged += 1
        return Message(
            kind=MessageKind.ACK,
            seq=self.next_seq(MessageKind.ACK),
            sender_id=SERVER_ID,
            payload=_ACK_PAYLOAD.pack(msg.seq),
        )
