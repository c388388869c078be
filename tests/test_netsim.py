import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ubimap import fusion, netsim
from ubimap.fusion import CellState, GridMap
from ubimap.netsim import (
    ClientState,
    MalformedFrameError,
    MapServer,
    Message,
    MessageKind,
    NetworkParams,
    OversizePayloadError,
    SimulatedNetwork,
    TruncatedFrameError,
    WrongDirectionError,
    client_apply,
    decode,
    encode,
    encode_map_payload,
)

messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    seq=st.integers(0, 2**32 - 1),
    sender_id=st.integers(0, 2**16 - 1),
    payload=st.binary(max_size=512),
)


# -- codec ---------------------------------------------------------------------


def test_golden_hello_frame():
    msg = Message(kind=MessageKind.HELLO, seq=0, sender_id=1)
    expected = bytes.fromhex("5542534D0101000000000100000000" + "00")
    assert encode(msg) == expected
    assert len(encode(msg)) == 16


def test_golden_map_update_payload():
    cells = np.array([[CellState.WALL]], dtype=np.uint8)
    assert encode_map_payload(7, cells) == bytes.fromhex("070000000100010002")


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=st.integers(0, 4)),
    st.integers(0, 2**32 - 1),
)
def test_map_payload_round_trip(cells, revision):
    decoded_revision, decoded = netsim.decode_map_payload(encode_map_payload(revision, cells))
    assert decoded_revision == revision
    assert decoded.dtype == np.uint8 and (decoded == cells).all()
    assert not decoded.flags.writeable
    with pytest.raises(ValueError):
        decoded[0, 0] = 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 4))
def test_client_copy_unchanged_by_later_server_writes(width, height, state):
    server = MapServer(GridMap(width, height, 1.0))
    server.grid_map.cells[:] = state
    client = ClientState(robot_id=1)
    client_apply(client, server.map_update_message())
    server.grid_map.cells[:] = (state + 1) % 5
    fusion.merge_robot_map(server.grid_map, np.full((height, width), (state + 2) % 5, dtype=np.uint8))
    assert (client.cells == state).all()


def test_round_trip_simple():
    msg = Message(kind=MessageKind.ROBOT_POSE, seq=3, sender_id=2, payload=b"\x01\x02")
    assert decode(encode(msg)) == msg


@settings(max_examples=300)
@given(messages)
def test_round_trip_property(msg):
    assert decode(encode(msg)) == msg


def test_decode_rejects_bad_magic():
    frame = bytearray(encode(Message(MessageKind.HELLO, 0, 1)))
    frame[0] = ord("X")
    with pytest.raises(MalformedFrameError) as err:
        decode(bytes(frame))
    assert err.value.offset == 0


def test_decode_rejects_bad_version():
    frame = bytearray(encode(Message(MessageKind.HELLO, 0, 1)))
    frame[4] = 9
    with pytest.raises(MalformedFrameError) as err:
        decode(bytes(frame))
    assert err.value.offset == 4


def test_decode_rejects_unknown_kind():
    frame = bytearray(encode(Message(MessageKind.HELLO, 0, 1)))
    frame[5] = 200
    with pytest.raises(MalformedFrameError):
        decode(bytes(frame))


def test_decode_truncated_header():
    with pytest.raises(TruncatedFrameError):
        decode(b"UBSM\x01")


def test_decode_payload_overruns_buffer():
    frame = encode(Message(MessageKind.HELLO, 0, 1, payload=b"abcd"))
    with pytest.raises(TruncatedFrameError):
        decode(frame[:-2])


def test_decode_rejects_trailing_bytes():
    frame = encode(Message(MessageKind.HELLO, 0, 1)) + b"\x00"
    with pytest.raises(MalformedFrameError):
        decode(frame)


def test_oversize_payload_rejected():
    with pytest.raises(OversizePayloadError):
        Message(kind=MessageKind.SENSOR_UPLOAD, seq=0, sender_id=1, payload=bytes(2**24 + 1))


# -- simulated network ----------------------------------------------------------


def test_zero_loss_zero_latency_is_fifo():
    net = SimulatedNetwork(NetworkParams())
    for seq in range(5):
        net.send(Message(MessageKind.MAP_UPDATE, seq, 0), dest=1, now=0.0)
    out = net.deliver_due(0.0)
    assert [d.message.seq for d in out] == [0, 1, 2, 3, 4]
    assert net.dropped == 0


def test_total_loss_delivers_nothing():
    net = SimulatedNetwork(NetworkParams(loss_probability=1.0, seed=3))
    for seq in range(10):
        net.send(Message(MessageKind.MAP_UPDATE, seq, 0), dest=1, now=0.0)
    assert net.deliver_due(100.0) == []
    assert net.dropped == 10


def test_jitter_can_reorder_and_client_drops_stale():
    params = NetworkParams(latency_ms=50, jitter_ms=45, loss_probability=0.0, seed=11)
    net = SimulatedNetwork(params)
    source = GridMap(2, 2, 1.0)
    server = MapServer(source)
    for step in range(20):
        source.cells[0, 0] = step % 5
        source.revision += 1
        net.send(server.map_update_message(), dest=1, now=step * 0.01)
    deliveries = net.drain()
    seqs = [d.message.seq for d in deliveries]
    assert sorted(seqs) == list(range(20))
    assert seqs != sorted(seqs), "seed expected to reorder; pick another seed"
    client = ClientState(robot_id=1)
    for d in deliveries:
        last_seq, applied = client.last_applied_seq, client.applied_count
        client_apply(client, d.message)
        if client.applied_count > applied:
            assert client.last_applied_seq == d.message.seq > last_seq
        else:
            assert client.last_applied_seq == last_seq
    assert client.stale_count == 20 - client.applied_count
    assert client.last_applied_seq == 19


def test_identical_seeds_identical_schedules():
    def run():
        net = SimulatedNetwork(NetworkParams(latency_ms=20, jitter_ms=15, loss_probability=0.3, seed=7))
        for seq in range(30):
            net.send(Message(MessageKind.MAP_UPDATE, seq, 0), dest=seq % 3, now=seq * 0.005)
        return [(d.time, d.dest, d.message.seq) for d in net.drain()]

    assert run() == run()


# -- client state ----------------------------------------------------------------


def fresh_update(server):
    return server.map_update_message()


def test_client_applies_fresh_update():
    source = GridMap(2, 2, 1.0)
    source.cells[1, 1] = int(CellState.OBSTACLE)
    source.revision = 3
    server = MapServer(source)
    client = ClientState(robot_id=1)
    assert (client.revision, client.cells) == (0, None)
    client_apply(client, fresh_update(server))
    assert client.cells is not None
    assert client.revision == 3
    assert (client.cells == source.cells).all()
    assert client.last_applied_seq == 0


def test_client_drops_stale_update():
    source = GridMap(2, 2, 1.0)
    server = MapServer(source)
    first = fresh_update(server)
    second = fresh_update(server)
    client = ClientState(robot_id=1)
    client_apply(client, second)
    before = client.cells.copy()
    client_apply(client, first)  # stale: lower seq
    assert client.stale_count == 1
    assert (client.cells == before).all()
    assert client.last_applied_seq == 1


def test_client_rejects_sensor_upload():
    client = ClientState(robot_id=1)
    upload = Message(MessageKind.SENSOR_UPLOAD, 0, 1, encode_map_payload(0, np.zeros((1, 1), np.uint8)))
    with pytest.raises(WrongDirectionError):
        client_apply(client, upload)


@pytest.mark.parametrize("length", [0, 3, 5])
def test_client_rejects_ack_payload_of_wrong_length(length):
    client = ClientState(robot_id=1)
    with pytest.raises(MalformedFrameError):
        client_apply(client, Message(MessageKind.ACK, 0, 0, bytes(length)))
    assert client.last_ack is None


def test_client_records_ack():
    client = ClientState(robot_id=1)
    client_apply(client, Message(MessageKind.ACK, 0, 0, netsim._ACK_PAYLOAD.pack(7)))
    assert client.last_ack == 7


def test_client_stores_robot_pose():
    client = ClientState(robot_id=1)
    msg = Message(MessageKind.ROBOT_POSE, 0, 0, netsim.encode_pose_payload(1, 2.5, 1.5, 0.25))
    client_apply(client, msg)
    assert client.last_pose == (1, 2.5, 1.5, 0.25)


@pytest.mark.parametrize("pose", [(math.nan, 1.5, 0.25), (2.5, math.inf, 0.25), (2.5, 1.5, -math.inf)])
def test_client_rejects_non_finite_pose(pose):
    client = ClientState(robot_id=1)
    msg = Message(MessageKind.ROBOT_POSE, 0, 0, netsim.encode_pose_payload(1, *pose))
    with pytest.raises(MalformedFrameError):
        client_apply(client, msg)
    assert client.last_pose is None


def test_client_converges_to_server_map_without_loss():
    rng = np.random.default_rng(15)
    source = GridMap(4, 3, 0.5)
    server = MapServer(source)
    net = SimulatedNetwork(NetworkParams(latency_ms=30, jitter_ms=25, seed=2))
    clients = {cid: ClientState(cid) for cid in (1, 2, 3)}
    for step in range(15):
        source.cells[rng.integers(3), rng.integers(4)] = int(rng.integers(5))
        source.revision += 1
        for cid in clients:
            net.send(server.map_update_message(), dest=cid, now=step * 0.1)
    for d in net.drain():
        client_apply(clients[d.dest], d.message)
    for client in clients.values():
        assert client.revision == source.revision
        assert (client.cells == source.cells).all()


# -- server ingest -----------------------------------------------------------------


def upload_with_obstacle(seq=0, sender=1, size=(3, 3), cell=(2, 2)):
    fragment = np.zeros((size[1], size[0]), dtype=np.uint8)
    fragment[cell[1], cell[0]] = int(CellState.OBSTACLE)
    return Message(MessageKind.SENSOR_UPLOAD, seq, sender, encode_map_payload(1, fragment))


def test_ingest_merges_blind_spot_fragment():
    server = MapServer(GridMap(3, 3, 1.0))
    ack = server.ingest(upload_with_obstacle())
    assert ack is not None and ack.kind == MessageKind.ACK
    assert netsim._ACK_PAYLOAD.unpack(ack.payload) == (0,)
    assert server.grid_map.cells[2, 2] == int(CellState.OBSTACLE)
    assert server.grid_map.revision == 1


def test_ingest_duplicate_merged_once_but_acked():
    server = MapServer(GridMap(3, 3, 1.0))
    first = server.ingest(upload_with_obstacle(seq=5))
    revision = server.grid_map.revision
    second = server.ingest(upload_with_obstacle(seq=5))
    assert first is not None and second is not None
    assert server.grid_map.revision == revision
    assert server.stale_uploads == 1


def test_ingest_empty_fragment_acked_without_change():
    server = MapServer(GridMap(3, 3, 1.0))
    empty = Message(MessageKind.SENSOR_UPLOAD, 0, 1, encode_map_payload(0, np.zeros((3, 3), np.uint8)))
    ack = server.ingest(empty)
    assert ack is not None
    assert server.grid_map.revision == 0


def test_ingest_malformed_fragment_dropped_with_fault():
    server = MapServer(GridMap(3, 3, 1.0))
    bad = Message(MessageKind.SENSOR_UPLOAD, 0, 1, b"\x01\x02\x03")
    assert server.ingest(bad) is None
    assert server.faults


def test_ingest_dimension_mismatch_recorded():
    server = MapServer(GridMap(3, 3, 1.0))
    assert server.ingest(upload_with_obstacle(size=(2, 2), cell=(1, 1))) is None
    assert any("rejected" in fault for fault in server.faults)


def test_rejected_upload_is_rejected_again_on_retransmission():
    server = MapServer(GridMap(3, 3, 1.0))
    mismatched = upload_with_obstacle(seq=4, size=(4, 3))
    assert server.ingest(mismatched) is None
    assert server.ingest(mismatched) is None
    assert (server.uploads_merged, server.stale_uploads) == (0, 0)
    assert sum("rejected" in fault for fault in server.faults) == 2


def test_uploads_merged_counts_each_sender_and_seq_once():
    server = MapServer(GridMap(3, 3, 1.0))
    for seq, sender in ((0, 1), (0, 1), (1, 1), (0, 2)):
        assert server.ingest(upload_with_obstacle(seq=seq, sender=sender)) is not None
    assert (server.uploads_merged, server.stale_uploads) == (3, 1)


WINDOW = netsim.UPLOAD_WINDOW


def test_in_window_duplicate_acked_not_merged():
    server = MapServer(GridMap(3, 3, 1.0))
    for seq in (5, 6, 7, 5 + WINDOW - 1):
        assert server.ingest(upload_with_obstacle(seq=seq)) is not None
    ack = server.ingest(upload_with_obstacle(seq=5))  # 63 seqs behind the highest: still in the window
    assert ack is not None and netsim._ACK_PAYLOAD.unpack(ack.payload) == (5,)
    assert (server.uploads_merged, server.stale_uploads) == (4, 1)


def test_upload_older_than_window_counts_as_duplicate():
    server = MapServer(GridMap(3, 3, 1.0))
    assert server.ingest(upload_with_obstacle(seq=WINDOW)) is not None
    assert server.ingest(upload_with_obstacle(seq=0)) is not None  # never merged, but out of the window
    assert (server.uploads_merged, server.stale_uploads) == (1, 1)
    assert server.ingest(upload_with_obstacle(seq=1)) is not None  # the oldest seq the window keeps
    assert (server.uploads_merged, server.stale_uploads) == (2, 1)
    assert server.ingest(upload_with_obstacle(seq=1, sender=2)) is not None  # windows are per sender
    assert (server.uploads_merged, server.stale_uploads) == (3, 1)


def test_window_survives_a_jump_to_the_last_seq():
    server = MapServer(GridMap(3, 3, 1.0))
    for seq in (0, 2**32 - 1, 2**32 - 1, 0):
        assert server.ingest(upload_with_obstacle(seq=seq)) is not None
    assert (server.uploads_merged, server.stale_uploads) == (2, 2)
    assert server._upload_windows == {1: (2**32 - 1, 1)}


def test_jump_past_the_window_forgets_older_merges():
    server = MapServer(GridMap(3, 3, 1.0))
    for seq in (0, 1, WINDOW + 36, WINDOW + 35, WINDOW + 34):
        assert server.ingest(upload_with_obstacle(seq=seq)) is not None
    assert (server.uploads_merged, server.stale_uploads) == (5, 0)


def test_rejected_upload_in_window_is_merged_when_retransmitted_intact():
    server = MapServer(GridMap(3, 3, 1.0))
    assert server.ingest(upload_with_obstacle(seq=3, size=(4, 3))) is None
    assert server.ingest(upload_with_obstacle(seq=4)) is not None
    assert server.ingest(upload_with_obstacle(seq=3)) is not None
    assert (server.uploads_merged, server.stale_uploads) == (2, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3 * WINDOW), st.booleans()), max_size=60))
def test_upload_window_matches_unbounded_reference(uploads):
    # Reference: every merged (sender, seq) kept forever; an upload is a
    # duplicate if merged before or WINDOW or more behind its sender's
    # highest merged seq. A mismatched fragment is rejected, never kept.
    server = MapServer(GridMap(3, 3, 1.0))
    merged: set[tuple[int, int]] = set()
    duplicates = 0
    for sender, seq, intact in uploads:
        high = max((s for who, s in merged if who == sender), default=-1)
        duplicate = (sender, seq) in merged or seq <= high - WINDOW
        ack = server.ingest(upload_with_obstacle(seq=seq, sender=sender, size=(3, 3) if intact else (2, 3), cell=(1, 1)))
        assert (ack is not None) == (duplicate or intact)
        duplicates += duplicate
        if intact and not duplicate:
            merged.add((sender, seq))
        assert (server.uploads_merged, server.stale_uploads) == (len(merged), duplicates)
    assert all(0 <= bits < 2**WINDOW for _, bits in server._upload_windows.values())


def test_server_seq_strictly_increasing_per_kind():
    server = MapServer(GridMap(2, 2, 1.0))
    updates = [server.map_update_message().seq for _ in range(4)]
    poses = [server.pose_message(1, 0.0, 0.0, 0.0).seq for _ in range(3)]
    assert updates == [0, 1, 2, 3]
    assert poses == [0, 1, 2]


def test_server_seq_wraps_from_the_largest_u32_to_0():
    # The header's seq is a u32: after 2**32 - 1 messages of a kind the next is 0.
    server = MapServer(GridMap(2, 2, 1.0))
    server._seqs[MessageKind.MAP_UPDATE] = 2**32 - 2
    updates = [server.map_update_message() for _ in range(3)]
    assert [msg.seq for msg in updates] == [2**32 - 2, 2**32 - 1, 0]
    assert [decode(encode(msg)).seq for msg in updates] == [2**32 - 2, 2**32 - 1, 0]
    assert server.pose_message(1, 0.0, 0.0, 0.0).seq == 0  # each kind counts on its own


@pytest.mark.parametrize("byte", [5, 128, 255])
def test_map_payload_rejects_cell_byte_outside_states(byte):
    payload = struct.pack("<IHH", 1, 2, 2) + bytes([4, 0, byte, 1])
    with pytest.raises(MalformedFrameError, match="outside the state range"):
        netsim.decode_map_payload(payload)


# -- fuzzing -----------------------------------------------------------------------

PROTOCOL_ERRORS = (MalformedFrameError, TruncatedFrameError, WrongDirectionError, OversizePayloadError)


@st.composite
def map_payloads(draw):
    """Map payloads whose cell count is right or one off, with cell bytes
    in the state range or anywhere."""
    width, height = draw(st.sampled_from([(3, 2), (2, 3), (0, 2)]) | st.tuples(st.integers(0, 5), st.integers(0, 5)))
    size = max(0, width * height + draw(st.sampled_from([0, 0, 0, -1, 1])))
    cells = draw(st.binary(min_size=size, max_size=size) | st.lists(st.integers(0, 4), min_size=size, max_size=size).map(bytes))
    return struct.pack("<IHH", draw(st.integers(0, 2**32 - 1)), width, height) + cells


payloads = (
    st.binary(max_size=40)
    | map_payloads()
    | st.builds(netsim.encode_pose_payload, st.integers(0, 2**16 - 1), st.floats(), st.floats(), st.floats())
    | st.builds(struct.pack, st.just("<I"), st.integers(0, 2**32 - 1))
)


@st.composite
def frames(draw):
    """Random bytes, or a well-formed header of any kind (and some unknown
    ones) around a random payload, possibly cut short or overlong."""
    kind, seq, sender = draw(st.integers(0, 7)), draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**16 - 1))
    payload = draw(payloads)
    frame = netsim.HEADER.pack(netsim.MAGIC, netsim.VERSION, kind, seq, sender, len(payload)) + payload
    cut_short = st.builds(lambda cut: frame[:cut], st.integers(0, len(frame)))
    return draw(st.just(frame) | cut_short | st.just(frame + b"\x00") | st.binary(max_size=64))


@settings(max_examples=1000, deadline=None)
@given(frames())
def test_any_frame_is_applied_or_rejected_with_a_protocol_error(frame):
    client = ClientState(robot_id=1)
    server = MapServer(GridMap(3, 2, 1.0))
    try:
        msg = decode(frame)
    except PROTOCOL_ERRORS:
        return
    for apply in (lambda: client_apply(client, msg), lambda: server.ingest(msg)):
        try:
            apply()
        except PROTOCOL_ERRORS:
            pass
