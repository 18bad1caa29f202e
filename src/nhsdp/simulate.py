"""End-to-end execution of the caching scheme described by a PDA.

Placement copies into each user's cache the packets marked by stars in its
column; delivery broadcasts one XOR per symbol; decoding cancels cached
interference and must reproduce every requested file byte-for-byte.  The
measured quantities (cache bytes, bytes on the wire, load) are counted from
the actual byte traffic, not read off formulas.

Packets are fixed-width byte blocks, zero-padded to whole 64-bit words and
held in numpy arrays, so XOR runs over many packets and many demand vectors
at once; file contents are reproducible from a recorded 64-bit seed.
Demands are 0-based file indices.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .pda import STAR, Pda, SymbolGroups, _check_cells, symbol_groups

DEFAULT_PACKET_LEN = 16
DEFAULT_DEMAND_BUDGET = 1_000_000

# Words (uint64) per batched working array in a demand sweep; a chunk of
# demand vectors is sized so that each of its arrays stays near 2 MiB.
_CHUNK_WORDS = 1 << 18
_MAX_CHUNK = 256

# 32-bit words per getrandbits call that fills a file library (2 MiB).
_DRAW_WORDS = 1 << 19


class UnrecoverablePacketError(RuntimeError):
    """A decode step needed a packet missing from the receiver's cache.

    For a transcript of a valid PDA this cannot happen (C3b: the interferer
    is cached); seeing it means a corrupt cache or another array's transcript.
    """


def _words(packet_len: int) -> int:
    return -(-packet_len // 8)


@dataclass(frozen=True, eq=False)
class FileLibrary:
    """N files of F packets each, every packet exactly packet_len bytes.

    ``data`` is an (N, F, W) uint64 array, W = ceil(packet_len / 8): each
    packet's bytes in order, zero-padded to 8W bytes.
    """

    packet_len: int  # the library's, which decode requires of a transcript
    data: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.packet_len < 1:
            raise ValueError("packet_len must be >= 1")
        data = np.ascontiguousarray(self.data)
        W = _words(self.packet_len)
        if data.dtype != np.uint64 or data.ndim != 3 or data.shape[2] != W or 0 in data.shape:
            raise ValueError(f"library data must be a non-empty (N, F, {W}) uint64 array")
        if data.view(np.uint8)[..., self.packet_len :].any():
            raise ValueError("padding bytes past packet_len must be zero")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def N(self) -> int:
        return self.data.shape[0]

    @property
    def F(self) -> int:
        return self.data.shape[1]

    @classmethod
    def random(
        cls, N: int, F: int, packet_len: int = DEFAULT_PACKET_LEN, seed: int = 0
    ) -> "FileLibrary":
        """Deterministic pseudo-random contents from a 64-bit seed; N*F*W <= MAX_CELLS words.

        Packet p is what ``random.Random(seed)``'s p-th ``getrandbits(8 *
        packet_len)`` call returns, as packet_len big-endian bytes.  Such a
        call takes w = ceil(packet_len / 4) 32-bit words of the stream, least
        significant first, and shifts the last one right by 32 - 8*packet_len
        mod 32, so the packets come from whole-packet draws of w words each.
        """
        if packet_len < 1:
            raise ValueError("packet_len must be >= 1")
        _check_cells("file library", N, F * _words(packet_len))
        rng = random.Random(seed)
        w = -(-packet_len // 4)
        shift = -8 * packet_len % 32
        padded = np.zeros((N * F, 8 * _words(packet_len)), dtype=np.uint8)
        step = max(1, _DRAW_WORDS // w)
        for p in range(0, N * F, step):
            n = min(step, N * F - p)
            words = np.frombuffer(
                rng.getrandbits(32 * w * n).to_bytes(4 * w * n, "little"), dtype="<u4"
            ).reshape(n, w)
            if shift:
                words = words.copy()
                words[:, -1] >>= shift
            # Little-endian words hold the packet's bytes least significant first.
            padded[p : p + n, :packet_len] = words.view(np.uint8)[:, packet_len - 1 :: -1]
        return cls(packet_len, padded.view(np.uint64).reshape(N, F, _words(packet_len)), seed)

    def packet_bytes(self, n: int, j: int) -> bytes:
        return self.data[n, j].view(np.uint8)[: self.packet_len].tobytes()

    def file_bytes(self, n: int) -> bytes:
        return self.data[n].view(np.uint8)[:, : self.packet_len].tobytes()


@dataclass(frozen=True, eq=False)
class CacheContents:
    """Per-user cache copies: user k holds packet (n, j) iff cell (j, k) is a star.

    ``users[k, n, slots[k, j]]`` is user k's own copy of packet j of file n;
    ``slots[k, j]`` is -1 where user k does not cache row j.
    """

    users: np.ndarray  # (K, N, Zmax, W) uint64
    slots: np.ndarray  # (K, F) int64
    packet_len: int  # the library's, which decode requires of a transcript

    def cached_bytes(self, k: int, packet_len: int) -> int:
        """Bytes user k caches; packet_len must be the library's."""
        if packet_len != self.packet_len:
            raise ValueError(f"packet_len {packet_len} is not the library's {self.packet_len}")
        return int((self.slots[k] >= 0).sum()) * self.users.shape[1] * packet_len


@dataclass(frozen=True)
class Transmission:
    """One symbol's payload and cells, as ``DeliveryTranscript.transmissions`` builds it."""

    symbol: int
    payload: bytes
    contributors: tuple[tuple[int, int], ...]  # (user, packet index)


@dataclass(frozen=True, eq=False)
class DeliveryTranscript:
    """Everything the server put on the wire for one demand vector.

    ``payloads[s - 1]`` is the broadcast for symbol s: a read-only
    (S, packet_len) uint8 array, one row per symbol.  ``groups`` is the
    symbol index of the PDA delivered, which names the (user, row) cells
    XORed into each payload.
    """

    demands: tuple[int, ...]
    payloads: np.ndarray
    groups: SymbolGroups
    packet_len: int  # the library's, which decode requires of a transcript
    seed: int | None

    @property
    def bytes_on_wire(self) -> int:
        return self.payloads.size

    @property
    def transmissions(self) -> tuple[Transmission, ...]:
        """One Transmission per payload row, built on each access."""
        row, user, symbol, start = self.groups
        bounds = zip(start[:-1].tolist(), start[1:].tolist())
        cells = {int(symbol[a]): tuple(zip(user[a:b].tolist(), row[a:b].tolist())) for a, b in bounds}
        return tuple(
            Transmission(s, wire.tobytes(), cells.get(s, ()))
            for s, wire in enumerate(self.payloads, 1)
        )


def _check_sizes(pda: Pda, N: int, packet_len: int) -> int:
    """Zmax, once the library and then the caches for N files fit MAX_CELLS words."""
    W = _words(packet_len)
    _check_cells("file library", N, pda.F * W)
    zmax = max(1, int((pda.grid == STAR).sum(axis=0).max()))
    _check_cells("cache", pda.K * N, zmax * W)
    return zmax


def place(pda: Pda, library: FileLibrary) -> CacheContents:
    """Placement: star cells decide what each user caches; K*N*Zmax*W <= MAX_CELLS words."""
    if library.F != pda.F:
        raise ValueError(
            f"library has {library.F} packets per file, PDA needs {pda.F}"
        )
    zmax = _check_sizes(pda, library.N, library.packet_len)
    star = np.ascontiguousarray((pda.grid == STAR).T)  # (K, F), row-major for _decode's take
    slots = np.where(star, np.cumsum(star, axis=1) - 1, -1)
    ks, js = np.nonzero(star)
    users = np.zeros((pda.K, library.N, zmax, library.data.shape[2]), dtype=np.uint64)
    users[ks, :, slots[ks, js]] = library.data[:, js].swapaxes(0, 1)
    return CacheContents(users, slots, library.packet_len)


class _Workspace:
    """The chunk buffers of one sweep, and the work every chunk shares;
    ``deliver`` and ``decode`` each use one for a sweep of one vector.

    ``buffer`` hands out C-contiguous leading slices of flat arrays kept by
    name, so a short last chunk reuses them; an array is replaced only when
    a request outgrows it, which the first (largest) chunk does.  The rest
    depends only on the array and the cache and is built on first use:
    ``kernel`` for the payload kernel and ``receivers`` for the decoder.
    ``blocked`` is filled by the decoder's first tile walk.
    """

    def __init__(self, groups: SymbolGroups, S: int, cache: CacheContents | None = None):
        self.groups, self.S, self.cache = groups, S, cache
        self.turns = {}  # the decoder's turn tables, by tile shape
        self.blocked = None
        self._buffers = {}

    def buffer(self, name: str, shape: tuple, dtype=np.uint64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    @cached_property
    def kernel(self) -> tuple[np.ndarray, list[int], np.ndarray]:
        """(first, counts, places): each group's first cell, largest groups
        first, so the cells at offset t are ``first[:counts[t]] + t``; and
        per symbol its group's place in that order (len(first) if absent)."""
        start = self.groups.start
        sizes = np.diff(start)
        order = np.argsort(-sizes, kind="stable")
        counts = np.searchsorted(-sizes[order], -np.arange(sizes.max(initial=0)))
        places = np.full(self.S, len(order), dtype=np.int64)
        places[self.groups.symbol[start[order]] - 1] = np.arange(len(order))
        return start[order], counts.tolist(), places

    @cached_property
    def receivers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """(cached, bases, targets, unset): the output row k*F + j of each
        cached packet and its cache row at file 0, k*N*Z + slot; the output
        row of each non-star cell; and per user with a star row it has no
        slot for, its first such row as a blocked witness."""
        users, slots = self.cache.users, self.cache.slots
        _, N, Z, _ = users.shape
        F = slots.shape[1]
        user, row = self.groups.user, self.groups.row
        cached = np.flatnonzero(slots >= 0)
        bases = cached // F * (N * Z) + slots.ravel()[cached]
        targets = user * F + row
        unset = slots < 0
        unset[user, row] = False
        ks, js = np.nonzero(unset)
        first = np.unique(ks, return_index=True)[1]
        return cached, bases, targets, {int(ks[i]): (int(js[i]), int(ks[i]), 0) for i in first}


# The payload kernel loops over the offset within a symbol group, so each
# numpy call moves whole (B, W) blocks for every group at once.
# np.bitwise_xor.reduceat over the same gathers would make one inner-loop
# call per (group, demand, word), which dominates when groups hold a few
# cells.
#
# Every take below writes into a workspace buffer with mode="clip", which
# numpy does not buffer as it does "raise".  Each index is in range:
# demands are below N (deliver and decode check them, the sweep makes
# them), cells lie in the F x K grid, symbols are at most len(payloads)
# (decode checks it, the sweep decodes only a full broadcast) and slots
# lie in [-1, Z) (place writes them, decode checks them).  The one
# exception, a read through slot -1, belongs to a receiver that the
# decoder reports blocked, whose bytes are never returned.

def _payloads(ws: _Workspace, data: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(S, B, W) broadcast for B demand vectors d (B, K): per symbol, the
    XOR of the demanded packets of its cells (zero for an absent symbol).

    The groups with an offset-t cell lead the kernel's order, so offset t
    XORs into a leading slice of one accumulator, and one gather puts its
    rows in symbol order."""
    N, F, W = data.shape
    B, flat = len(d), data.reshape(-1, W)
    first, counts, places = ws.kernel
    dF = ws.buffer("dF", d.T.shape, np.int64)
    np.multiply(d.T, F, out=dF)
    acc = ws.buffer("acc", (len(first) + 1, B, W))
    acc.fill(0)
    for t, n in enumerate(counts):
        c = first[:n] + t
        index = ws.buffer("index", (n, B), np.int64)
        np.take(dF, ws.groups.user[c], axis=0, out=index, mode="clip")
        index += ws.groups.row[c, None]
        read = ws.buffer("read", (n, B, W))
        np.take(flat, index, axis=0, out=read, mode="clip")
        np.bitwise_xor(acc[:n], read, out=acc[:n])
    return np.take(acc, places, axis=0, out=ws.buffer("payloads", (ws.S, B, W)), mode="clip")


def _decode(
    ws: _Workspace, payloads: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, dict[int, tuple[int, int, int]]]:
    """(K, F, B, W) files every user of ``ws.cache`` recovers from payloads
    (S, B, W), and the users blocked by a packet their cache has no slot for.

    Cached rows are the user's own copy; any other row is its symbol's
    payload XOR the group's other packets, each read from the receiver's
    cache through the slot map; a read with no slot blocks the receiver.
    The reads follow the tiles of ``groups.tiles`` (the cross entries
    ``verify_pda`` checks): a turn table lists each receiver's other cells
    after its own, other cell first, so one gather per tile reads them
    behind the receivers' rows and an XOR fold over the leading axis
    cancels them.  An entry weighs four times its B*W packet words, so a
    tile reads at most a quarter of ``pda._TILE`` words; tiles twice as
    large ran slower on the 15-user demand sweep, whose working set then
    left the cache.  XOR and the least blocked pair do not depend on the
    tiling.  A blocked user's witness (row, user whose demand names the
    file, symbol) is its least blocked (receiver cell, other cell) pair,
    else its first row neither cached nor in a cell, with symbol 0.

    The work that depends only on the array and the cache is done once per
    workspace: the cells' output rows, the cached rows' cache positions,
    the star-row screen (``ws.receivers``) and, on the first tile walk,
    the blocked users.  Each call runs only the demand-dependent gathers
    and XORs, with ``out=`` into the workspace's buffers: the output, the
    gather indices and the tile reads, and the cached and payload rows
    copied in pieces of at most ``_CHUNK_WORDS`` words.  Each call walks
    the tiles afresh, one at a time, so no table of all cross entries is
    kept.
    """
    users, slots = ws.cache.users, ws.cache.slots
    K, N, Z, W = users.shape
    F = slots.shape[1]
    B, flat = len(d), users.reshape(-1, W)
    user, row, symbol = ws.groups.user, ws.groups.row, ws.groups.symbol
    cached, bases, targets, unset = ws.receivers
    dZ = ws.buffer("dZ", d.T.shape, np.int64)
    np.multiply(d.T, Z, out=dZ)

    # Cached rows are copied from the cache, then each cell's row starts as
    # its symbol's payload; both in pieces of at most _CHUNK_WORDS words.
    files = ws.buffer("files", (K * F, B, W))
    step = max(1, _CHUNK_WORDS // (B * W))
    for lo in range(0, len(cached), step):
        hi = min(lo + step, len(cached))
        index = ws.buffer("index", (hi - lo, B), np.int64)
        np.take(dZ, cached[lo:hi] // F, axis=0, out=index, mode="clip")
        index += bases[lo:hi, None]
        read = ws.buffer("read", (hi - lo, B, W))
        files[cached[lo:hi]] = np.take(flat, index, axis=0, out=read, mode="clip")
    for lo in range(0, len(targets), step):
        hi = min(lo + step, len(targets))
        read = ws.buffer("read", (hi - lo, B, W))
        files[targets[lo:hi]] = np.take(payloads, symbol[lo:hi] - 1, axis=0, out=read, mode="clip")

    lost = [] if ws.blocked is None else None  # (receiver cells, other cells) with no slot
    for rec, oth, shift in ws.groups.tiles(4 * B * W):
        key = rec.shape[1], oth.shape[1], shift
        if key not in ws.turns:  # receiver i's other cells: columns i + shift + 1, ... cyclically
            a, b, _ = key
            if shift is None:
                ws.turns[key] = np.arange(b)[:, None]
            else:
                ws.turns[key] = (np.arange(1, b)[:, None] + np.arange(a) + shift) % b
        other = oth[:, ws.turns[key]].transpose(1, 0, 2)  # (b', n, a)
        ur = user[rec]
        slot = slots.take(ur * F + row[other])
        # the receivers' rows, then each receiver's copy of each other
        # cell's packet: (1 + b', n, a, B, W)
        index = ws.buffer("index", (*slot.shape, B), np.int64)
        np.take(dZ, user[other], axis=0, out=index, mode="clip")
        index += (slot + ur * (N * Z))[..., None]
        read = ws.buffer("read", (1 + len(slot), *slot.shape[1:], B, W))
        dest = targets[rec]
        np.take(files, dest, axis=0, out=read[0], mode="clip")
        np.take(flat, index, axis=0, out=read[1:], mode="clip")
        for other_read in read[1:]:
            np.bitwise_xor(read[0], other_read, out=read[0])
        files[dest] = read[0]
        if lost is not None and slot.min(initial=0) < 0:
            o, x, i = np.nonzero(slot < 0)
            lost.append((rec[x, i], other[o, x, i]))
    if lost is not None:
        ws.blocked = {}
        if lost:
            a, b = map(np.concatenate, zip(*lost))
            order = np.lexsort((b, a))
            for i in order[np.unique(user[a[order]], return_index=True)[1]]:
                ws.blocked[int(user[a[i]])] = (int(row[b[i]]), int(user[b[i]]), int(symbol[a[i]]))
        for k, witness in unset.items():
            ws.blocked.setdefault(k, witness)
    return files.reshape(K, F, B, W), ws.blocked


def _unrecoverable(k: int, witness: tuple[int, int, int], d) -> str:
    row, u, symbol = witness
    if symbol:
        return (
            f"user {k} lacks interfering packet ({d[u]}, {row}) "
            f"needed for symbol {symbol}"
        )
    return f"user {k} should have cached packet ({d[k]}, {row})"


def deliver(
    pda: Pda, library: FileLibrary, demands: tuple[int, ...] | list[int]
) -> DeliveryTranscript:
    """Broadcast, for each symbol s, the XOR of the demanded packets it marks.

    The server reads only the array and the library.  The transcript's
    payloads are the rows the XOR kernel emitted, so bytes_on_wire counts the
    bytes it broadcast, and its groups are the symbol index they were XORed
    over: all that decode needs of the array.
    """
    d = tuple(int(x) for x in demands)
    if len(d) != pda.K:
        raise ValueError(f"demand vector must have K={pda.K} entries")
    if any(not (0 <= x < library.N) for x in d):
        raise ValueError(f"demands must be 0-based file indices below N={library.N}")
    if library.F != pda.F:
        raise ValueError("library packet count does not match the PDA")

    groups = symbol_groups(pda)
    out = _payloads(_Workspace(groups, pda.S), library.data, np.array([d], dtype=np.int64))
    payloads = out.view(np.uint8)[:, 0, : library.packet_len]
    payloads.setflags(write=False)
    return DeliveryTranscript(d, payloads, groups, library.packet_len, library.seed)


def decode(cache: CacheContents, transcript: DeliveryTranscript) -> tuple[bytes, ...]:
    """Recover every user's requested file from its cache plus the broadcast.

    User k recovers its cell (j, k) of symbol s as payload s XOR the other
    packets of s, read from its cache; the cells come from the index deliver
    XORed over (``transcript.groups``), and star rows come from the cache.
    So each packet is exact, whatever array was delivered, or an uncached
    interferer blocks its user (UnrecoverablePacketError).  The groups are
    taken as ``start`` bounds them, so a transcript whose bounds are not
    where its sorted symbols change is refused, and so is one that names a
    cell twice.  Entry k of the result is user k's file.
    """
    d, L, payloads = transcript.demands, transcript.packet_len, transcript.payloads
    row, user, symbol, start = groups = transcript.groups
    (K, N, Z, W), F = cache.users.shape, cache.slots.shape[1]
    if cache.slots.size and (cache.slots.min() < -1 or cache.slots.max() >= Z):
        raise ValueError(f"cache slots must lie in [-1, {Z})")
    if len(d) != K:
        raise ValueError(f"transcript serves {len(d)} users, cache has K={K}")
    if any(not (0 <= x < N) for x in d):
        raise ValueError(f"transcript demands must be file indices below N={N}")
    if L != cache.packet_len:
        raise ValueError(f"transcript packet_len={L} is not the cache's {cache.packet_len}")
    if row.size and (min(row.min(), user.min()) < 0 or row.max() >= F or user.max() >= K):
        raise ValueError(f"transcript cells must lie in the cache's {F} rows x {K} users")
    seen = np.zeros(K * F, dtype=bool)
    seen[user * F + row] = True
    if np.count_nonzero(seen) != user.size:  # each decodes into its own (user, row)
        raise ValueError("transcript cells must be distinct (user, row) pairs")
    del seen
    step = np.diff(symbol)
    if (step < 0).any() or not (
        len(start) and start[0] == 0 and start[-1] == symbol.size
        and np.array_equal(start[1:-1], np.flatnonzero(step) + 1)
    ):
        raise ValueError(
            "transcript groups.start must split groups.symbol, sorted, exactly where it changes"
        )
    array = isinstance(payloads, np.ndarray)
    S = max(int(symbol.max(initial=0)), len(payloads) if array and payloads.ndim == 2 else 0)
    if not (array and payloads.dtype == np.uint8 and payloads.shape == (S, L)):
        got = f"{payloads.dtype} {payloads.shape}" if array else type(payloads).__name__
        raise ValueError(
            f"payloads must be one transmission per symbol 1..S={S}: "
            f"a uint8 ({S}, {L}) array, got {got}"
        )

    wire = np.zeros((S, 1, 8 * W), dtype=np.uint8)
    wire[:, 0, :L] = payloads
    # The workspace goes with the call, before the K files are copied out.
    files, blocked = _decode(
        _Workspace(groups, S, cache), wire.view(np.uint64), np.array([d], dtype=np.int64)
    )
    if blocked:
        k = min(blocked)
        raise UnrecoverablePacketError(_unrecoverable(k, blocked[k], d))
    files = files[:, :, 0].view(np.uint8)[..., :L]
    return tuple(files[k].tobytes() for k in range(K))


@dataclass(frozen=True)
class DemandCheckReport:
    """Aggregate result of sweeping demand vectors through the scheme."""

    total_demands: int
    checked: int
    exhaustive: bool
    failures: tuple
    nominal_load: Fraction
    max_measured_load: Fraction
    loads_all_equal: bool
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures and self.loads_all_equal


def _demand_chunks(N: int, K: int, budget: int, seed: int, size: int):
    """(total, exhaustive, chunks): (B, K) int64 arrays of demand vectors.

    Exhaustive sweeps count through [0, N^K) in mixed radix N, which is
    itertools.product order; samples keep their seeded random.Random order.
    """
    total = N**K
    if total <= budget:
        radix = N ** np.arange(K - 1, -1, -1, dtype=np.int64)
        chunks = (
            np.arange(start, min(start + size, total), dtype=np.int64)[:, None] // radix % N
            for start in range(0, total, size)
        )
        return total, True, chunks

    def sampled():
        yield (0,) * K  # all-equal corner
        if N >= K:
            yield tuple(range(K))  # all-distinct corner
        rng = random.Random(seed)
        for _ in range(budget):
            yield tuple(rng.randrange(N) for _ in range(K))

    def chunks():
        vectors = sampled()
        while batch := list(itertools.islice(vectors, size)):
            yield np.array(batch, dtype=np.int64)

    return total, False, chunks()


def exhaustive_demand_check(
    pda: Pda,
    N: int,
    packet_len: int = DEFAULT_PACKET_LEN,
    demand_budget: int = DEFAULT_DEMAND_BUDGET,
    seed: int = 0,
) -> DemandCheckReport:
    """Run place/deliver/decode over all N^K demands (or a seeded sample).

    Every user of every checked demand must recover its file byte-exactly,
    and the measured load (payload bytes emitted) / (F * packet_len) must
    equal S/F for each vector.  When N^K exceeds the budget, a deterministic
    sample plus the all-equal and (when N >= K) all-distinct corners is used.
    Demand vectors run in chunks through the same kernels as deliver/decode.

    The sweep runs in one workspace.  Its buffers (payloads, decoded and
    expected files, the comparison mask, gather indices, tile reads) are
    allocated on the first, largest chunk, and later chunks write into
    leading slices of them; what depends only on the array and the cache
    (the payload kernel's group order, ``_decode``'s receivers and blocked
    users) is worked out once.  So memory does not grow with the number
    of chunks, and no chunk allocates an array that scales with F*K*B.
    """
    if demand_budget < 0:
        raise ValueError(f"demand budget must be non-negative, got {demand_budget}")
    _check_sizes(pda, N, packet_len)
    library = FileLibrary.random(N, pda.F, packet_len, seed)
    cache = place(pda, library)
    ws = _Workspace(symbol_groups(pda), pda.S, cache)
    nominal = Fraction(pda.S, pda.F)
    K, F, W = pda.K, pda.F, library.data.shape[2]
    packets, rows = library.data.reshape(-1, W), np.arange(F)[:, None]
    size = max(1, min(_MAX_CHUNK, _CHUNK_WORDS // (F * K * W)))

    total, exhaustive, chunks = _demand_chunks(N, K, demand_budget, seed, size)
    failures = []
    max_load = Fraction(0)
    checked = 0
    for d in chunks:
        checked += len(d)
        payloads = _payloads(ws, library.data, d)
        load = Fraction(len(payloads) * packet_len, F * packet_len)
        max_load = max(max_load, load)
        if load != nominal:
            # A broadcast that does not carry one payload per symbol cannot
            # be decoded against the array, so only the load is reported.
            failures += [
                (v, None, f"measured load {load} != nominal {nominal}")
                for v in map(tuple, d.tolist())
            ]
            continue
        files, blocked = _decode(ws, payloads, d)
        index = ws.buffer("index", files.shape[:3], np.int64)
        np.add(d.T[:, None] * F, rows, out=index)
        expected = np.take(packets, index, axis=0, out=ws.buffer("expected", files.shape), mode="clip")
        mask = np.not_equal(files, expected, out=ws.buffer("mask", files.shape, np.bool_))
        user, word = np.nonzero(mask.any(axis=1).reshape(K, -1))  # word = b*W + w
        wrong = np.zeros((K, len(d)), dtype=bool)
        wrong[user, word // W] = True
        wrong[list(blocked)] = True
        for b, k in zip(*np.nonzero(wrong.T)):
            v, k = tuple(d[b].tolist()), int(k)
            reason = (
                _unrecoverable(k, blocked[k], v)
                if k in blocked
                else "decoded bytes differ from the library file"
            )
            failures.append((v, k, reason))

    return DemandCheckReport(
        total_demands=total,
        checked=checked,
        exhaustive=exhaustive,
        failures=tuple(failures),
        nominal_load=nominal,
        max_measured_load=max_load,
        loads_all_equal=not any(f[1] is None for f in failures),
        seed=seed,
    )
