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
import random
from dataclasses import dataclass
from fractions import Fraction

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


# The payload kernel loops over the offset within a symbol group, so each
# numpy call moves whole (B, W) blocks for every group at once.
# np.bitwise_xor.reduceat over the same gathers would make one inner-loop
# call per (group, demand, word), which dominates when groups hold a few
# cells.

def _payloads(groups: SymbolGroups, S: int, data: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(S, B, W) broadcast for B demand vectors d (B, K): per symbol, the
    XOR of the demanded packets of its cells (zero for an absent symbol)."""
    N, F, W = data.shape
    flat, dT = data.reshape(-1, W), d.T
    starts, sizes = groups.start[:-1], np.diff(groups.start)
    out = np.zeros((S, len(d), W), dtype=np.uint64)
    for t in range(int(sizes.max(initial=0))):
        c = starts[sizes > t] + t
        packets = dT[groups.user[c]] * F + groups.row[c, None]
        out[groups.symbol[c] - 1] ^= np.take(flat, packets, axis=0)
    return out


def _decode(
    groups: SymbolGroups, cache: CacheContents, payloads: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, dict[int, tuple[int, int, int]]]:
    """(K, F, B, W) files every user recovers from payloads (S, B, W), and
    the users blocked by a packet their cache has no slot for.

    Cached rows are the user's own copy; any other row is its symbol's
    payload XOR the group's other packets, each read from the receiver's
    cache through the slot map; a read with no slot blocks the receiver.
    The reads follow the tiles of ``groups.tiles`` (the cross entries
    ``verify_pda`` checks): a turn table lists each receiver's other cells
    after its own, other cell first, so one gather per tile reads them and
    an XOR fold over the leading axis cancels them.  An entry weighs four
    times its B*W packet words, so a tile reads at most a quarter of
    ``pda._TILE`` words; tiles twice as large ran slower on the 15-user
    demand sweep, whose working set then left the cache.  XOR and the least
    blocked pair do not depend on the tiling.  A blocked user's witness
    (row, user whose demand names the file, symbol) is its least blocked
    (receiver cell, other cell) pair, else its first row neither cached
    nor in a cell, with symbol 0.
    """
    users, slots = cache.users, cache.slots
    K, N, Z, W = users.shape
    F = slots.shape[1]
    flat, dZ = users.reshape(-1, W), d.T * Z

    out = np.empty((K * F, len(d), W), dtype=np.uint64)
    k, j = np.nonzero(slots >= 0)
    out[k * F + j] = np.take(flat, dZ[k] + (k * (N * Z) + slots[k, j])[:, None], axis=0)
    user, row, symbol = groups.user, groups.row, groups.symbol
    got = payloads[symbol - 1]
    lost = []  # (receiver cells, other cells) with no slot
    turns = {}
    for rec, oth, shift in groups.tiles(4 * len(d) * W):
        key = rec.shape[1], oth.shape[1], shift
        if key not in turns:  # receiver i's other cells: columns i + shift + 1, ... cyclically
            a, b, _ = key
            if shift is None:
                turns[key] = np.arange(b)[:, None]
            else:
                turns[key] = (np.arange(1, b)[:, None] + np.arange(a) + shift) % b
        other = oth[:, turns[key]].transpose(1, 0, 2)  # (b', n, a)
        ur = user[rec]
        slot = slots.take(ur * F + row[other])
        # each receiver's copy of each other cell's packet, (b', n, a, B, W)
        index = dZ[user[other]]
        index += (slot + ur * (N * Z))[..., None]
        read = np.take(flat, index, axis=0)
        got[rec] ^= np.bitwise_xor.reduce(read, axis=0)
        if slot.min(initial=0) < 0:
            o, x, i = np.nonzero(slot < 0)
            lost.append((rec[x, i], other[o, x, i]))
    out[user * F + row] = got
    blocked = {}
    if lost:
        a, b = map(np.concatenate, zip(*lost))
        order = np.lexsort((b, a))
        for i in order[np.unique(user[a[order]], return_index=True)[1]]:
            blocked[int(user[a[i]])] = (int(row[b[i]]), int(user[b[i]]), int(symbol[a[i]]))
    unset = slots < 0
    unset[user, row] = False
    if unset.any():
        ks, js = np.nonzero(unset)
        for i in np.unique(ks, return_index=True)[1]:
            blocked.setdefault(int(ks[i]), (int(js[i]), int(ks[i]), 0))
    return out.reshape(K, F, len(d), W), blocked


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
    out = _payloads(groups, pda.S, library.data, np.array([d], dtype=np.int64))
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
    where its sorted symbols change is refused.  Entry k of the result is
    user k's file.
    """
    d, L, payloads = transcript.demands, transcript.packet_len, transcript.payloads
    row, user, symbol, start = groups = transcript.groups
    (K, N, _, W), F = cache.users.shape, cache.slots.shape[1]
    if len(d) != K:
        raise ValueError(f"transcript serves {len(d)} users, cache has K={K}")
    if any(not (0 <= x < N) for x in d):
        raise ValueError(f"transcript demands must be file indices below N={N}")
    if L != cache.packet_len:
        raise ValueError(f"transcript packet_len={L} is not the cache's {cache.packet_len}")
    if row.size and (min(row.min(), user.min()) < 0 or row.max() >= F or user.max() >= K):
        raise ValueError(f"transcript cells must lie in the cache's {F} rows x {K} users")
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
    files, blocked = _decode(groups, cache, wire.view(np.uint64), np.array([d], dtype=np.int64))
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
    """
    if demand_budget < 0:
        raise ValueError(f"demand budget must be non-negative, got {demand_budget}")
    _check_sizes(pda, N, packet_len)
    library = FileLibrary.random(N, pda.F, packet_len, seed)
    cache = place(pda, library)
    groups = symbol_groups(pda)
    nominal = Fraction(pda.S, pda.F)
    W = library.data.shape[2]
    rows = np.arange(pda.F)[:, None]
    size = max(1, min(_MAX_CHUNK, _CHUNK_WORDS // (pda.F * pda.K * W)))

    total, exhaustive, chunks = _demand_chunks(N, pda.K, demand_budget, seed, size)
    failures = []
    max_load = Fraction(0)
    checked = 0
    for d in chunks:
        checked += len(d)
        payloads = _payloads(groups, pda.S, library.data, d)
        load = Fraction(len(payloads) * packet_len, pda.F * packet_len)
        max_load = max(max_load, load)
        if load != nominal:
            # A broadcast that does not carry one payload per symbol cannot
            # be decoded against the array, so only the load is reported.
            failures += [
                (v, None, f"measured load {load} != nominal {nominal}")
                for v in map(tuple, d.tolist())
            ]
            continue
        files, blocked = _decode(groups, cache, payloads, d)
        expected = np.take(library.data.reshape(-1, W), d.T[:, None, :] * pda.F + rows, axis=0)
        wrong = (files != expected).any(axis=1).any(axis=-1)  # (K, B)
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
