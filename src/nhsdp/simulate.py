"""End-to-end execution of the caching scheme described by a PDA.

Placement copies into each user's cache the packets marked by stars in its
column; delivery broadcasts one XOR per symbol; decoding cancels cached
interference and must reproduce every requested file byte-for-byte.  Cache
bytes and bytes on the wire are counted from the buffers actually filled;
the load is S/F, one payload row per symbol 1..S whatever the demand.

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

from .pda import _TILE, STAR, Pda, SymbolGroups, _check_cells, symbol_index

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

    def file_bytes(self, n: int) -> bytes:
        return self.data[n].view(np.uint8)[:, : self.packet_len].tobytes()


@dataclass(frozen=True, eq=False)
class CacheContents:
    """Per-user cache copies: user k holds packet (n, j) iff cell (j, k) is a star.

    ``users[k, n, slots[k, j]]`` is user k's own copy of packet j of file n;
    ``slots[k, j]`` is -1 where user k does not cache row j.  ``place``
    makes the slot map int32 (int64 once K*N*Zmax reaches 2**31, which
    ``MAX_CELLS`` rules out), the dtype of the cache-row table that
    ``decode`` builds from it.
    """

    users: np.ndarray  # (K, N, Zmax, W) uint64
    slots: np.ndarray  # (K, F) int32
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

    Only ``deliver`` makes one, so its groups index the cells of one Pda
    and its payloads hold a row for each of that Pda's symbols: a direct
    call and ``dataclasses.replace`` both raise.  The payloads view the
    whole of the (S*W)-word buffer deliver XORed into, its rows zero-padded
    to W words, which decode reads back through ``payloads.base`` and moves
    whole.
    """

    demands: tuple[int, ...]
    payloads: np.ndarray
    groups: SymbolGroups
    packet_len: int  # the library's, which decode requires of a transcript
    seed: int | None

    def __init__(self, *args, **kwargs):
        raise TypeError("only deliver makes a DeliveryTranscript")

    @classmethod
    def _of(cls, **fields) -> "DeliveryTranscript":
        transcript = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(transcript, name, value)
        return transcript

    @property
    def bytes_on_wire(self) -> int:
        return self.payloads.size

    @property
    def transmissions(self) -> tuple[Transmission, ...]:
        """One Transmission per payload row, built on each access."""
        row, user, present, start = self.groups
        bounds = zip(present.tolist(), start[:-1].tolist(), start[1:].tolist())
        cells = {s: tuple(zip(user[a:b].tolist(), row[a:b].tolist())) for s, a, b in bounds}
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


def _row_dtype(rows: int) -> type:
    """The narrowest of int32 and int64 that numbers ``rows`` cache rows."""
    return np.int32 if rows < 2**31 else np.int64


def place(pda: Pda, library: FileLibrary) -> CacheContents:
    """Placement: star cells decide what each user caches; K*N*Zmax*W <= MAX_CELLS words."""
    if library.F != pda.F:
        raise ValueError(
            f"library has {library.F} packets per file, PDA needs {pda.F}"
        )
    zmax = _check_sizes(pda, library.N, library.packet_len)
    N, W = library.N, library.data.shape[2]
    star = np.ascontiguousarray((pda.grid == STAR).T)  # (K, F)
    # A star row's slot is its rank among its user's star rows: the running
    # count of stars, times the star, less one, so -1 off the stars.
    slots = np.cumsum(star, axis=1, dtype=_row_dtype(pda.K * N * zmax))
    slots *= star
    slots -= 1
    ks, js = np.divmod(np.flatnonzero(star), pda.F)
    users = np.zeros((pda.K, N, zmax, W), dtype=np.uint64)
    # Each file's cached packets go to their cache rows k*N*Z + n*Z + slot
    # in one scatter, a packet of W words moved as one item.
    rows, data = _items(users).reshape(-1), _items(library.data)
    base = ks * (N * zmax) + slots[ks, js]
    for n in range(N):
        rows[base + n * zmax] = data[n].take(js)
    return CacheContents(users, slots, library.packet_len)


def _items(words: np.ndarray, axes: int = 1) -> np.ndarray:
    """A C-contiguous uint64 array with its last ``axes`` axes as one void
    item, so that a fancy gather or scatter moves a whole packet (or a
    packet per demand vector) as one item.  It is a view, so a scatter into
    it writes into ``words``; any other layout raises, as the reshape would
    copy it."""
    if not words.flags.c_contiguous:
        raise ValueError("packet items need a C-contiguous array")
    lead, width = words.shape[: words.ndim - axes], math.prod(words.shape[words.ndim - axes :])
    return words.reshape(*lead, width).view(np.dtype((np.void, 8 * width)))[..., 0]


class _Workspace:
    """The chunk buffers of one sweep, and the work every chunk shares;
    ``deliver`` and ``decode`` each use one for a sweep of one vector.

    ``buffer`` hands out C-contiguous leading slices of flat arrays kept by
    name, so a short last chunk reuses them; an array is replaced only when
    a request outgrows it, which the first (largest) chunk does.  With a
    cache, ``table`` is its (K, F) cache-row table, built from the slots
    as the workspace is made: entry (k, j) is the row k*N*Z + slot of
    ``users.reshape(-1, W)`` that holds user k's copy of packet j of file
    0, and -1 where k has no slot for row j.  The rest depends only on the
    array and the cache and is built on first use: ``classes`` for the
    payload kernel and the decoder's tile walk, and ``receivers`` for
    decode's cached rows, the sweep's cache check and the decoder's
    blocked users.  ``blocked`` is filled by the decoder's first tile walk.
    """

    def __init__(self, groups: SymbolGroups, S: int, cache: CacheContents | None = None):
        self.groups, self.S, self.cache = groups, S, cache
        self.turns = {}  # the decoder's turn tables, by tile shape
        self.blocked = None
        self._buffers = {}
        if cache is not None:
            K, N, Z, _ = cache.users.shape
            table = cache.slots.astype(_row_dtype(K * N * Z))
            table += np.arange(0, K * N * Z, N * Z, dtype=table.dtype)[:, None]
            np.copyto(table, -1, where=cache.slots < 0)
            self.table = table

    def buffer(self, name: str, shape: tuple, dtype=np.uint64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    @cached_property
    def classes(self) -> list[tuple[int, np.ndarray]]:
        """The groups of each size, as ``groups.size_classes`` gives them,
        for every payload kernel and tile walk of the sweep."""
        return self.groups.size_classes()

    @cached_property
    def receivers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """(cached, bases, cut, unset): the output row k*F + j of each
        packet user k caches outside its own cells, ascending, and its
        cache row at file 0 from ``table``; user k's are cached[cut[k] :
        cut[k + 1]].  And per user with a star row it has no slot for, its
        first such row as a blocked witness.  Cell rows are decoded, so a
        slot on one is never read as the user's copy."""
        K, F = self.table.shape
        table, user, row = self.table.reshape(-1), self.groups.user, self.groups.row
        # 1 where the user has a slot, 0 where it has none, 2 on its cells
        kind = (table >= 0).view(np.int8)
        for lo in range(0, len(row), _CHUNK_WORDS):
            at = user[lo : lo + _CHUNK_WORDS] * F
            at += row[lo : lo + _CHUNK_WORDS]
            kind[at] = 2
        cached = np.flatnonzero(kind == 1)
        ks, js = np.divmod(np.flatnonzero(kind == 0), F)
        first = np.unique(ks, return_index=True)[1]
        unset = {int(ks[i]): (int(js[i]), int(ks[i]), 0) for i in first}
        cut = cached.searchsorted(np.arange(0, (K + 1) * F, F))
        return cached, table.take(cached), cut, unset


def _turn(n: int, a: int, b: int, shift: int | None) -> np.ndarray:
    """The (b', n, a) turn table of a tile of n groups: entry (t, x, i)
    is the position among the tile's (n, b) other cells of receiver i's
    t-th other cell.  Receiver i is other cell i + shift, so its others
    are cells i + shift + 1 + t (t < b - 1) cyclically; with shift None it
    meets all b of them."""
    if shift is None:
        col = np.arange(b)[:, None, None] + np.zeros(a, dtype=np.int64)
    else:
        col = (np.arange(1, b)[:, None, None] + np.arange(a) + shift) % b
    return col + np.arange(0, n * b, b)[:, None]


# The payload kernel loops over the offset within a symbol group, so each
# numpy call moves whole (B, W) blocks for every group of a size at once.
# np.bitwise_xor.reduceat over the same gathers would make one inner-loop
# call per (group, demand, word), which dominates when groups hold a few
# cells.
#
# Every take below writes into a workspace buffer with mode="clip", which
# numpy does not buffer as it does "raise".  Each index is in range:
# demands are below N (deliver and decode check them, the sweep makes
# them), cells lie in the F x K grid (decode checks a transcript's rows
# against the cache's F; its users are below len(demands) == K), every
# symbol has a payload row (deliver and the sweep write one for each
# symbol 1..S of the Pda), slots lie in [-1, Z) (place writes them,
# decode checks them), so a cache-row table entry is a row of the cache or
# -1, and each cell's ``dest`` row lies in the decoder's output (decode's
# user*F + row is below K*F, the sweep's cell index below the number of
# cells).  The one exception, a read through an entry of -1, belongs to a
# receiver that the decoder reports blocked: decode returns none of its
# bytes, and the sweep reports it as blocked.

def _payloads(ws: _Workspace, data: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(S, B, W) broadcast for B demand vectors d (B, K): per symbol, the
    XOR of the demanded packets of its cells (zero for an absent symbol).

    The groups of each size g, ``ws.classes``, XOR their cells at offset
    t = 0 .. g-1 into one accumulator, which then fills their symbols' rows."""
    N, F, W = data.shape
    B, flat = len(d), data.reshape(-1, W)
    groups = ws.groups
    dF = ws.buffer("dF", d.T.shape, np.int64)
    np.multiply(d.T, F, out=dF)
    payloads = ws.buffer("payloads", (ws.S, B, W))
    payloads.fill(0)
    for g, members in ws.classes:
        first, n = groups.start[members], len(members)
        acc, read = ws.buffer("acc", (n, B, W)), ws.buffer("read", (n, B, W))
        index = ws.buffer("index", (n, B), np.int64)
        acc.fill(0)
        for t in range(g):
            c = first + t
            np.take(dF, groups.user[c], axis=0, out=index, mode="clip")
            index += groups.row[c, None]
            np.take(flat, index, axis=0, out=read, mode="clip")
            np.bitwise_xor(acc, read, out=acc)
        payloads[groups.present[members] - 1] = acc
    return payloads


def _decode(
    ws: _Workspace, d: np.ndarray, out: np.ndarray, dest: np.ndarray | None = None
) -> dict[int, tuple[int, int, int]]:
    """Cancel the interference for B demand vectors d: for each non-star
    cell c, XOR into row ``dest[c]`` of out, (rows, B, W), the other
    packets of c's symbol, each read from c's user's cache through the
    cache-row table.  With dest None, cell c's row is user[c]*F + row[c].
    Return the users blocked by a packet their cache has no slot for.

    The caller fills out: with each cell's payload, so its row becomes
    the decoded packet (decode), or with its payload XOR the packet its
    user wants, so a correctly decoded row becomes zero (the sweep).
    The reads follow the tiles of ``groups.tiles`` (the cross entries
    ``verify_pda`` checks).  Per tile, the rows and users of the other
    cells are gathered once, at the tile's (n, b) cells, and a turn table
    (``_turn``, kept by tile shape) lines them up behind each receiver:
    receiver i's other cells after its own, cyclically.  Per entry, one
    gather of the cache-row table at the receiver's user and the other
    cell's row, plus the other cell's demand offset, gives the cache row
    to read; each entry gathers its B offsets, a row of d*Z, at the other
    cell's user.  One gather reads the copies behind the receivers' rows,
    an XOR fold over the leading axis cancels them, and the receivers'
    rows go back as items of B*W words.
    An entry weighs four times its B*W packet words, so a tile reads at
    most a quarter of ``pda._TILE`` words; tiles twice as large ran slower
    on the 15-user demand sweep, whose working set then left the cache.
    XOR and the least blocked pair do not depend on the tiling.  A blocked
    user's witness (row, user whose demand names the file, symbol) is its
    least blocked (receiver cell, other cell) pair, else its first row
    neither cached nor in a cell, with symbol 0.

    The blocked users depend only on the array and the cache, so the
    first tile walk of a workspace finds them, from the sign of the table
    entries it reads, and adds the star-row screen of ``ws.receivers``.
    Each call runs only the demand-dependent gathers and XORs, with
    ``out=`` into the workspace's buffers: the gather indices and the
    tile reads.  Each call walks the tiles afresh, one at a time, so no
    table of all cross entries is kept.
    """
    users, table = ws.cache.users, ws.table.reshape(-1)
    K, N, Z, W = users.shape
    F = ws.table.shape[1]
    B, flat = len(d), users.reshape(-1, W)
    groups = ws.groups
    user, row = groups.user, groups.row
    dZ = ws.buffer("dZ", d.T.shape, np.int64)
    np.multiply(d.T, Z, out=dZ)

    rows = _items(out, 2)  # out's rows, and below the receivers', as items of B*W words
    lost = [] if ws.blocked is None else None  # (receiver cells, other cells) with no slot
    for rec, oth, shift in groups.tiles(4 * B * W, ws.classes):
        shape = (*rec.shape, oth.shape[1], shift)
        turn = ws.turns.get(shape)
        if turn is None:
            turn = ws.turns[shape] = _turn(*shape)
        ur = user.take(rec)
        ur *= F
        key = row.take(oth).take(turn)  # (b', n, a)
        key += ur
        base = np.take(table, key, out=ws.buffer("base", key.shape, table.dtype), mode="clip")
        # each receiver's cache row of each other cell's packet: (b', n, a, B)
        index = ws.buffer("index", (*key.shape, B), np.int64)
        np.take(dZ, user.take(oth).take(turn), axis=0, out=index, mode="clip")
        index += base[..., None]
        # the receivers' rows, then their copies: (1 + b', n, a, B, W)
        read = ws.buffer("read", (1 + len(key), *rec.shape, B, W))
        if dest is None:
            at = row.take(rec)
            at += ur
        else:
            at = dest[rec]
        np.take(out, at, axis=0, out=read[0], mode="clip")
        np.take(flat, index, axis=0, out=read[1:], mode="clip")
        for other_read in read[1:]:
            np.bitwise_xor(read[0], other_read, out=read[0])
        rows[at.ravel()] = read[0].reshape(-1, B * W).view(rows.dtype)[:, 0]
        if lost is not None and base.min(initial=0) < 0:
            o, x, i = np.nonzero(base < 0)
            lost.append((rec[x, i], oth.take(turn[o, x, i])))
    if lost is not None:
        ws.blocked = {}
        if lost:
            a, b = map(np.concatenate, zip(*lost))
            order = np.lexsort((b, a))
            for i in order[np.unique(user[a[order]], return_index=True)[1]]:
                c, o = int(a[i]), int(b[i])
                ws.blocked[int(user[c])] = (int(row[o]), int(user[o]), int(groups.symbols(c, c + 1)[0]))
        for k, witness in ws.receivers[3].items():
            ws.blocked.setdefault(k, witness)
    return ws.blocked


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
    over, ``symbol_index(pda)``: all that decode needs of the array.
    """
    d = tuple(int(x) for x in demands)
    if len(d) != pda.K:
        raise ValueError(f"demand vector must have K={pda.K} entries")
    if any(not (0 <= x < library.N) for x in d):
        raise ValueError(f"demands must be 0-based file indices below N={library.N}")
    if library.F != pda.F:
        raise ValueError("library packet count does not match the PDA")

    groups = symbol_index(pda)
    # (S, 1, W): the whole of a fresh workspace's buffer, which decode reads
    # back through the payloads' base
    out = _payloads(_Workspace(groups, pda.S), library.data, np.array([d], dtype=np.int64))
    payloads = out.view(np.uint8)[:, 0, : library.packet_len]
    payloads.setflags(write=False)
    return DeliveryTranscript._of(
        demands=d, payloads=payloads, groups=groups,
        packet_len=library.packet_len, seed=library.seed,
    )


def decode(cache: CacheContents, transcript: DeliveryTranscript) -> np.ndarray:
    """Recover every user's requested file from its cache plus the broadcast.

    User k recovers its cell (j, k) of symbol s as payload s XOR the other
    packets of s, read from its cache; the cells come from the index deliver
    XORed over (``transcript.groups``), and star rows come from the cache.
    So each packet is exact, whatever array was delivered, or an uncached
    interferer blocks its user (UnrecoverablePacketError).  Only deliver
    makes a transcript, so its index and payloads are those of one Pda;
    decode checks only that the transcript fits the cache: slots in
    [-1, Z), K demands, each below N, the cache's packet_len, and cell rows
    below the cache's F.

    The K*F rows of one (K*F, 1, W) array start as each user's cached
    copies and each cell's payload, moved as whole W-word rows: the copies
    through the cache-row table that the workspace builds from the slots
    as they are now, the payloads from the zero-padded word rows of
    deliver's buffer, ``payloads.base``.
    ``_decode`` then cancels the cells' interference in place.  That array
    is the result, as a read-only (K, F, packet_len) uint8 view:
    ``files[k].tobytes()`` is user k's file.  Beside it, decode holds the
    (K, F) table, int32 like the slot map, and the cached rows' positions.
    """
    d, L, payloads = transcript.demands, transcript.packet_len, transcript.payloads
    groups = transcript.groups
    (K, N, Z, W), F = cache.users.shape, cache.slots.shape[1]
    if cache.slots.size and (cache.slots.min() < -1 or cache.slots.max() >= Z):
        raise ValueError(f"cache slots must lie in [-1, {Z})")
    if len(d) != K:
        raise ValueError(f"transcript serves {len(d)} users, cache has K={K}")
    if any(not (0 <= x < N) for x in d):
        raise ValueError(f"transcript demands must be file indices below N={N}")
    if L != cache.packet_len:
        raise ValueError(f"transcript packet_len={L} is not the cache's {cache.packet_len}")
    if groups.row.size and groups.row.max() >= F:  # users are below len(d) == K
        raise ValueError(f"transcript cells must lie in the cache's {F} rows x {K} users")

    ws = _Workspace(groups, len(payloads), cache)
    cached, bases, cut, _ = ws.receivers
    demand = np.array([d], dtype=np.int64)
    # Each cached row is the user's own copy and each cell's row starts as
    # its symbol's payload: whole W-word rows, gathered and scattered as
    # items in pieces of about _CHUNK_WORDS words, the cached rows a run of
    # whole users at a time.
    files = np.zeros((K * F, 1, W), dtype=np.uint64)
    rows, copies = _items(files, 2), _items(np.ascontiguousarray(cache.users)).reshape(-1)
    wire = _items(payloads.base.reshape(len(payloads), W))
    step = max(1, _CHUNK_WORDS // W)
    per = max(1, step // Z)
    for k in range(0, K, per):
        lo, hi = cut[k], cut[min(k + per, K)]
        at = np.repeat(demand[0, k : k + per] * Z, np.diff(cut[k : k + per + 1]))
        at += bases[lo:hi]
        rows[cached[lo:hi]] = copies.take(at)
    user, row = groups.user, groups.row
    for lo in range(0, len(row), step):
        hi = min(lo + step, len(row))
        at = user[lo:hi] * F
        at += row[lo:hi]
        rows[at] = wire.take(groups.symbols(lo, hi) - 1)
    blocked = _decode(ws, demand, files)
    if blocked:
        k = min(blocked)
        raise UnrecoverablePacketError(_unrecoverable(k, blocked[k], d))
    files = files.view(np.uint8).reshape(K, F, 8 * W)[..., :L]
    files.setflags(write=False)
    return files


@dataclass(frozen=True)
class DemandCheckReport:
    """Aggregate result of sweeping demand vectors through the scheme."""

    total_demands: int
    checked: int
    exhaustive: bool
    failures: tuple  # (demand vector, user, reason), one per wrong user
    nominal_load: Fraction  # S/F: the kernel writes a payload row per symbol 1..S
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures


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


def _stale(ws: _Workspace, data: np.ndarray) -> np.ndarray:
    """(K, N) bool: whether any packet user k caches outside its cells,
    as its copy of file n, differs from the library's (N, F, W) data."""
    users = ws.cache.users
    K, N, Z, W = users.shape
    F = ws.table.shape[1]
    cached, bases, _, _ = ws.receivers
    flat, stale = users.reshape(-1, W), np.zeros((K, N), dtype=bool)
    step = max(1, _CHUNK_WORDS // W)
    for lo in range(0, len(cached), step):
        k, j = np.divmod(cached[lo : lo + step], F)
        for n in range(N):
            copies = flat.take(bases[lo : lo + step] + n * Z, axis=0)
            stale[k[(copies != data[n].take(j, axis=0)).any(axis=1)], n] = True
    return stale


def exhaustive_demand_check(
    pda: Pda,
    N: int,
    packet_len: int = DEFAULT_PACKET_LEN,
    demand_budget: int = DEFAULT_DEMAND_BUDGET,
    seed: int = 0,
) -> DemandCheckReport:
    """Run place/deliver/decode over all N^K demands (or a seeded sample).

    Every user of every checked demand must recover its file byte-exactly;
    each user that does not is a failure.  The report's one load is S/F of
    the array: the broadcast carries one payload row for each symbol 1..S,
    absent symbols included.  When N^K exceeds the budget, a deterministic
    sample plus the all-equal and (when N >= K) all-distinct corners is used.
    Demand vectors run in chunks through the same kernels as deliver/decode.

    The sweep runs in one workspace and checks as it decodes.  Before the
    first chunk, each user's cached copies are compared with the library
    once, into a (K, N) table of stale files.  A chunk then holds one
    (P, B, W) buffer of its P non-star cells in symbol-index order: each
    cell starts as its symbol's payload XOR the library packet its user
    wants, and ``_decode`` XORs in the other packets as the user holds
    them, so a correctly decoded cell is all zero words.  User k of vector
    b is wrong when its file d[b, k] is stale, when one of its cells is
    not zero, or when it is blocked.  The buffers (payloads, cells, gather
    indices, tile reads) are allocated on the first, largest chunk, and
    later chunks write into leading slices of them; what depends only on
    the array and the cache (the groups of each size, the stale table,
    ``_decode``'s blocked users) is worked out once.  So memory does not
    grow with the number of chunks, and no chunk allocates an array that
    scales with F*K*B.  The prefill reads the wanted packets in pieces no
    larger than a tile's reads, so the cells are the one large buffer of
    a chunk: with pieces as large as the cells, the v=125 sweep of 16
    vectors held 5.4 MiB of buffers, which the allocator handed back to
    the system after each call and took again, page by page, on the next.
    The symbol index is ``symbol_index(pda)``.
    """
    if demand_budget < 0:
        raise ValueError(f"demand budget must be non-negative, got {demand_budget}")
    _check_sizes(pda, N, packet_len)
    groups = symbol_index(pda)
    library = FileLibrary.random(N, pda.F, packet_len, seed)
    cache = place(pda, library)
    ws = _Workspace(groups, pda.S, cache)
    K, F, W = pda.K, pda.F, library.data.shape[2]
    user, row, P = groups.user, groups.row, len(groups.row)
    packets, cells = library.data.reshape(-1, W), np.arange(P)
    stale = _stale(ws, library.data)
    size = max(1, min(_MAX_CHUNK, _CHUNK_WORDS // (max(P, pda.S, 1) * W)))

    total, exhaustive, chunks = _demand_chunks(N, K, demand_budget, seed, size)
    failures = []
    checked = 0
    for d in chunks:
        B = len(d)
        checked += B
        payloads = _payloads(ws, library.data, d)
        dF = ws.buffer("dF", d.T.shape, np.int64)
        np.multiply(d.T, F, out=dF)
        out = ws.buffer("cells", (P, B, W))
        step = max(1, _TILE // 4 // (B * W))  # no more words than a tile reads
        for lo in range(0, P, step):
            hi = min(lo + step, P)
            piece = out[lo:hi]
            np.take(payloads, groups.symbols(lo, hi) - 1, axis=0, out=piece, mode="clip")
            index = ws.buffer("index", (hi - lo, B), np.int64)
            np.take(dF, user[lo:hi], axis=0, out=index, mode="clip")
            index += row[lo:hi, None]
            want = np.take(packets, index, axis=0, out=ws.buffer("read", piece.shape), mode="clip")
            np.bitwise_xor(piece, want, out=piece)
        blocked = _decode(ws, d, out, cells)
        wrong = stale.take(d + np.arange(K) * N)  # (B, K)
        c, b = np.divmod(np.flatnonzero(out) // W, B)
        wrong[b, user[c]] = True
        wrong[:, list(blocked)] = True
        for i in np.flatnonzero(wrong).tolist():
            v, k = tuple(d[i // K].tolist()), i % K
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
        nominal_load=Fraction(pda.S, pda.F),
        seed=seed,
    )
