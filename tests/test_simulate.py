import collections
import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from nhsdp import (
    STAR,
    DeliveryTranscript,
    FileLibrary,
    Pda,
    UnrecoverablePacketError,
    conjugate_pda,
    construct_nhsdp,
    decode,
    deliver,
    drop_columns,
    exhaustive_demand_check,
    mn_pda,
    pda_from_nhsdp,
    place,
    serialize,
    simulate,
    symbol_groups,
    verify_pda,
)
from nhsdp import pda as pda_mod
from conftest import packet_bytes, peak_mib
from nhsdp.packing import Nhsdp


def decoded(cache, transcript) -> list[bytes]:
    """Each user's file as ``decode`` returns it, one ``bytes`` per user."""
    return [f.tobytes() for f in decode(cache, transcript)]


def xor_bytes(*chunks: bytes) -> bytes:
    out = 0
    for c in chunks:
        out ^= int.from_bytes(c, "big")
    return out.to_bytes(len(chunks[0]), "big")


@pytest.fixture
def ex15_pda(ex15_packing) -> Pda:
    return pda_from_nhsdp(ex15_packing)


@pytest.fixture
def irregular_pda(ex15_pda) -> Pda:
    """ex15 with its last user dropped: symbol groups of 3 and 4."""
    return drop_columns(ex15_pda, range(14))


@pytest.fixture
def mixed_pda() -> Pda:
    """The (2,1) lift at v=15 with users 8..14 dropped, an (8,15,7,29) PDA:
    symbol groups of 1, 2, 3 and 4 cells."""
    return drop_columns(pda_from_nhsdp(construct_nhsdp(15, (2, 1))), range(8))


def corrupt_place(monkeypatch, corrupt):
    """Make every later place() hand back a cache that corrupt() has edited."""
    real = simulate.place

    def place_then_corrupt(pda, library):
        cache = real(pda, library)
        corrupt(cache)
        return cache

    monkeypatch.setattr(simulate, "place", place_then_corrupt)


def reference_random_library(N, F, packet_len, seed):
    """Every file's bytes, one getrandbits draw per packet in (file, packet) order."""
    rng = random.Random(seed)
    draws = [rng.getrandbits(8 * packet_len).to_bytes(packet_len, "big") for _ in range(N * F)]
    return [b"".join(draws[n * F : (n + 1) * F]) for n in range(N)]


def blocked_reason(k, witness, d):
    """The failure reason a sweep gives for user k with this witness."""
    row, u, symbol = witness
    if symbol:
        return f"user {k} lacks interfering packet ({d[u]}, {row}) needed for symbol {symbol}"
    return f"user {k} should have cached packet ({d[k]}, {row})"


def reference_blocked(pda, slots):
    """Per user, the witness of its lowest symbol with another cell, in
    (user, row) order, on a row the user has no slot for; else its first
    star row with no slot, as (row, user, 0)."""
    grid, out = pda.grid, {}
    cells = collections.defaultdict(list)  # symbol: its (user, row) cells
    for r, u in zip(*np.nonzero(grid != STAR)):
        cells[int(grid[r, u])].append((int(u), int(r)))
    for k in range(pda.K):
        for s in sorted(int(x) for x in grid[:, k] if x):
            others = sorted((u, r) for u, r in cells[s] if u != k)
            missing = [(r, u, s) for u, r in others if slots[k, r] < 0]
            if missing:
                out[k] = missing[0]
                break
        else:
            rows = [j for j in range(pda.F) if grid[j, k] == STAR and slots[k, j] < 0]
            if rows:
                out[k] = (rows[0], k, 0)
    return out


class TestPlacement:
    def test_worked_4x4_caches(self, ex4_pda):
        library = FileLibrary.random(4, 4, seed=7)
        cache = place(ex4_pda, library)
        # User 0's column has stars in rows 0 and 2, held in slots 0 and 1.
        assert cache.slots[0].tolist() == [0, -1, 1, -1]
        assert np.array_equal(cache.users[0], library.data[:, [0, 2]])
        for k in range(4):
            assert cache.cached_bytes(k, library.packet_len) == 2 * 4 * 16

    def test_all_star_caches_everything(self):
        arr = Pda(np.zeros((3, 2), dtype=np.int64), Z=3, S=0)
        library = FileLibrary.random(2, 3, seed=1)
        cache = place(arr, library)
        assert (cache.slots >= 0).all()
        for k in range(2):
            assert np.array_equal(cache.users[k], library.data)
            assert cache.cached_bytes(k, library.packet_len) == 2 * 3 * 16

    def test_cached_bytes_takes_only_the_library_packet_len(self, ex4_pda):
        cache = place(ex4_pda, FileLibrary.random(4, 4, seed=7))
        assert cache.cached_bytes(0, 16) == 2 * 4 * 16
        for wrong in (5, 8, 17):
            with pytest.raises(ValueError, match=f"packet_len {wrong} is not the library's 16"):
                cache.cached_bytes(0, wrong)

    def test_cache_is_a_copy(self, ex4_pda):
        library = FileLibrary.random(4, 4, seed=7)
        cache = place(ex4_pda, library)
        cache.users[0, 0, 0, 0] ^= 1
        assert packet_bytes(library, 0, 0) == packet_bytes(FileLibrary.random(4, 4, seed=7), 0, 0)

    def test_cache_size_identity(self, ex15_pda):
        library = FileLibrary.random(3, 15, seed=2)
        cache = place(ex15_pda, library)
        for k in range(15):
            assert cache.cached_bytes(k, 16) == ex15_pda.Z * 3 * 16

    def test_packet_count_mismatch(self, ex4_pda):
        with pytest.raises(ValueError):
            place(ex4_pda, FileLibrary.random(2, 5, seed=0))

    def test_sizes_over_cell_limit_are_refused(self, ex4_pda, monkeypatch):
        # N=3 files of F=4 packets of 3 words; caches of K=4 users x 3 files x Z=2 x 3 words.
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 3 * 4 * 3 - 1)
        with pytest.raises(ValueError, match=r"file library array would be 3 x 12 = 36 cells.*= 35"):
            FileLibrary.random(3, 4, packet_len=17)
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 36)
        library = FileLibrary.random(3, 4, packet_len=17)
        with pytest.raises(ValueError, match=r"cache array would be 12 x 6 = 72 cells.*= 36"):
            place(ex4_pda, library)
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 72)
        assert place(ex4_pda, library).users.size == 72

    def test_refused_sweep_builds_no_library(self, ex4_pda, monkeypatch):
        built = []
        real = FileLibrary.random
        monkeypatch.setattr(
            FileLibrary, "random", staticmethod(lambda *a: built.append(a) or real(*a))
        )
        # ex4 at N=4, packet_len=16: a 4 x 8-word library, caches of 16 x 4 words.
        for limit, message in ((31, "file library array would be 4 x 8 = 32"),
                               (63, "cache array would be 16 x 4 = 64")):
            monkeypatch.setattr(pda_mod, "MAX_CELLS", limit)
            with pytest.raises(ValueError, match=message):
                exhaustive_demand_check(ex4_pda, N=4)
        assert built == []
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 64)
        assert exhaustive_demand_check(ex4_pda, N=4).ok and len(built) == 1


class TestDelivery:
    def test_worked_transcript(self, ex4_pda):
        library = FileLibrary.random(4, 4, seed=0)
        transcript = deliver(ex4_pda, library, (0, 1, 2, 3))
        assert len(transcript.transmissions) == 4
        first = transcript.transmissions[0]
        assert first.symbol == 1
        assert first.contributors == ((0, 1), (1, 0))
        assert first.payload == xor_bytes(
            packet_bytes(library, 0, 1), packet_bytes(library, 1, 0)
        )
        assert transcript.bytes_on_wire == 4 * 16

    def test_payloads_are_one_read_only_array(self, ex15_pda):
        library = FileLibrary.random(2, 15, packet_len=5, seed=3)
        transcript = deliver(ex15_pda, library, (1,) * 15)
        payloads = transcript.payloads
        assert payloads.dtype == np.uint8 and payloads.shape == (30, 5)
        assert not payloads.flags.writeable
        assert transcript.bytes_on_wire == payloads.size == 30 * 5
        assert [t.payload for t in transcript.transmissions] == [p.tobytes() for p in payloads]
        assert transcript.groups.start.tolist() == symbol_groups(ex15_pda).start.tolist()

    def test_deliver_memory_is_the_index_and_kernel(self, lift343):
        # The symbol index and the kernel output peak at about 2.5 MiB; one
        # object per symbol and cell took deliver to 13.5 MiB.
        library = FileLibrary.random(2, lift343.F, seed=1)
        demand = tuple(k % 2 for k in range(lift343.K))
        assert peak_mib(deliver, lift343, library, demand) <= 5  # MiB

    def test_degenerate_all_star(self):
        arr = Pda(np.zeros((2, 2), dtype=np.int64), Z=2, S=0)
        library = FileLibrary.random(2, 2, seed=0)
        cache = place(arr, library)
        transcript = deliver(arr, library, (0, 1))
        assert transcript.transmissions == ()
        assert transcript.bytes_on_wire == 0
        assert decoded(cache, transcript) == [library.file_bytes(0), library.file_bytes(1)]

    def test_absent_symbols_get_zero_payloads(self):
        arr = Pda([[0, 3], [3, 0]], Z=1, S=4)  # symbols 1, 2 and 4 never occur
        library = FileLibrary.random(2, 2, packet_len=5, seed=1)
        cache = place(arr, library)
        transcript = deliver(arr, library, (0, 1))
        assert [t.symbol for t in transcript.transmissions] == [1, 2, 3, 4]
        assert transcript.bytes_on_wire == 4 * 5
        for t in transcript.transmissions[:2] + transcript.transmissions[3:]:
            assert t.payload == bytes(5) and t.contributors == ()
        third = transcript.transmissions[2]
        assert third.contributors == ((0, 1), (1, 0))
        assert third.payload == xor_bytes(packet_bytes(library, 0, 1), packet_bytes(library, 1, 0))
        assert decoded(cache, transcript) == [library.file_bytes(0), library.file_bytes(1)]
        report = exhaustive_demand_check(arr, N=2)
        assert report.ok and report.exhaustive and report.checked == 4
        assert report.nominal_load == 2

    def test_fifteen_user_load(self, ex15_pda):
        library = FileLibrary.random(2, 15, seed=3)
        transcript = deliver(ex15_pda, library, (0,) * 15)
        assert len(transcript.transmissions) == 30
        assert Fraction(transcript.bytes_on_wire, 15 * 16) == 2

    def test_rejects_bad_demands(self, ex4_pda):
        library = FileLibrary.random(2, 4, seed=0)
        with pytest.raises(ValueError):
            deliver(ex4_pda, library, (0, 1))
        with pytest.raises(ValueError):
            deliver(ex4_pda, library, (0, 1, 2, 2))

    def test_xor_self_consistency(self, ex15_pda):
        library = FileLibrary.random(3, 15, seed=9)
        d = tuple(j % 3 for j in range(15))
        transcript = deliver(ex15_pda, library, d)
        for txn in transcript.transmissions[::7]:
            rest = txn.payload
            for user, packet in txn.contributors[1:]:
                rest = xor_bytes(rest, packet_bytes(library, d[user], packet))
            first_user, first_packet = txn.contributors[0]
            assert rest == packet_bytes(library, d[first_user], first_packet)

    def test_wire_bytes_count_emitted_payloads(self, ex15_pda, monkeypatch):
        library = FileLibrary.random(2, 15, packet_len=5, seed=3)
        transcript = deliver(ex15_pda, library, (1,) * 15)
        assert transcript.bytes_on_wire == 30 * 5
        real = simulate._payloads
        monkeypatch.setattr(simulate, "_payloads", lambda *a: real(*a)[:-1])
        short = deliver(ex15_pda, library, (1,) * 15)
        assert len(short.transmissions) == 29
        assert short.bytes_on_wire == 29 * 5


class TestCheckedIndex:
    """deliver and the sweep take a CheckedPda's index as it is, and build
    symbol_groups for a plain Pda; both give the same bytes."""

    @staticmethod
    def count_builds(monkeypatch):
        """The params of each array pda.symbol_groups indexes."""
        builds, real = [], pda_mod.symbol_groups

        def spy(pda):
            builds.append(pda.params())
            return real(pda)

        monkeypatch.setattr(pda_mod, "symbol_groups", spy)
        return builds

    # Groups of 2 (ex4, ex15), of 3 and 4 (irregular), and of 1 to 4 (mixed).
    NAMES = ["ex4", "ex15", "irregular", "mixed"]

    @pytest.mark.parametrize("name", NAMES)
    def test_deliver(self, request, monkeypatch, name):
        arr = request.getfixturevalue(f"{name}_pda")
        checked = verify_pda(arr).info["checked"]
        builds = self.count_builds(monkeypatch)
        library = FileLibrary.random(2, arr.F, seed=0)
        d = [k % 2 for k in range(arr.K)]
        given = deliver(checked, library, d)
        assert builds == [] and given.groups is checked.groups
        built = deliver(arr, library, d)
        assert builds == [arr.params()]
        assert given.payloads.tobytes() == built.payloads.tobytes()

    @pytest.mark.parametrize("name", NAMES)
    def test_sweep(self, request, monkeypatch, name):
        arr = request.getfixturevalue(f"{name}_pda")
        checked = verify_pda(arr).info["checked"]
        builds = self.count_builds(monkeypatch)
        emitted, real = [], simulate._payloads

        def payloads(*args):
            out = real(*args)
            emitted.append(out.tobytes())
            return out

        monkeypatch.setattr(simulate, "_payloads", payloads)
        given = exhaustive_demand_check(checked, N=2, demand_budget=50)
        assert builds == []
        given_payloads = emitted.copy()
        emitted.clear()
        built = exhaustive_demand_check(arr, N=2, demand_budget=50)
        assert builds == [arr.params()]
        assert given.ok and given == built
        assert given_payloads and given_payloads == emitted


# sha256 of each transcript's JSON, parsed and re-dumped with sorted keys, as
# produced by the integer-packet simulator this one replaced.
TRANSCRIPT_GOLDENS = {
    "ex4": "de775b22f225b5feacc63e00f62a0188840e22b56d48d8eb89a317637eeffcc9",
    "ex15": "6829e237aa586ff88292871bd7e6a5bf537636acc4002ccb386c7471e1e3aae1",
    "irregular": "b8e89fd353771b1fe288601eb1a3e1e123e22d2ed7d12f8b64c17f13601495ff",
    "mixed": "38e328450b3705ac757544206275db2232e1a198270e194fd1ddc6acac85d3ba",
}


@pytest.mark.parametrize(
    "name, n_files, seed, demand",
    [
        ("ex4", 4, 0, (0, 1, 2, 3)),
        ("ex15", 2, 3, tuple(k % 2 for k in range(15))),
        ("irregular", 2, 3, tuple(k % 2 for k in range(14))),
        ("mixed", 2, 3, tuple(k % 2 for k in range(8))),
    ],
)
def test_transcript_golden(request, name, n_files, seed, demand):
    arr = request.getfixturevalue(f"{name}_pda")
    library = FileLibrary.random(n_files, arr.F, seed=seed)
    cache = place(arr, library)
    transcript = deliver(arr, library, demand)
    doc = json.loads(serialize.transcript_to_json(transcript))
    canonical = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == TRANSCRIPT_GOLDENS[name]
    assert decoded(cache, transcript) == [library.file_bytes(n) for n in demand]


class TestDecode:
    def test_all_users_recover(self, ex4_pda):
        library = FileLibrary.random(4, 4, seed=5)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 1, 2, 3))
        assert decoded(cache, transcript) == [library.file_bytes(k) for k in range(4)]

    def test_returns_one_read_only_array(self, ex15_pda):
        library = FileLibrary.random(2, 15, packet_len=5, seed=3)
        cache = place(ex15_pda, library)
        d = [k % 2 for k in range(15)]
        files = decode(cache, deliver(ex15_pda, library, d))
        assert files.dtype == np.uint8 and files.shape == (15, 15, 5)
        assert not files.flags.writeable
        assert (files == library.data.view(np.uint8)[d, :, :5]).all()

    def test_same_demand_vector(self, ex15_pda):
        library = FileLibrary.random(2, 15, seed=5)
        cache = place(ex15_pda, library)
        transcript = deliver(ex15_pda, library, (0,) * 15)
        assert decoded(cache, transcript) == [library.file_bytes(0)] * 15

    def test_unrecoverable_fires_on_corrupt_cache(self, ex4_pda):
        library = FileLibrary.random(4, 4, seed=5)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 1, 2, 3))
        cache.slots[0, 0] = -1  # user 0 needs row 0 of file 1 to cancel symbol 1
        with pytest.raises(
            UnrecoverablePacketError,
            match=r"^user 0 lacks interfering packet \(1, 0\) needed for symbol 1$",
        ):
            decode(cache, transcript)

    @pytest.mark.parametrize("name", ["ex4", "ex15", "irregular", "mn"])
    def test_blocked_witness_is_lowest_symbol(self, request, name):
        arr = mn_pda(5, 2) if name == "mn" else request.getfixturevalue(f"{name}_pda")
        library = FileLibrary.random(2, arr.F, seed=1)
        cache = place(arr, library)
        groups = symbol_groups(arr)
        d = np.zeros((1, arr.K), dtype=np.int64)
        payloads = simulate._payloads(simulate._Workspace(groups, arr.S), library.data, d)
        cells = np.arange(len(groups.row))
        rng = np.random.default_rng(7)
        for _ in range(40):
            slots = cache.slots.copy()
            k, j = np.nonzero(slots >= 0)
            clear = rng.choice(len(k), size=int(rng.integers(1, 4)), replace=False)
            slots[k[clear], j[clear]] = -1
            cleared = dataclasses.replace(cache, slots=slots)
            out = payloads[groups.symbols(0, len(cells)) - 1]
            blocked = simulate._decode(simulate._Workspace(groups, arr.S, cleared), d, out, cells)
            assert blocked == reference_blocked(arr, slots)

    def test_uncached_star_rows_witness_the_first(self):
        # Users 1 and 2 are blocked; decode names the lower one and its first row.
        arr = Pda(np.zeros((3, 3), dtype=np.int64), Z=3, S=0)
        library = FileLibrary.random(2, 3, seed=1)
        cache = place(arr, library)
        transcript = deliver(arr, library, (0, 1, 0))
        cache.slots[1, 1:] = -1
        cache.slots[2, 0] = -1
        with pytest.raises(
            UnrecoverablePacketError, match=r"^user 1 should have cached packet \(1, 1\)$"
        ):
            decode(cache, transcript)

    @pytest.mark.parametrize("how", ["call", "replace"])
    def test_only_deliver_makes_one(self, ex4_pda, how):
        library = FileLibrary.random(2, 4, seed=0)
        transcript = deliver(ex4_pda, library, (0, 1, 0, 1))
        make = {
            "call": lambda: DeliveryTranscript(
                (0, 1, 0, 1), transcript.payloads, transcript.groups, 16, 0
            ),
            "replace": lambda: dataclasses.replace(transcript, payloads=transcript.payloads[:-1]),
        }[how]
        with pytest.raises(TypeError, match="^only deliver makes a DeliveryTranscript$"):
            make()

    def test_rejects_bad_user(self, ex4_pda):
        # A transcript of ex4's first three users against ex4's cache of four.
        library = FileLibrary.random(2, 4, seed=0)
        cache = place(ex4_pda, library)
        transcript = deliver(drop_columns(ex4_pda, range(3)), library, (0, 0, 0))
        with pytest.raises(ValueError, match=r"^transcript serves 3 users, cache has K=4$"):
            decode(cache, transcript)

    def test_rejects_other_packet_len(self, ex15_pda):
        # 9-byte packets fit the 16-byte cache's two words, but would decode
        # to 135-byte files of a 240-byte library.
        cache = place(ex15_pda, FileLibrary.random(2, 15, seed=1))
        transcript = deliver(ex15_pda, FileLibrary.random(2, 15, packet_len=9, seed=1), (0,) * 15)
        with pytest.raises(ValueError, match=r"packet_len=9 is not the cache's 16"):
            decode(cache, transcript)

    def test_foreign_transcript_is_exact_or_blocked(self, ex15_pda):
        # Transcripts of ex15 with its rows and columns permuted (each still a
        # valid PDA of the same shape) against ex15's cache: a random
        # permutation blocks, a cyclic shift of both keeps the star pattern.
        library = FileLibrary.random(2, 15, seed=1)
        cache = place(ex15_pda, library)
        d = tuple(k % 2 for k in range(15))
        want = [library.file_bytes(n) for n in d]
        shifts = [np.roll(np.arange(15), t) for t in (1, 7)]
        perms = [np.random.default_rng(seed).permutation(15) for seed in range(12)]
        outcomes = set()
        for rows, cols in [(p, p) for p in shifts] + list(zip(perms[::2], perms[1::2])):
            arr = Pda(ex15_pda.grid[rows][:, cols], Z=ex15_pda.Z, S=ex15_pda.S)
            assert verify_pda(arr).ok and not np.array_equal(arr.grid, ex15_pda.grid)
            transcript = deliver(arr, library, d)
            try:
                outcomes.add(decoded(cache, transcript) == want)
            except UnrecoverablePacketError:
                outcomes.add("blocked")
            # Each user's rows outside its cells from its cache, each cell's
            # from its symbol's payload, as decode fills them.
            groups = transcript.groups
            wire = np.ascontiguousarray(transcript.payloads).view(np.uint64)
            files = np.zeros((15, 15, 1, 2), dtype=np.uint64)
            for k, j in zip(*np.nonzero(cache.slots >= 0)):
                files[k, j, 0] = cache.users[k, d[k], cache.slots[k, j]]
            files[groups.user, groups.row, 0] = wire[groups.symbols(0, len(groups.row)) - 1]
            ws = simulate._Workspace(groups, len(wire), cache)
            targets = groups.user * 15 + groups.row
            blocked = simulate._decode(ws, np.array([d]), files.reshape(-1, 1, 2), targets)
            for k in set(range(15)) - set(blocked):
                assert files[k, :, 0].tobytes() == want[k]
        assert outcomes == {True, "blocked"}

    def test_rejects_transcript_of_a_larger_array(self, ex15_pda):
        # The conjugate serves the same 15 users from 30 rows.
        conj = conjugate_pda(ex15_pda)
        assert (conj.K, conj.F) == (15, 30)
        cache = place(ex15_pda, FileLibrary.random(2, 15, seed=1))
        transcript = deliver(conj, FileLibrary.random(2, 30, seed=1), (1,) * 15)
        with pytest.raises(ValueError, match=r"cells must lie in the cache's 15 rows x 15 users"):
            decode(cache, transcript)

    @pytest.mark.parametrize(
        "symbol, outcome, count",
        [(STAR, "blocked", 60), (1, "blocked", 113), (7, "blocked", 111), (30, "blocked", 109),
         (31, True, 53)],
    )
    def test_invalid_array_transcript_is_exact_or_blocked(self, ex15_pda, symbol, outcome, count):
        # Single-cell edits of ex15 to one symbol (or the star) that
        # verify_pda rejects, on the cells with j + k even, delivered and
        # decoded against ex15's cache: each decodes exactly (True) or blocks,
        # and none returns wrong bytes (False).  A new symbol 31 gives its
        # cell a group of its own; the other edits block a user.
        library = FileLibrary.random(2, 15, seed=1)
        cache = place(ex15_pda, library)
        d = tuple(k % 2 for k in range(15))
        want = [library.file_bytes(n) for n in d]
        outcomes = collections.Counter()
        for j, k in itertools.product(range(15), repeat=2):
            if (j + k) % 2 or ex15_pda.grid[j, k] == symbol:
                continue
            grid = ex15_pda.grid.copy()
            grid[j, k] = symbol
            arr = Pda(grid, Z=ex15_pda.Z, S=max(ex15_pda.S, symbol))
            if verify_pda(arr).ok:
                continue
            try:
                outcomes[decoded(cache, deliver(arr, library, d)) == want] += 1
            except UnrecoverablePacketError:
                outcomes["blocked"] += 1
        assert outcomes == {outcome: count}

    @pytest.mark.parametrize("slot", [-2, "Z"])
    def test_rejects_cache_slots_out_of_range(self, ex4_pda, slot):
        library = FileLibrary.random(2, ex4_pda.F, seed=1)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 1, 0, 1))
        Z = cache.users.shape[2]
        cache.slots[0, 0] = Z if slot == "Z" else slot
        with pytest.raises(ValueError, match=rf"^cache slots must lie in \[-1, {Z}\)$"):
            decode(cache, transcript)

    def test_decode_memory(self, lift343):
        # The transcript's index serves decode; building a second one took
        # the peak to 10.95 MiB.
        library = FileLibrary.random(2, lift343.F, seed=1)
        cache = place(lift343, library)
        transcript = deliver(lift343, library, tuple(k % 2 for k in range(lift343.K)))
        assert peak_mib(decode, cache, transcript) <= 10  # MiB


class TestDemandSweep:
    def test_worked_4x4_exhaustive(self, ex4_pda):
        report = exhaustive_demand_check(ex4_pda, N=4, demand_budget=10**6)
        assert report.exhaustive and report.checked == 256
        assert report.ok
        assert report.nominal_load == 1

    def test_three_user_exhaustive(self):
        arr = pda_from_nhsdp(Nhsdp.from_blocks(3, [(1, 2)]))
        report = exhaustive_demand_check(arr, N=3)
        assert report.checked == 27 and report.ok
        assert report.nominal_load == 1

    def test_negative_budget_is_refused(self, ex4_pda):
        with pytest.raises(ValueError, match="demand budget must be non-negative, got -5"):
            exhaustive_demand_check(ex4_pda, N=4, demand_budget=-5)

    def test_sampled_when_over_budget(self, ex4_pda):
        report = exhaustive_demand_check(ex4_pda, N=4, demand_budget=50)
        assert not report.exhaustive
        assert report.checked == 52  # 50 samples + 2 corner demands
        assert report.ok

    def test_mn_array_sweep(self):
        report = exhaustive_demand_check(mn_pda(4, 2), N=2)
        assert report.exhaustive and report.checked == 16 and report.ok
        assert report.nominal_load == Fraction(4, 6)

    def test_irregular_exhaustive(self, irregular_pda):
        report = exhaustive_demand_check(irregular_pda, N=2)
        assert report.exhaustive and report.checked == 2**14
        assert report.ok
        assert report.nominal_load == 2

    def test_corrupt_cached_byte_flags_only_affected_users(self, ex4_pda, monkeypatch):
        # User 0 holds row 0 in slot 0.  It reads its copy of packet (1, 0)
        # for its own star row when it wants file 1, and to cancel symbols 1
        # and 4, whose other cells are row 0 of users 1 and 3.
        def flip(cache):
            cache.users.view(np.uint8)[0, 1, 0, 0] ^= 0x80

        corrupt_place(monkeypatch, flip)
        report = exhaustive_demand_check(ex4_pda, N=4)
        expected = [
            (d, 0, "decoded bytes differ from the library file")
            for d in itertools.product(range(4), repeat=4)
            if 1 in (d[0], d[1], d[3])
        ]
        assert report.checked == 256
        assert list(report.failures) == expected

    def test_cleared_slot_blocks_only_that_user(self, ex4_pda, monkeypatch):
        def clear(cache):
            cache.slots[0, 0] = -1

        corrupt_place(monkeypatch, clear)
        report = exhaustive_demand_check(ex4_pda, N=4)
        assert len(report.failures) == 256
        assert {user for _, user, _ in report.failures} == {0}
        d, _, reason = report.failures[7]
        assert d == (0, 0, 1, 3)
        assert reason == "user 0 lacks interfering packet (0, 0) needed for symbol 1"

    @pytest.mark.parametrize("name", ["irregular", "mn"])
    def test_sweep_witnesses_on_larger_groups(self, request, monkeypatch, name):
        # Groups of 3 and 4 cells (irregular) and of 3 (mn_pda(5, 2)).
        arr = mn_pda(5, 2) if name == "mn" else request.getfixturevalue(f"{name}_pda")
        rng = np.random.default_rng(11)
        cleared = []

        def clear(cache):
            k, j = np.nonzero(cache.slots >= 0)
            pick = rng.choice(len(k), size=int(rng.integers(1, 4)), replace=False)
            cache.slots[k[pick], j[pick]] = -1
            cleared.append(cache.slots.copy())

        corrupt_place(monkeypatch, clear)
        for _ in range(20):
            report = exhaustive_demand_check(arr, N=2, demand_budget=40)
            want = reference_blocked(arr, cleared[-1])
            assert want
            assert len(report.failures) == report.checked * len(want)
            for d, k, reason in report.failures:
                assert reason == blocked_reason(k, want[k], d)

    def test_tiles_walked_once_per_decode_and_chunk(self, ex15_pda, monkeypatch):
        walks, chunks = [], []
        real_tiles, real_payloads = pda_mod.SymbolGroups.tiles, simulate._payloads

        def tiles(groups, width, classes):
            walks.append(1)
            yield from real_tiles(groups, width, classes)

        monkeypatch.setattr(pda_mod.SymbolGroups, "tiles", tiles)
        monkeypatch.setattr(simulate, "_payloads", lambda *a: chunks.append(1) or real_payloads(*a))
        library = FileLibrary.random(2, ex15_pda.F, seed=4)
        cache = place(ex15_pda, library)
        transcript = deliver(ex15_pda, library, (1,) * 15)
        assert decoded(cache, transcript) == [library.file_bytes(1)] * 15
        assert len(walks) == 1
        walks.clear()
        chunks.clear()
        report = exhaustive_demand_check(ex15_pda, N=2, demand_budget=600)
        assert report.ok and report.checked == 601 and len(chunks) == 3  # 256 + 256 + 89
        assert len(walks) == 3

    def test_short_broadcast_fails_the_byte_check(self, ex15_pda, monkeypatch):
        # A broadcast without its last row loses symbol 30, whose cells
        # belong to users 2, 5, 9 and 12: each of them decodes wrong bytes
        # for every one of the 11 vectors (10 samples + all-equal corner).
        real = simulate._payloads
        monkeypatch.setattr(simulate, "_payloads", lambda *a: real(*a)[:-1])
        report = exhaustive_demand_check(ex15_pda, N=2, demand_budget=10)
        assert not report.ok and report.checked == 11
        assert len(report.failures) == 44
        assert {user for _, user, _ in report.failures} == {2, 5, 9, 12}
        assert {reason for _, _, reason in report.failures} == {
            "decoded bytes differ from the library file"
        }

    def test_sampled_order_is_seeded_stream(self, ex4_pda, monkeypatch):
        seen = []
        real = simulate._payloads

        def record(*args):
            seen.extend(map(tuple, args[-1].tolist()))  # the demand vectors
            return real(*args)

        monkeypatch.setattr(simulate, "_payloads", record)
        exhaustive_demand_check(ex4_pda, N=4, demand_budget=5, seed=11)
        rng = random.Random(11)
        sample = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(5)]
        assert seen == [(0, 0, 0, 0), (0, 1, 2, 3)] + sample

    def test_library_determinism(self):
        a = FileLibrary.random(2, 3, seed=42)
        b = FileLibrary.random(2, 3, seed=42)
        assert np.array_equal(a.data, b.data)
        assert a.file_bytes(1) == b.file_bytes(1)
        assert not np.array_equal(FileLibrary.random(2, 3, seed=43).data, a.data)

    def test_library_matches_seeded_stream(self):
        # Packets are drawn in (file, packet) order as packet_len-byte
        # big-endian integers; 5 bytes also exercises the word padding.
        library = FileLibrary.random(3, 4, packet_len=5, seed=42)
        rng = random.Random(42)
        for n in range(3):
            want = b"".join(rng.getrandbits(40).to_bytes(5, "big") for _ in range(4))
            assert library.file_bytes(n) == want

    @pytest.mark.parametrize("packet_len", [1, 5, 7, 16, 17, 33])
    @pytest.mark.parametrize("N, F", [(1, 1), (3, 5)])
    def test_library_matches_per_packet_draws(self, N, F, packet_len):
        library = FileLibrary.random(N, F, packet_len, seed=packet_len)
        files = [library.file_bytes(n) for n in range(N)]
        assert files == reference_random_library(N, F, packet_len, packet_len)

    @pytest.mark.parametrize("packet_len", [0, -3])
    def test_library_rejects_empty_packets(self, packet_len):
        with pytest.raises(ValueError, match="packet_len must be >= 1"):
            FileLibrary.random(2, 3, packet_len)

    @pytest.mark.parametrize("draw_words", [1, 3, 10])
    def test_library_draws_in_whole_packets(self, monkeypatch, draw_words):
        # 1 and 3 words hold one packet of 9 bytes (3 words) per draw, 10 hold three.
        monkeypatch.setattr(simulate, "_DRAW_WORDS", draw_words)
        library = FileLibrary.random(2, 7, 9, seed=5)
        assert [library.file_bytes(n) for n in range(2)] == reference_random_library(2, 7, 9, 5)



def entries_per_tile(monkeypatch):
    """Make ``_TILE`` the entries of every tile, whatever the width that the
    walk's caller asks for."""
    real = pda_mod.SymbolGroups.tiles
    monkeypatch.setattr(
        pda_mod.SymbolGroups, "tiles", lambda groups, width, classes: real(groups, 1, classes)
    )


class TestTileBudgets:
    """Decoding with the tile walk cut to budgets of 1, 2 and 7 entries
    reports exactly what the default budget, one tile per size class at
    these sizes, reports."""

    BUDGETS = (1, 2, 7)

    @staticmethod
    def corruptions(arr, count):
        """Per corruption, 1 to 3 cleared slots as (users, rows) and one
        flipped cached packet as (user, file, slot)."""
        rng = np.random.default_rng(23)
        slots = place(arr, FileLibrary.random(2, arr.F, seed=1)).slots
        k, j = np.nonzero(slots >= 0)
        for _ in range(count):
            pick = rng.choice(len(k), size=int(rng.integers(2, 5)), replace=False)
            flip = (k[pick[0]], int(rng.integers(2)), slots[k[pick[0]], j[pick[0]]])
            yield (k[pick[1:]], j[pick[1:]]), flip

    @staticmethod
    def corrupt(cache, cleared, flip):
        cache.slots[cleared] = -1
        cache.users.view(np.uint8)[flip][0] ^= 0x80

    @pytest.mark.parametrize("name", ["ex15", "irregular", "mixed"])
    def test_sweep_failures(self, request, monkeypatch, name):
        arr = request.getfixturevalue(f"{name}_pda")
        current, reports = [], {}
        corrupt_place(monkeypatch, lambda cache: self.corrupt(cache, *current[-1]))
        entries_per_tile(monkeypatch)
        for budget in (pda_mod._TILE, *self.BUDGETS):
            monkeypatch.setattr(pda_mod, "_TILE", budget)
            for i, corruption in enumerate(self.corruptions(arr, 6)):
                current.append(corruption)
                failures = exhaustive_demand_check(arr, N=2, demand_budget=30).failures
                assert failures == reports.setdefault(i, failures)
        reasons = " ".join(reason for failures in reports.values() for _, _, reason in failures)
        assert "lacks interfering packet" in reasons and "differ" in reasons

    @pytest.mark.parametrize("name", ["ex15", "irregular", "mixed"])
    def test_decode_error(self, request, monkeypatch, name):
        arr = request.getfixturevalue(f"{name}_pda")
        library = FileLibrary.random(2, arr.F, seed=1)
        demand = tuple(k % 2 for k in range(arr.K))
        messages = {}
        entries_per_tile(monkeypatch)
        for budget in (pda_mod._TILE, *self.BUDGETS):
            monkeypatch.setattr(pda_mod, "_TILE", budget)
            for i, corruption in enumerate(self.corruptions(arr, 6)):
                cache = place(arr, library)
                transcript = deliver(arr, library, demand)
                self.corrupt(cache, *corruption)
                with pytest.raises(UnrecoverablePacketError) as error:
                    decode(cache, transcript)
                assert str(error.value) == messages.setdefault(i, str(error.value))


class TestWorkspace:
    """A sweep reuses one workspace of chunk buffers: what it reports does
    not depend on the chunk size, and its memory does not grow with the
    number of chunks."""

    @pytest.mark.parametrize("name", ["ex15", "irregular", "mixed"])
    def test_sweep_is_chunk_invariant(self, request, monkeypatch, name):
        # 40 samples and the all-equal corner: 41 vectors, so chunks of 7
        # end on a short one and a default chunk is a leading slice.
        arr = request.getfixturevalue(f"{name}_pda")
        current, reports = [None], {}

        def corrupt(cache):
            if current[-1] is not None:
                TestTileBudgets.corrupt(cache, *current[-1])

        corrupt_place(monkeypatch, corrupt)
        for chunk in (simulate._MAX_CHUNK, 1, 7):
            monkeypatch.setattr(simulate, "_MAX_CHUNK", chunk)
            for i, corruption in enumerate([None, *TestTileBudgets.corruptions(arr, 6)]):
                current.append(corruption)
                report = exhaustive_demand_check(arr, N=2, demand_budget=40)
                seen = (report.failures, report.checked)
                assert seen == reports.setdefault(i, seen)
                users = [k for _, k, _ in report.failures]
                assert all(isinstance(k, int) and k in range(arr.K) for k in users)
        assert reports[0] == ((), 41)
        reasons = " ".join(r for i in range(1, 7) for _, _, r in reports[i][0])
        assert "lacks interfering packet" in reasons and "differ" in reasons

    def test_sweep_memory_is_one_chunk_of_buffers(self, ex15_pda):
        # All 32,768 vectors in 128 chunks of 256.  The (P, B, W) buffer of
        # a chunk's P = 120 cells is 0.47 MiB, and so is the read of the
        # packets it is prefilled with; a tile's reads and their indices
        # and the payloads stay within three more (2.11 MiB in all).  The
        # decoded and expected (K, F, B, W) files of whole users peaked at
        # 3.30 MiB under a bound of 3.52 MiB.
        P, B, W = 120, 256, 2
        assert len(symbol_groups(ex15_pda).row) == P
        full = peak_mib(exhaustive_demand_check, ex15_pda, 2)
        three = peak_mib(exhaustive_demand_check, ex15_pda, 2, 16, 600)  # 256 + 256 + 89
        assert full <= 5 * P * B * W * 8 / 2**20
        assert full <= 1.1 * three

    def test_chunk_is_sized_from_cells_and_payloads(self, monkeypatch):
        # The (125, 125, 61, 1000) lift: its P = 8000 cells, the larger of
        # P and S, of W = 2 words keep 2^18 // (8000 * 2) = 16 vectors to a
        # chunk, so the 15 samples and the all-equal corner run as one.
        # Sizing from the F*K*W words of whole users' files gave 8.
        arr = pda_from_nhsdp(construct_nhsdp(125, (2, 2, 2)))
        sizes, real = [], simulate._payloads
        monkeypatch.setattr(simulate, "_payloads", lambda ws, data, d: sizes.append(len(d)) or real(ws, data, d))
        report = exhaustive_demand_check(arr, N=2, demand_budget=15)
        assert report.ok and report.checked == 16 and sizes == [16]


def reference_files(arr, cache, payloads, d) -> list[bytes]:
    """Each user's file rebuilt cell by cell out of its own cache: a star
    row is the user's copy, any other cell its symbol's payload XOR the
    symbol's other packets as the user holds them.  Users that
    ``reference_blocked`` names are rebuilt too, from whatever slots they
    have."""
    grid, L = arr.grid, payloads.shape[1]
    copies = cache.users.view(np.uint8)[..., :L]
    cells = {
        s: [(int(r), int(u)) for r, u in zip(*np.nonzero(grid == s))]
        for s in np.unique(grid[grid != STAR]).tolist()
    }
    files = []
    for k in range(arr.K):
        rebuilt = np.empty((arr.F, L), dtype=np.uint8)
        for j in range(arr.F):
            s = int(grid[j, k])
            if s == STAR:
                rebuilt[j] = copies[k, d[k], cache.slots[k, j]]
                continue
            rebuilt[j] = payloads[s - 1]
            for r, u in cells[s]:
                if u != k:
                    rebuilt[j] ^= copies[k, d[u], cache.slots[k, r]]
        files.append(rebuilt.tobytes())
    return files


def reference_sweep(arr, cache, library, vectors):
    """The (vector, user, reason) failures of a sweep over vectors, from
    public deliver and ``reference_files``."""
    blocked = reference_blocked(arr, cache.slots)
    failures = []
    for d in vectors:
        files = reference_files(arr, cache, deliver(arr, library, d).payloads, d)
        for k in range(arr.K):
            if k in blocked:
                failures.append((d, k, blocked_reason(k, blocked[k], d)))
            elif files[k] != library.file_bytes(d[k]):
                failures.append((d, k, "decoded bytes differ from the library file"))
    return tuple(failures)


class TestSweepOracle:
    """A sweep reports, vector by vector and user by user, what public
    deliver and a plain rebuild from each user's cache report."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("name", ["ex15", "mn", "irregular", "mixed"])
    def test_failures_match_the_reference(self, request, monkeypatch, name, N):
        arr = mn_pda(5, 2) if name == "mn" else request.getfixturevalue(f"{name}_pda")
        budget, seed = 12, 3
        current, caches = [None], []

        def corrupt(cache):
            if current[-1] is not None:
                TestTileBudgets.corrupt(cache, *current[-1])
            caches.append(cache)

        corrupt_place(monkeypatch, corrupt)
        library = FileLibrary.random(N, arr.F, seed=seed)
        rng = random.Random(seed)
        vectors = [(0,) * arr.K] + ([tuple(range(arr.K))] if N >= arr.K else [])
        vectors += [tuple(rng.randrange(N) for _ in range(arr.K)) for _ in range(budget)]
        reasons = []
        for corruption in [None, *TestTileBudgets.corruptions(arr, 4)]:
            current.append(corruption)
            report = exhaustive_demand_check(arr, N, demand_budget=budget, seed=seed)
            assert not report.exhaustive and report.checked == len(vectors)
            want = reference_sweep(arr, caches[-1], library, vectors)
            assert report.failures == want
            reasons += [reason for _, _, reason in want]
        assert "lacks interfering packet" in " ".join(reasons) and "differ" in " ".join(reasons)


@pytest.fixture(scope="module")
def a125_pda() -> Pda:
    """The (2,2,2) lift at v=125, the array of the benchmark's sampled sweep."""
    return pda_from_nhsdp(construct_nhsdp(125, (2, 2, 2)))


class TestCacheRowTable:
    """decode and the sweep read each user's copies through a cache-row
    table built from the slots as they stand when they run, so an edit
    made to a cache after place decodes as the plain rebuild from that
    cache decodes."""

    EDITS = ["clear", "swap_users", "swap_rows", "cell_row"]

    @staticmethod
    def edit(arr, cache, kind, rng):
        """Clear 1 to 3 slots, swap two users' slot maps, swap two of one
        user's slots, or give a user a slot on one of its own cell rows."""
        slots = cache.slots
        if kind == "clear":
            k, j = np.nonzero(slots >= 0)
            pick = rng.choice(len(k), size=int(rng.integers(1, 4)), replace=False)
            slots[k[pick], j[pick]] = -1
        elif kind == "swap_users":
            a, b = rng.choice(arr.K, size=2, replace=False)
            slots[[a, b]] = slots[[b, a]]
        elif kind == "swap_rows":
            k = int(rng.integers(arr.K))
            a, b = rng.choice(np.flatnonzero(slots[k] >= 0), size=2, replace=False)
            slots[k, [a, b]] = slots[k, [b, a]]
        else:
            k = int(rng.integers(arr.K))
            j = rng.choice(np.flatnonzero(arr.grid[:, k] != STAR))
            slots[k, j] = slots[k, slots[k] >= 0].max()

    @pytest.mark.parametrize("kind", EDITS)
    @pytest.mark.parametrize("packet_len", [1, 5, 8, 16])
    @pytest.mark.parametrize("name", ["ex15", "a125"])
    def test_decode_follows_edited_slots(self, request, name, packet_len, kind):
        arr = request.getfixturevalue(f"{name}_pda")
        library = FileLibrary.random(2, arr.F, packet_len, seed=packet_len)
        rng = np.random.default_rng(packet_len)
        d = tuple(int(x) for x in rng.integers(2, size=arr.K))
        for _ in range(3 if name == "ex15" else 1):
            cache = place(arr, library)
            transcript = deliver(arr, library, d)
            self.edit(arr, cache, kind, rng)
            blocked = reference_blocked(arr, cache.slots)
            if blocked:
                k = min(blocked)
                with pytest.raises(UnrecoverablePacketError) as error:
                    decode(cache, transcript)
                assert str(error.value) == blocked_reason(k, blocked[k], d)
            else:
                want = reference_files(arr, cache, transcript.payloads, d)
                assert decoded(cache, transcript) == want
                assert (want == [library.file_bytes(n) for n in d]) == (kind == "cell_row")

    @pytest.mark.parametrize("kind", EDITS)
    @pytest.mark.parametrize("packet_len", [1, 5, 8, 16])
    @pytest.mark.parametrize("name", ["ex15", "a125"])
    def test_sweep_follows_edited_slots(self, request, monkeypatch, name, packet_len, kind):
        arr = request.getfixturevalue(f"{name}_pda")
        budget, seed = (6, 2) if name == "ex15" else (1, 2)
        rng = np.random.default_rng(packet_len)
        caches = []

        def edit(cache):
            self.edit(arr, cache, kind, rng)
            caches.append(cache)

        corrupt_place(monkeypatch, edit)
        library = FileLibrary.random(2, arr.F, packet_len, seed=seed)
        sample = random.Random(seed)
        vectors = [(0,) * arr.K] + [tuple(sample.randrange(2) for _ in range(arr.K)) for _ in range(budget)]
        report = exhaustive_demand_check(arr, 2, packet_len, demand_budget=budget, seed=seed)
        assert report.checked == len(vectors)
        assert report.failures == reference_sweep(arr, caches[-1], library, vectors)
        assert report.ok == (kind == "cell_row")

    def test_slot_map_is_the_int64_running_count(self):
        # Random grids with an all-star and a star-free column: place's
        # int32 slot map is the int64 cumsum-and-where map it replaced.
        rng = np.random.default_rng(5)
        for F, K in [(1, 2), (6, 3), (17, 9), (64, 31)]:
            grid = rng.integers(0, 3, size=(F, K))
            grid[:, 0], grid[:, -1] = STAR, 1
            cache = place(Pda(grid, Z=0, S=2), FileLibrary.random(2, F, 5, seed=F))
            star = grid.T == STAR
            want = np.where(star, np.cumsum(star, axis=1, dtype=np.int64) - 1, -1)
            assert cache.slots.dtype == np.int32
            assert np.array_equal(cache.slots, want)
        assert simulate._row_dtype(2**31 - 1) is np.int32
        assert simulate._row_dtype(2**31) is np.int64

    def test_packet_items_refuse_a_strided_array(self):
        # A scatter into a copy would be lost, so no copy is made.
        words = np.zeros((4, 6), dtype=np.uint64)
        assert simulate._items(words).shape == (4,)
        with pytest.raises(ValueError, match="C-contiguous"):
            simulate._items(words[:, :3])

    def test_decode_reads_a_strided_cache(self, ex15_pda):
        library = FileLibrary.random(2, ex15_pda.F, 5, seed=3)
        cache = place(ex15_pda, library)
        transcript = deliver(ex15_pda, library, (0, 1) * 7 + (1,))
        strided = simulate.CacheContents(np.asfortranarray(cache.users), cache.slots, 5)
        assert decoded(strided, transcript) == decoded(cache, transcript)
