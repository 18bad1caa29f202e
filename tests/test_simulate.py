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
    FileLibrary,
    Pda,
    UnrecoverablePacketError,
    conjugate_pda,
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
from conftest import peak_mib
from nhsdp.packing import Nhsdp


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
    for k in range(pda.K):
        for s in sorted(int(x) for x in grid[:, k] if x):
            others = sorted((int(u), int(r)) for r, u in zip(*np.nonzero(grid == s)) if u != k)
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
        assert library.packet_bytes(0, 0) == FileLibrary.random(4, 4, seed=7).packet_bytes(0, 0)

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
            library.packet_bytes(0, 1), library.packet_bytes(1, 0)
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
        assert decode(cache, transcript) == (library.file_bytes(0), library.file_bytes(1))

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
        assert third.payload == xor_bytes(library.packet_bytes(0, 1), library.packet_bytes(1, 0))
        assert decode(cache, transcript) == (library.file_bytes(0), library.file_bytes(1))
        report = exhaustive_demand_check(arr, N=2)
        assert report.ok and report.exhaustive and report.checked == 4
        assert report.max_measured_load == report.nominal_load == 2

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
                rest = xor_bytes(rest, library.packet_bytes(d[user], packet))
            first_user, first_packet = txn.contributors[0]
            assert rest == library.packet_bytes(d[first_user], first_packet)

    def test_wire_bytes_count_emitted_payloads(self, ex15_pda, monkeypatch):
        library = FileLibrary.random(2, 15, packet_len=5, seed=3)
        transcript = deliver(ex15_pda, library, (1,) * 15)
        assert transcript.bytes_on_wire == 30 * 5
        real = simulate._payloads
        monkeypatch.setattr(simulate, "_payloads", lambda *a: real(*a)[:-1])
        short = deliver(ex15_pda, library, (1,) * 15)
        assert len(short.transmissions) == 29
        assert short.bytes_on_wire == 29 * 5


# sha256 of each transcript's JSON, parsed and re-dumped with sorted keys, as
# produced by the integer-packet simulator this one replaced.
TRANSCRIPT_GOLDENS = {
    "ex4": "de775b22f225b5feacc63e00f62a0188840e22b56d48d8eb89a317637eeffcc9",
    "ex15": "6829e237aa586ff88292871bd7e6a5bf537636acc4002ccb386c7471e1e3aae1",
    "irregular": "b8e89fd353771b1fe288601eb1a3e1e123e22d2ed7d12f8b64c17f13601495ff",
}


@pytest.mark.parametrize(
    "name, n_files, seed, demand",
    [
        ("ex4", 4, 0, (0, 1, 2, 3)),
        ("ex15", 2, 3, tuple(k % 2 for k in range(15))),
        ("irregular", 2, 3, tuple(k % 2 for k in range(14))),
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
    files = decode(cache, transcript)
    assert files == tuple(library.file_bytes(n) for n in demand)


class TestDecode:
    def test_all_users_recover(self, ex4_pda):
        library = FileLibrary.random(4, 4, seed=5)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 1, 2, 3))
        files = decode(cache, transcript)
        assert files == tuple(library.file_bytes(k) for k in range(4))

    def test_same_demand_vector(self, ex15_pda):
        library = FileLibrary.random(2, 15, seed=5)
        cache = place(ex15_pda, library)
        transcript = deliver(ex15_pda, library, (0,) * 15)
        assert decode(cache, transcript) == (library.file_bytes(0),) * 15

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
        rng = np.random.default_rng(7)
        for _ in range(40):
            slots = cache.slots.copy()
            k, j = np.nonzero(slots >= 0)
            clear = rng.choice(len(k), size=int(rng.integers(1, 4)), replace=False)
            slots[k[clear], j[clear]] = -1
            cleared = dataclasses.replace(cache, slots=slots)
            _, blocked = simulate._decode(simulate._Workspace(groups, arr.S, cleared), payloads, d)
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

    def test_rejects_bad_user(self, ex4_pda):
        library = FileLibrary.random(2, 4, seed=0)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 0, 0, 0))
        too_many = dataclasses.replace(transcript, demands=(0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="serves 5 users"):
            decode(cache, too_many)

    def test_rejects_transcript_missing_a_symbol(self, ex4_pda):
        library = FileLibrary.random(2, 4, seed=0)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 1, 0, 1))
        short = dataclasses.replace(transcript, payloads=transcript.payloads[:-1])
        with pytest.raises(ValueError, match="one transmission per symbol"):
            decode(cache, short)

    @pytest.mark.parametrize(
        "change",
        [
            lambda p: p.astype(np.uint16),
            lambda p: p[:, None, :],
            lambda p: p.ravel(),
            lambda p: p[:, :-1],
            lambda p: p.tolist(),
        ],
        ids=["uint16", "3-D", "1-D", "short-rows", "list"],
    )
    def test_rejects_malformed_payloads(self, ex4_pda, change):
        library = FileLibrary.random(2, 4, seed=0)
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, (0, 1, 0, 1))
        bad = dataclasses.replace(transcript, payloads=change(transcript.payloads))
        with pytest.raises(ValueError, match=r"^payloads must be .* a uint8 \(4, 16\) array"):
            decode(cache, bad)

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
                outcomes.add(list(decode(cache, transcript)) == want)
            except UnrecoverablePacketError:
                outcomes.add("blocked")
            wire = np.ascontiguousarray(transcript.payloads).view(np.uint64)[:, None]
            ws = simulate._Workspace(transcript.groups, len(wire), cache)
            files, blocked = simulate._decode(ws, wire, np.array([d]))
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

    @pytest.mark.parametrize("edit", ["merge", "split", "unsorted"])
    def test_rejects_groups_split_off_their_symbols(self, ex15_pda, edit):
        # Each edit, if decoded, gives some user wrong bytes and no error:
        # the payload of a symbol is the XOR over all of its cells.
        arr = Pda(np.array([[1, STAR], [STAR, 2]]), Z=1, S=2) if edit == "merge" else ex15_pda
        library = FileLibrary.random(2, arr.F, seed=1)
        cache = place(arr, library)
        transcript = deliver(arr, library, tuple(k % 2 for k in range(arr.K)))
        groups = transcript.groups
        bad = {
            "merge": groups._replace(start=np.array([0, 2])),
            "split": groups._replace(start=np.insert(groups.start, 1, 2)),
            "unsorted": groups._replace(symbol=groups.symbol[::-1]),
        }[edit]
        with pytest.raises(ValueError, match=r"groups\.start"):
            decode(cache, dataclasses.replace(transcript, groups=bad))

    def test_rejects_a_cell_named_twice(self, ex15_pda):
        # Every cell decodes into its own (user, row) of the output.
        library = FileLibrary.random(2, ex15_pda.F, seed=1)
        cache = place(ex15_pda, library)
        transcript = deliver(ex15_pda, library, (1,) * 15)
        groups = transcript.groups
        user, row = groups.user.copy(), groups.row.copy()
        c = groups.start[1]  # the first cell of symbol 2 becomes symbol 1's first cell
        user[c], row[c] = user[0], row[0]
        twice = groups._replace(user=user, row=row)
        with pytest.raises(ValueError, match=r"cells must be distinct"):
            decode(cache, dataclasses.replace(transcript, groups=twice))

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
        assert report.nominal_load == 1 == report.max_measured_load

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
        assert report.nominal_load == 2 == report.max_measured_load

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
        assert report.checked == 256 and report.loads_all_equal
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
            assert want and report.loads_all_equal
            assert len(report.failures) == report.checked * len(want)
            for d, k, reason in report.failures:
                assert reason == blocked_reason(k, want[k], d)

    def test_tiles_walked_once_per_decode_and_chunk(self, ex15_pda, monkeypatch):
        walks, chunks = [], []
        real_tiles, real_payloads = pda_mod.SymbolGroups.tiles, simulate._payloads

        def tiles(groups, width=1):
            walks.append(1)
            yield from real_tiles(groups, width)

        monkeypatch.setattr(pda_mod.SymbolGroups, "tiles", tiles)
        monkeypatch.setattr(simulate, "_payloads", lambda *a: chunks.append(1) or real_payloads(*a))
        library = FileLibrary.random(2, ex15_pda.F, seed=4)
        cache = place(ex15_pda, library)
        transcript = deliver(ex15_pda, library, (1,) * 15)
        assert decode(cache, transcript) == (library.file_bytes(1),) * 15
        assert len(walks) == 1
        walks.clear()
        chunks.clear()
        report = exhaustive_demand_check(ex15_pda, N=2, demand_budget=600)
        assert report.ok and report.checked == 601 and len(chunks) == 3  # 256 + 256 + 89
        assert len(walks) == 3

    def test_short_broadcast_fails_the_load(self, ex15_pda, monkeypatch):
        real = simulate._payloads
        monkeypatch.setattr(simulate, "_payloads", lambda *a: real(*a)[:-1])
        report = exhaustive_demand_check(ex15_pda, N=2, demand_budget=10)
        assert not report.ok and not report.loads_all_equal
        assert report.max_measured_load == Fraction(29, 15)
        assert len(report.failures) == report.checked == 11  # 10 samples + all-equal corner
        assert all(user is None and "measured load 29/15" in reason
                   for _, user, reason in report.failures)

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
    monkeypatch.setattr(pda_mod.SymbolGroups, "tiles", lambda groups, width=1: real(groups))


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

    @pytest.mark.parametrize("name", ["ex15", "irregular"])
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

    @pytest.mark.parametrize("name", ["ex15", "irregular"])
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

    @pytest.mark.parametrize("name", ["ex15", "irregular"])
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
                seen = (
                    report.failures, report.checked, report.max_measured_load,
                    report.loads_all_equal,
                )
                assert seen == reports.setdefault(i, seen)
        assert reports[0] == ((), 41, 2, True)
        reasons = " ".join(r for i in range(1, 7) for _, _, r in reports[i][0])
        assert "lacks interfering packet" in reasons and "differ" in reasons

    def test_sweep_memory_is_one_chunk_of_buffers(self, ex15_pda):
        # All 32,768 vectors in 128 chunks of 256.  One (K, F, B, W) array
        # of a chunk is 0.88 MiB; the decoded files and the expected files
        # are one each, and the tiles' reads, their indices and the rest
        # stay within two more.  Freeing per-chunk temporaries instead
        # peaked at 4.26 MiB.
        K, F, B, W = 15, 15, 256, 2
        full = peak_mib(exhaustive_demand_check, ex15_pda, 2)
        three = peak_mib(exhaustive_demand_check, ex15_pda, 2, 16, 600)  # 256 + 256 + 89
        assert full <= 4 * K * F * B * W * 8 / 2**20
        assert full <= 1.1 * three
