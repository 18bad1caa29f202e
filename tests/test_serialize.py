import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nhsdp import (
    STAR,
    FileLibrary,
    Nhsdp,
    Pda,
    apply_grouping_formula,
    deliver,
    drop_columns,
    evaluate_nhsdp_scheme,
    evaluate_scheme,
    ntap_construct,
    pda_from_nhsdp,
    phf_from_ntap,
)
from nhsdp import serialize
from conftest import peak_mib


class TestPackingJson:
    def test_round_trip(self, ex15_packing):
        text = serialize.nhsdp_to_json(ex15_packing)
        again = serialize.nhsdp_from_json(text)
        assert again.v == 15
        assert set(again.blocks) == set(ex15_packing.blocks)
        assert serialize.nhsdp_to_json(again) == text

    def test_blocks_sorted_by_smallest_element(self):
        packing = Nhsdp.from_blocks(15, [(-4, 4, -5, 5), (-1, 1, -2, 2)])
        doc = json.loads(serialize.nhsdp_to_json(packing))
        assert doc["blocks"] == [[1, 2, 13, 14], [4, 5, 10, 11]]
        assert doc["v"] == 15 and doc["g"] == 4

    def test_signed_input_normalised(self):
        again = serialize.nhsdp_from_json('{"v": 15, "blocks": [[-1, 1, -2, 2]]}')
        assert again.blocks == ((1, 2, 13, 14),)

    def test_declared_g_checked(self):
        with pytest.raises(ValueError):
            serialize.nhsdp_from_json('{"v": 15, "g": 3, "blocks": [[1, 2]]}')


class TestFieldChecks:
    """Each reader raises ValueError naming the missing or wrong-typed field."""

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"v": 15, "blocks": [[1, 2.5]]}', "'blocks'"),
            ('{"v": true, "blocks": [[1, 2]]}', "'v'"),
            ('{"v": 15, "g": "2", "blocks": [[1, 2]]}', "'g'"),
            ('{"v": 15, "g": 3, "blocks": [[1, 2]]}', "'g'"),
            ("[15]", "JSON object"),
        ],
    )
    def test_nhsdp(self, text, field):
        with pytest.raises(ValueError, match=field):
            serialize.nhsdp_from_json(text)

    def test_ntap(self):
        with pytest.raises(ValueError, match="'elements'"):
            serialize.ntap_from_json('{"v": 9, "elements": [1, null]}')
        with pytest.raises(ValueError, match="'blocks'"):
            serialize.ntap_from_json('{"v": 9}')
        with pytest.raises(ValueError, match="single-block"):
            serialize.ntap_from_json('{"v": 7, "blocks": [[1, 6], [2, 5]]}')

    def test_ntap_reads_single_block_packing(self):
        ntap = serialize.ntap_from_json('{"v": 7, "blocks": [[0, 1, 3]]}')
        assert (ntap.v, ntap.elements) == (7, (0, 1, 3))

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"S": "4"}, "'S'"),
            ({"F": -4}, "'F'"),
            ({"grid": [["*", 1, "*", 4], [1, "*", 2]]}, "'grid'"),
            ({"grid": [["*", 1, "*", 4.0]]}, "'grid'"),
            ({"grid": [["*", 1, "*", 2**70]] * 4}, "'grid'"),
        ],
    )
    def test_pda(self, ex4_pda, change, field):
        doc = {**json.loads(serialize.pda_to_json(ex4_pda)), **change}
        with pytest.raises(ValueError, match=field):
            serialize.pda_from_json(json.dumps(doc))

    def test_pda_text_names_the_token(self):
        with pytest.raises(ValueError, match="'1.5'"):
            serialize.pda_from_text("* 1\n\n1 1.5\n")

    @pytest.mark.parametrize(
        "change, field",
        [({"q": 9.0}, "'q'"), ({"grid": [[0, "*"]]}, "'grid'"), ({"m": 35}, "'m'")],
    )
    def test_phf(self, change, field):
        doc = {**json.loads(serialize.phf_to_json(phf_from_ntap(ntap_construct(2)))), **change}
        with pytest.raises(ValueError, match=field):
            serialize.phf_from_json(json.dumps(doc))


class TestPdaFormats:
    def test_text_round_trip_bit_exact(self, ex4_pda):
        text = serialize.pda_to_text(ex4_pda)
        assert text.splitlines()[0] == "* 1 * 4"
        again = serialize.pda_from_text(text)
        assert again.same_as(ex4_pda)
        assert serialize.pda_to_text(again) == text

    def test_json_round_trip_bit_exact(self, ex4_pda):
        text = serialize.pda_to_json(ex4_pda)
        again = serialize.pda_from_json(text)
        assert again.same_as(ex4_pda)
        assert serialize.pda_to_json(again) == text

    def test_formats_agree(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        via_text = serialize.pda_from_text(serialize.pda_to_text(arr))
        via_json = serialize.pda_from_json(serialize.pda_to_json(arr))
        assert via_text.same_as(via_json)
        assert via_text.same_as(arr)

    def test_wide_grouped_array_round_trips(self, ex15_packing):
        from nhsdp import group_pda_divisible

        wide = group_pda_divisible(pda_from_nhsdp(ex15_packing), 45)
        assert wide.params() == (45, 15, 7, 90)
        assert serialize.pda_from_text(serialize.pda_to_text(wide)).same_as(wide)
        assert serialize.pda_from_json(serialize.pda_to_json(wide)).same_as(wide)

    def test_load_pda_detects_format(self, ex4_pda):
        assert serialize.load_pda(serialize.pda_to_json(ex4_pda)).same_as(ex4_pda)
        assert serialize.load_pda(serialize.pda_to_text(ex4_pda)).same_as(ex4_pda)

    @pytest.mark.parametrize(
        "path, json_out",
        [("a.json", True), ("dir/A.Json", True), ("a.txt", False), ("a.json.txt", False),
         ("json", False), ("a", False)],
    )
    def test_path_picks_the_writer(self, ex4_pda, path, json_out):
        write = serialize.pda_to_json if json_out else serialize.pda_to_text
        assert serialize.pda_for_path(ex4_pda, path) == write(ex4_pda)

    def test_ragged_text_rejected(self):
        with pytest.raises(ValueError):
            serialize.pda_from_text("* 1\n2\n")

    def test_shape_mismatch_rejected(self, ex4_pda):
        doc = json.loads(serialize.pda_to_json(ex4_pda))
        doc["K"] = 5
        with pytest.raises(ValueError):
            serialize.pda_from_json(json.dumps(doc))


class TestGoldens:
    """The sha256 of each writer's output, pinned from the per-cell str writers."""

    GOLDEN = {
        ("a125", "text"): "5ccd31a32f4f2404e56309fca1e055adf3ac502ced3c1d6a549e2c4bbfe1252d",
        ("a125", "json"): "aab77f2a15b76794a0ac577b5b7b98b8773f00754c384561becf9aae91b2e450",
        ("a1331", "text"): "f7ba08030a8c79f179f6fefc0433bd17c75bbfd594686f7f970b35c7428d522a",
        ("a1331", "json"): "240ffddb6f760aa925fd3b1c0bd2f6165596c6ad7ad6250009dda5b8be06f195",
        ("e1330", "text"): "2d0ecc2dfb10cc12edd765e7f0bae4c6a851c76f717879beb1b65c054d4dd3fb",
        ("e1330", "json"): "292bd12d02d6d1375f6fd4bcd233691dd52815e26280e546f7c26693e74bf8c3",
        ("c343", "text"): "bf7df2307da7267b32421f9d91fb270a9c734422f87bb3d5b298a77eae11b513",
        ("c343", "json"): "b681c797f3c3589b01219effed6193deec6938fdd85f4810ab129007a1d15f78",
    }
    PARAMS = {
        "a125": (125, 125, 61, 1000),
        "a1331": (1331, 1331, 331, 166375),
        "e1330": (1330, 1331, 331, 166375),
        "c343": (343, 9261, 9045, 343),
    }

    @pytest.mark.parametrize("name, fmt", list(GOLDEN), ids="-".join)
    def test_writer_bytes(self, golden_arrays, name, fmt):
        arr = golden_arrays[name]
        assert arr.params() == self.PARAMS[name]
        write = serialize.pda_to_text if fmt == "text" else serialize.pda_to_json
        text = write(arr)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[name, fmt]
        assert serialize.load_pda(text).same_as(arr)


def reference_pda_to_text(arr):
    """The per-cell str writer of PDA text."""
    return "".join(" ".join("*" if x == STAR else str(x) for x in row) + "\n" for row in arr.grid.tolist())


def reference_pda_doc(arr):
    """The PDA as the JSON object json.dumps writes, with "*" for the star."""
    grid = [["*" if x == STAR else x for x in row] for row in arr.grid.tolist()]
    return {"F": arr.F, "K": arr.K, "Z": arr.Z, "S": arr.S, "grid": grid}


def reference_pda_to_json(arr):
    """The per-cell json.dumps writer of PDA JSON."""
    return json.dumps(reference_pda_doc(arr), separators=(",", ":")) + "\n"


def reference_pda_from_text(text):
    """The per-cell reader the byte codec replaced: str.splitlines, str.split and int."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append([STAR if tok == "*" else int(tok) for tok in line.split()])
    return Pda.from_grid(serialize._int64_grid(rows, "PDA text"))


def reference_pda_from_json(text):
    """The per-cell JSON reader the byte codec replaced: json.loads and np.array."""
    doc = serialize._doc(text, "F", "K", "Z", "S", "grid")
    grid = serialize._int64_grid(
        [[STAR if cell == "*" else cell for cell in row] for row in doc["grid"]],
        "field 'grid'",
    )
    pda = Pda(grid, Z=doc["Z"], S=doc["S"])
    if (pda.F, pda.K) != (doc["F"], doc["K"]):
        raise ValueError(f"fields 'F', 'K' do not match the {pda.F}x{pda.K} grid")
    return pda


def outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_reads_like(read, reference, text):
    got, want = outcome(read, text), outcome(reference, text)
    if isinstance(want, str):
        assert got == want, text[:200]
    else:
        assert isinstance(got, Pda) and got.same_as(want), text[:200]


def random_grid(rng):
    """A random int64 grid: stars, small and 2**63 - 1 sized symbols, 1 to 40 columns."""
    F, K = (int(x) for x in rng.integers(1, [12, 40]))
    top = int(rng.choice([9, 10**3, 10**6, 10**12, 2**63 - 1]))
    grid = rng.integers(0, top, size=(F, K), dtype=np.int64, endpoint=True)
    grid[rng.random((F, K)) < 0.3] = STAR
    return grid


def scramble(grid, rng, space, breaks):
    """PDA text of grid with random separators, line breaks, blank lines and leading zeros."""
    lines = []
    for row in grid.tolist():
        toks = ["*" if x == STAR else "0" * int(rng.integers(0, 3) == 0) + str(x) for x in row]
        gaps = [space[i] for i in rng.integers(0, len(space), size=len(toks) + 1)]
        lines.append(gaps[0] * int(rng.integers(0, 2)) + "".join(t + g for t, g in zip(toks, gaps[1:])))
        if rng.random() < 0.2:
            lines.append(gaps[0])
    ends = [breaks[i] for i in rng.integers(0, len(breaks), size=len(lines))]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.7 else text.rstrip("\n\r")


@pytest.fixture(params=[3, 64, None], ids=["chunk3", "chunk64", "chunk_default"])
def chunk(request, monkeypatch):
    """Run the codec with tiny chunks too, so rows, tokens and faults straddle chunk bounds.

    Returns the chunk size in effect.
    """
    if request.param:
        monkeypatch.setattr(serialize, "_CHUNK", request.param)
    return serialize._CHUNK


class TestTextGrammar:
    """pda_from_text reads what the per-cell reader read, and fails as it failed."""

    def test_random_grids_round_trip(self, chunk):
        rng = np.random.default_rng(6)
        for _ in range(60):
            arr = Pda.from_grid(random_grid(rng))
            text = serialize.pda_to_text(arr)
            assert text == reference_pda_to_text(arr)
            assert serialize.pda_from_text(text).same_as(arr)
            assert_reads_like(serialize.pda_from_text, reference_pda_from_text, text)

    @pytest.mark.parametrize(
        "space, breaks",
        [
            ([" "], ["\n"]),
            ([" ", "  ", "\t", "\x1f"], ["\n", "\r\n", "\r"]),
            ([" ", "\xa0", "　", " "], ["\v", "\f", "\x1c", "\x85", " ", "\n"]),
        ],
        ids=["plain", "ascii", "unicode"],
    )
    def test_scrambled_whitespace(self, chunk, space, breaks):
        rng = np.random.default_rng(7)
        for _ in range(40):
            text = scramble(random_grid(rng), rng, space, breaks)
            assert_reads_like(serialize.pda_from_text, reference_pda_from_text, text)

    @pytest.mark.parametrize(
        "text",
        [
            "* 1\t*\t4\n1 * 2 *\n",
            "* 1 * 4\r\n1 * 2 *\r\n",
            "\n\n* 1 * 4\n   \n\t\n1 * 2 *\n\n",
            "* 1 * 4   \n1 * 2 *  \t\n",
            "* 1 * 4\n1 * 2 *",
            "0 1\n007 0\n",
            "*5 1\n",
            "5* 1\n",
            "** 1\n",
            "* 1\n1 1.5\n",
            "x\n",
            "1 2\n3\n",
            "1 2\n3 4 5\n6\n",
            "1 2\n3\n4 x\n",
            "1 2\n3 99999999999999999999\n",
            "",
            "\n \n\t\n",
            "1\x002\n",
            "1 é\n",
            "1 \udc80\n",
            "9223372036854775807 *\n",
            "9223372036854775808 *\n",
            "1000000000000000000 *\n",
            "99999999999999999999 *\n",
            "000000000000000000009223372036854775807 *\n",
            "000000000000000000009223372036854775808 *\n",
            "0000000000000000000000000000000000000001\n",
            "1 " + "0" * 4300 + "7\n",
            "1 " + "0" * 4301 + "\n",
        ],
    )
    def test_adversarial_texts(self, chunk, text):
        assert_reads_like(serialize.pda_from_text, reference_pda_from_text, text)

    @pytest.mark.parametrize("token", ["+5", "-5", "1_0", "٣", "５", "-0"])
    def test_signs_underscores_and_non_ascii_digits_are_rejected(self, token):
        int(token)  # int() would take every one of them
        message = f"PDA text: token {token!r} is not '*' or ASCII decimal digits"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.pda_from_text(f"* 1\n1 {token}\n")


class TestJsonGrammar:
    """pda_from_json reads what json.loads and np.array read, and fails with their message."""

    def test_random_grids_round_trip(self, chunk):
        rng = np.random.default_rng(8)
        for _ in range(60):
            arr = Pda.from_grid(random_grid(rng))
            text = serialize.pda_to_json(arr)
            doc = reference_pda_doc(arr)
            assert text == reference_pda_to_json(arr)
            assert serialize.pda_from_json(text).same_as(arr)
            for spaced in (json.dumps(doc), json.dumps(doc, indent=2), json.dumps(dict(reversed(doc.items())))):
                assert_reads_like(serialize.pda_from_json, reference_pda_from_json, spaced)

    @pytest.mark.parametrize(
        "grid",
        [
            '[["*",1,"*",4],[1,"*",2,"*"]]',
            ' [ [ "*" , 1 ,"*",4 ] ,\n\t[1,"*",2,"*"]\r\n] ',
            "[]",
            "[ ]",
            "[[]]",
            "[[],[]]",
            "[[1],[]]",
            "[[],[1]]",
            "[[1,2],[3]]",
            "[[1],[2],[3,4]]",
            "[[01]]",
            "[[-1]]",
            "[[-0]]",
            "[[-]]",
            "[[1.5]]",
            "[[1e3]]",
            '[["1"]]',
            '[["**"]]',
            '[["*"*"]]',
            "[[true]]",
            "[[null]]",
            "[[1 2]]",
            "[[1,,2]]",
            "[[1,2,]]",
            "[[1],2]",
            "[[1],2,[3]]",
            "[[1,[2],3]]",
            "[1,[2]]",
            "[[1,[2]]]",
            "[[[1]]]",
            "[[1]],[[2]]",
            "[[1]]]",
            "[[1]",
            "[[1],,[2]]",
            "[,[1]]",
            "[[1]][[2]]",
            "[[9223372036854775807]]",
            "[[9223372036854775808]]",
            "[[-9223372036854775808]]",
            "[[-9223372036854775809]]",
            "[[1,99999999999999999999],[1]]",
            "[[" + "1" * 4301 + "]]",
            "5",
            '"grid"',
            "null",
            "[1,2]",
            '[["]]"]]',
        ],
    )
    def test_adversarial_grids(self, chunk, grid):
        text = '{"F": 2, "K": 4, "Z": 2, "S": 4, "grid": ' + grid + "}"
        assert_reads_like(serialize.pda_from_json, reference_pda_from_json, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{}",
            "[]",
            '{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]]',
            '{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]]} x',
            '{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]],}',
            '{"F": 1 "K": 1, "Z": 0, "S": 1, "grid": [[1]]}',
            '{"grid": [[1]], "F": 1, "K": 1, "Z": 0, "S": 1}',
            '{"grid": [[1.5.5]], "grid": [[1]], "F": 1, "K": 1, "Z": 0, "S": 1}',
            '{"grid": [[7]], "grid": [[1]], "F": 1, "K": 1, "Z": 0, "S": 1}',
            '{"grid": [[1]], "grid": 5, "F": 1, "K": 1, "Z": 0, "S": 1}',
            '{"gr\\u0069d": [[1]], "F": 1, "K": 1, "Z": 0, "S": 1}',
            '{"F": 1, "K": 1, "Z": 0, "S": "1", "grid": [[1]]}',
            '{"F": 1, "K": 1, "Z": 0, "S": "1", "grid": [[1.5]]}',
            '{"F": 1, "K": 1, "S": 1, "grid": [[1.5]]}',
            '{"F": 1, "K": 1, "Z": 0, "S": "1", "grid": [[99999999999999999999]]}',
            '{"F": 2, "K": 1, "Z": 0, "S": 1, "grid": [[1]]}',
            '{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]], "x": NaN}',
            '{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]], "note": "]]"}',
            '﻿{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]]}',
            '{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1]], "\\"grid": [[2]]}',
        ],
    )
    def test_adversarial_documents(self, chunk, text):
        assert_reads_like(serialize.pda_from_json, reference_pda_from_json, text)

    def test_escaped_star_is_rejected(self):
        text = '{"F": 1, "K": 2, "Z": 1, "S": 1, "grid": [["\\u002a", 1]]}'
        assert reference_pda_from_json(text).grid.tolist() == [[STAR, 1]]
        with pytest.raises(ValueError, match="field 'grid' must write the star as"):
            serialize.pda_from_json(text)


def edge_grid(kind):
    """A 5x7 grid at one edge of the writer's decimal table, or star-free."""
    F, K = 5, 7
    rng = np.random.default_rng(9)
    grid = rng.integers(1, F * K - 2, size=(F, K), endpoint=True)
    if kind != "star_free":
        grid[rng.random((F, K)) < 0.4] = STAR
    if kind == "top_FK_minus_1":
        grid[2, 3] = F * K - 1
    elif kind == "top_FK":
        grid[2, 3] = F * K
    elif kind == "int64_max_row":
        grid[4] = [2**63 - 1, STAR, 7, 2**63 - 1, 10**18, STAR, 2**63 - 1]
    elif kind == "all_star":
        grid[:] = STAR
    return grid


def star_dense_grid(kind, rng):
    """A 40x30 grid of stars only, or about 3 % symbols as in a conjugate."""
    grid = np.zeros((40, 30), dtype=np.int64)
    if kind == "star_dense":
        cells = rng.random(grid.shape) < 0.03
        grid[cells] = rng.integers(1, 10**6, size=int(cells.sum()))
        grid[0, 5] = 2**63 - 1
    return grid


class TestCellCodec:
    """The table writer writes what the per-cell writers write at the edges of
    its table, and the reader reads the digits of star-heavy grids."""

    @pytest.mark.parametrize(
        "kind", ["top_FK_minus_1", "top_FK", "int64_max_row", "all_star", "star_free"]
    )
    def test_edge_grids(self, chunk, kind, monkeypatch):
        arr = Pda.from_grid(edge_grid(kind))
        sizes, build = [], serialize._cell_table
        monkeypatch.setattr(
            serialize, "_cell_table", lambda values, *rest: sizes.append(values.size) or build(values, *rest)
        )
        assert serialize.pda_to_text(arr) == reference_pda_to_text(arr)
        assert serialize.pda_to_json(arr) == reference_pda_to_json(arr)
        assert serialize.pda_from_text(reference_pda_to_text(arr)).same_as(arr)
        FK, top = arr.F * arr.K, int(arr.grid.max())
        if top < FK:  # one table per call, a row per value in 0..top
            assert sizes == [top + 1, top + 1]
        else:  # one table per chunk, a row per value the chunk holds
            rows_per_chunk = max(1, chunk // arr.K)
            assert len(sizes) == 2 * -(-arr.F // rows_per_chunk)
            assert max(sizes) <= rows_per_chunk * arr.K

    @pytest.mark.parametrize("kind", ["star_only", "star_dense"])
    def test_star_heavy_grids(self, chunk, kind):
        rng = np.random.default_rng(10)
        arr = Pda.from_grid(star_dense_grid(kind, rng))
        text = reference_pda_to_text(arr)
        assert serialize.pda_from_text(text).same_as(arr)
        assert serialize.pda_from_json(reference_pda_to_json(arr)).same_as(arr)
        assert_reads_like(serialize.pda_from_text, reference_pda_from_text, text)
        scrambled = scramble(arr.grid, rng, [" ", "\t"], ["\n", "\r\n"])
        assert_reads_like(serialize.pda_from_text, reference_pda_from_text, scrambled)
        assert_reads_like(serialize.pda_from_json, reference_pda_from_json, json.dumps(reference_pda_doc(arr)))

    @pytest.mark.parametrize(
        "row",
        [
            "9223372036854775808",
            "99999999999999999999",
            "000000000000000000009223372036854775807",
            "000000000000000000009223372036854775808",
            "x",
        ],
    )
    def test_star_dense_faults(self, chunk, row):
        text = "* * * *\n* * * 5\n* " + row + " * *\n* * * *\n"
        assert_reads_like(serialize.pda_from_text, reference_pda_from_text, text)
        grid = "[" + ",".join("[" + ",".join(line.split()).replace("*", '"*"') + "]" for line in text.splitlines()) + "]"
        doc = '{"F": 4, "K": 4, "Z": 3, "S": 5, "grid": ' + grid + "}"
        assert_reads_like(serialize.pda_from_json, reference_pda_from_json, doc)


class TestCodecMemory:
    """tracemalloc peaks of the codec on the v=1331 lift, its input already built."""

    def test_reader_and_writer_peaks(self, golden_arrays):
        arr = golden_arrays["a1331"]
        text = serialize.pda_to_text(arr)
        assert peak_mib(serialize.pda_from_text, text) <= 72  # MiB, the per-cell reader's peak
        assert peak_mib(serialize.pda_to_text, arr) <= 40  # MiB; the per-cell writer took 27


class TestPhfAndTranscript:
    def test_phf_round_trip(self):
        phf = phf_from_ntap(ntap_construct(2))
        text = serialize.phf_to_json(phf)
        doc = json.loads(text)
        assert (doc["r"], doc["m"], doc["q"], doc["t"]) == (3, 36, 9, 3)
        again = serialize.phf_from_json(text)
        assert (again.grid == phf.grid).all()
        assert serialize.phf_to_json(again) == text

    def test_transcript_records_seed_and_payloads(self, ex4_pda):
        library = FileLibrary.random(4, 4, packet_len=8, seed=99)
        transcript = deliver(ex4_pda, library, (0, 1, 2, 3))
        doc = json.loads(serialize.transcript_to_json(transcript))
        assert doc["seed"] == 99 and doc["packet_len"] == 8
        assert doc["demands"] == [0, 1, 2, 3]
        assert doc["bytes_on_wire"] == 4 * 8
        first = doc["transmissions"][0]
        assert bytes.fromhex(first["payload"]) == transcript.transmissions[0].payload
        assert first["contributors"] == [[0, 1], [1, 0]]


def reference_transcript_to_json(transcript) -> str:
    """The transcript through nested json.dumps, one dict per Transmission."""
    doc = {
        "seed": transcript.seed,
        "packet_len": transcript.packet_len,
        "demands": list(transcript.demands),
        "bytes_on_wire": transcript.bytes_on_wire,
        "transmissions": [
            {
                "symbol": txn.symbol,
                "payload": txn.payload.hex(),
                "contributors": [[user, packet] for user, packet in txn.contributors],
            }
            for txn in transcript.transmissions
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _one_shot_demand(seed):
    """benchmarks/cases.py's demand vector of the one-shot case."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "cases.py"
    spec = importlib.util.spec_from_file_location("bench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = cases  # its dataclasses look their module up
    spec.loader.exec_module(cases)
    return cases.one_shot_demand(seed)


class TestTranscriptWriter:
    """transcript_to_json writes what nested json.dumps of the per-symbol
    Transmission view writes, byte for byte."""

    @staticmethod
    def written(arr, n_files, packet_len, seed, demand):
        library = FileLibrary.random(n_files, arr.F, packet_len, seed)
        transcript = deliver(arr, library, demand)
        text = serialize.transcript_to_json(transcript)
        assert text == reference_transcript_to_json(transcript)
        return json.loads(text)

    @pytest.mark.parametrize("packet_len", [16, 5, 17])
    def test_worked_arrays(self, ex4_pda, ex15_packing, packet_len):
        ex15 = pda_from_nhsdp(ex15_packing)
        self.written(ex4_pda, 4, packet_len, 0, (0, 1, 2, 3))
        self.written(ex15, 2, packet_len, 3, tuple(k % 2 for k in range(15)))
        irregular = drop_columns(ex15, range(14))
        self.written(irregular, 2, packet_len, 3, tuple(k % 2 for k in range(14)))

    def test_absent_symbols_have_no_contributors(self):
        doc = self.written(Pda([[0, 3], [3, 0]], Z=1, S=4), 2, 5, 1, (0, 1))
        assert [t["contributors"] for t in doc["transmissions"]] == [[], [], [[0, 1], [1, 0]], []]

    def test_all_star_has_no_transmissions(self):
        doc = self.written(Pda(np.zeros((2, 2), dtype=np.int64), Z=2, S=0), 2, 16, 0, (0, 1))
        assert doc["transmissions"] == [] and doc["bytes_on_wire"] == 0

    def test_one_shot_lift(self, lift343, monkeypatch):
        demand = _one_shot_demand(1)
        doc = self.written(lift343, 2, 16, 1, demand)
        assert len(doc["transmissions"]) == lift343.S
        monkeypatch.setattr(serialize, "_CHUNK", 1000)  # many chunks of whole symbols
        self.written(lift343, 2, 16, 1, demand)


class TestTables:
    def test_csv_header_and_rows(self):
        points = [
            evaluate_nhsdp_scheme(125, 3),
            evaluate_scheme("MN", {"K": 10, "t": 5}),
        ]
        text = serialize.scheme_points_to_csv(points)
        lines = text.splitlines()
        assert lines[0] == (
            "scheme,params,K,memory_ratio_num,memory_ratio_den,"
            "load_num,load_den,F,gain_num,gain_den"
        )
        assert lines[1].startswith("NHSDP,v=125;n=3;m=2|2|2")
        assert ",61,125,8,1,125,8,1" in lines[1]

    @pytest.mark.parametrize(
        "path, json_out", [("t.json", True), ("T.JSON", True), ("t.csv", False), ("t", False)]
    )
    def test_path_picks_the_writer(self, path, json_out):
        points = [evaluate_nhsdp_scheme(125, 3)]
        write = serialize.scheme_points_to_json if json_out else serialize.scheme_points_to_csv
        assert serialize.scheme_points_for_path(points, path) == write(points)

    def test_json_mirror(self):
        grouped = apply_grouping_formula(evaluate_scheme("MN", {"K": 10, "t": 5}), 125)
        doc = json.loads(serialize.scheme_points_to_json([grouped]))
        assert doc[0]["load_num"] == 125 and doc[0]["load_den"] == 12
        assert doc[0]["F"] == 504
        assert set(doc[0]) == set(serialize.CSV_COLUMNS)
