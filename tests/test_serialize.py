import json

import pytest

from nhsdp import (
    FileLibrary,
    Nhsdp,
    apply_grouping_formula,
    deliver,
    evaluate_nhsdp_scheme,
    evaluate_scheme,
    ntap_construct,
    pda_from_nhsdp,
    phf_from_ntap,
    place,
)
from nhsdp import serialize


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

    def test_ragged_text_rejected(self):
        with pytest.raises(ValueError):
            serialize.pda_from_text("* 1\n2\n")

    def test_shape_mismatch_rejected(self, ex4_pda):
        doc = json.loads(serialize.pda_to_json(ex4_pda))
        doc["K"] = 5
        with pytest.raises(ValueError):
            serialize.pda_from_json(json.dumps(doc))


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
        cache = place(ex4_pda, library)
        transcript = deliver(ex4_pda, library, cache, (0, 1, 2, 3))
        doc = json.loads(serialize.transcript_to_json(transcript))
        assert doc["seed"] == 99 and doc["packet_len"] == 8
        assert doc["demands"] == [0, 1, 2, 3]
        assert doc["bytes_on_wire"] == 4 * 8
        first = doc["transmissions"][0]
        assert bytes.fromhex(first["payload"]) == transcript.transmissions[0].payload
        assert first["contributors"] == [[0, 1], [1, 0]]


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

    def test_json_mirror(self):
        grouped = apply_grouping_formula(evaluate_scheme("MN", {"K": 10, "t": 5}), 125)
        doc = json.loads(serialize.scheme_points_to_json([grouped]))
        assert doc[0]["load_num"] == 125 and doc[0]["load_den"] == 12
        assert doc[0]["F"] == 504
        assert set(doc[0]) == set(serialize.CSV_COLUMNS)
