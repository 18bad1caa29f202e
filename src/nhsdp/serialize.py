"""File formats: JSON for designs, text or JSON for PDAs, CSV for tables.

Both PDA encodings round-trip bit-exactly; packing JSON stores every block
sorted ascending with the blocks themselves ordered by smallest element.
Every reader raises ValueError naming the field (or token) it rejects.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

import numpy as np

from .designs import NtapSet, PhfArray
from .packing import Cdp, Nhsdp
from .pda import STAR, Pda
from .schemes import SchemePoint
from .simulate import DeliveryTranscript


def nhsdp_to_json(packing: Nhsdp) -> str:
    blocks = sorted((sorted(blk) for blk in packing.blocks), key=lambda b: b[0])
    doc = {"v": packing.v, "g": packing.g, "blocks": blocks}
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list_of(ok):
    return lambda x: isinstance(x, list) and all(map(ok, x))


# What a JSON field must hold in every file format: (description, check).
_FIELDS = {
    "v": ("a positive integer", lambda x: _is_int(x) and x > 0),
    "g": ("an integer", _is_int),
    "blocks": ("a list of integer lists", _is_list_of(_is_list_of(_is_int))),
    "elements": ("a list of integers", _is_list_of(_is_int)),
    "grid": (
        "a list of rows of integers or '*'",
        _is_list_of(_is_list_of(lambda cell: _is_int(cell) or cell == "*")),
    ),
    **dict.fromkeys("FKZSrmqt", ("a non-negative integer", lambda x: _is_int(x) and x >= 0)),
}


def _doc(text: str, *fields: str) -> dict:
    """The JSON object in text with the named fields; checks every field present."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("must hold a JSON object")
    for name in fields:
        if name not in doc:
            raise ValueError(f"no field {name!r}")
    for name, (what, ok) in _FIELDS.items():
        if name in doc and not ok(doc[name]):
            raise ValueError(f"field {name!r} must be {what}")
    return doc


def _int64_grid(rows: list, where: str) -> np.ndarray:
    try:
        return np.array(rows, dtype=np.int64)
    except (OverflowError, ValueError) as exc:  # a huge cell, ragged rows, or a '*'
        raise ValueError(f"{where}: {exc}") from None


def nhsdp_from_json(text: str) -> Nhsdp:
    doc = _doc(text, "v", "blocks")
    packing = Nhsdp.from_blocks(doc["v"], doc["blocks"])
    if "g" in doc and packing.blocks and doc["g"] != packing.g:
        raise ValueError(f"field 'g' is {doc['g']} but blocks have size {packing.g}")
    return packing


def cdp_to_json(cdp: Cdp) -> str:
    doc = {
        "v": cdp.v,
        "k": cdp.k,
        "elements": list(cdp.elements),
        "is_difference_set": cdp.is_difference_set,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def ntap_to_json(ntap: NtapSet) -> str:
    doc = {"v": ntap.v, "elements": list(ntap.elements)}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def ntap_from_json(text: str) -> NtapSet:
    """An NTAP file, or a single-block packing file read as its one block."""
    doc = _doc(text, "v")
    if "elements" in doc and "blocks" not in doc:
        return NtapSet.from_elements(doc["v"], doc["elements"])
    return NtapSet.from_packing(nhsdp_from_json(text))


def params_to_json(v: int, n: int, solver: str, m: Sequence[int], product: int, phi: int) -> str:
    doc = {"v": v, "n": n, "solver": solver, "m": list(m), "product": product, "phi": phi}
    return json.dumps(doc) + "\n"


def pda_to_json(pda: Pda) -> str:
    grid = [
        ["*" if cell == STAR else int(cell) for cell in row] for row in pda.grid
    ]
    doc = {"F": pda.F, "K": pda.K, "Z": pda.Z, "S": pda.S, "grid": grid}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def pda_from_json(text: str) -> Pda:
    doc = _doc(text, "F", "K", "Z", "S", "grid")
    grid = _int64_grid(
        [[STAR if cell == "*" else cell for cell in row] for row in doc["grid"]],
        "field 'grid'",
    )
    pda = Pda(grid, Z=doc["Z"], S=doc["S"])
    if (pda.F, pda.K) != (doc["F"], doc["K"]):
        raise ValueError(f"fields 'F', 'K' do not match the {pda.F}x{pda.K} grid")
    return pda


def pda_to_text(pda: Pda) -> str:
    """One row per line, single-space separated, '*' for stars."""
    lines = [
        " ".join("*" if cell == STAR else str(int(cell)) for cell in row)
        for row in pda.grid
    ]
    return "\n".join(lines) + "\n"


def pda_from_text(text: str) -> Pda:
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append([STAR if tok == "*" else int(tok) for tok in line.split()])
    return Pda.from_grid(_int64_grid(rows, "PDA text"))


def load_pda(text: str) -> Pda:
    """Accept either encoding; JSON is detected by its leading brace."""
    if text.lstrip().startswith("{"):
        return pda_from_json(text)
    return pda_from_text(text)


def phf_to_json(phf: PhfArray) -> str:
    doc = {
        "r": phf.r,
        "m": phf.m,
        "q": phf.q,
        "t": phf.t,
        "grid": [[int(v) for v in row] for row in phf.grid],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def phf_from_json(text: str) -> PhfArray:
    doc = _doc(text, "r", "m", "q", "t", "grid")
    phf = PhfArray(doc["q"], doc["t"], _int64_grid(doc["grid"], "field 'grid'"))
    if (phf.r, phf.m) != (doc["r"], doc["m"]):
        raise ValueError(f"fields 'r', 'm' do not match the {phf.r}x{phf.m} grid")
    return phf


def transcript_to_json(transcript: DeliveryTranscript) -> str:
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


CSV_COLUMNS = (
    "scheme",
    "params",
    "K",
    "memory_ratio_num",
    "memory_ratio_den",
    "load_num",
    "load_den",
    "F",
    "gain_num",
    "gain_den",
)


def scheme_points_to_csv(points: Sequence[SchemePoint]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for point in points:
        writer.writerow(point.as_row())
    return buf.getvalue()


def scheme_points_to_json(points: Sequence[SchemePoint]) -> str:
    return json.dumps([point.as_row() for point in points], indent=2) + "\n"
