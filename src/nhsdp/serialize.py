"""File formats: JSON for designs, text or JSON for PDAs, CSV for tables.

Both PDA encodings round-trip bit-exactly; packing JSON stores every block
sorted ascending with the blocks themselves ordered by smallest element.
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


def nhsdp_from_json(text: str) -> Nhsdp:
    doc = json.loads(text)
    packing = Nhsdp.from_blocks(int(doc["v"]), doc["blocks"])
    if "g" in doc and packing.blocks and int(doc["g"]) != packing.g:
        raise ValueError(f"declared g={doc['g']} but blocks have size {packing.g}")
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
    doc = json.loads(text)
    return NtapSet.from_elements(int(doc["v"]), doc["elements"])


def pda_to_json(pda: Pda) -> str:
    grid = [
        ["*" if cell == STAR else int(cell) for cell in row] for row in pda.grid
    ]
    doc = {"F": pda.F, "K": pda.K, "Z": pda.Z, "S": pda.S, "grid": grid}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def pda_from_json(text: str) -> Pda:
    doc = json.loads(text)
    grid = np.array(
        [[STAR if cell == "*" else int(cell) for cell in row] for row in doc["grid"]],
        dtype=np.int64,
    )
    pda = Pda(grid, Z=int(doc["Z"]), S=int(doc["S"]))
    if pda.F != int(doc["F"]) or pda.K != int(doc["K"]):
        raise ValueError("declared shape does not match the grid")
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
    if not rows:
        raise ValueError("empty PDA text")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("ragged PDA text: rows have differing lengths")
    return Pda.from_grid(np.array(rows, dtype=np.int64))


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
    doc = json.loads(text)
    phf = PhfArray(q=int(doc["q"]), t=int(doc["t"]), grid=np.array(doc["grid"]))
    if phf.r != int(doc["r"]) or phf.m != int(doc["m"]):
        raise ValueError("declared shape does not match the grid")
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
