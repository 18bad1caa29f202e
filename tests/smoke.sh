#!/usr/bin/env bash
# Console-script smoke test: the CLI end to end on small inputs, with exact
# stdout lines, exit codes and sha256 pins of what it writes.
#
# NHSDP names the command that runs the CLI; it defaults to the installed
# console script.  From a checkout, without installing:
#
#   PYTHONPATH="$PWD/src" NHSDP="python -m nhsdp" bash tests/smoke.sh
#
# The python -c checks import nhsdp the same way.  The script works in a
# fresh temporary directory, removed when it exits.  One check writes into a
# read-only directory and expects a refusal; a user that can write there
# anyway (root) skips it and says so.
set -eo pipefail  # as GitHub runs a step's bash
NHSDP=${NHSDP:-nhsdp}
nhsdp() { command $NHSDP "$@"; }  # unquoted: NHSDP may be "python -m nhsdp"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

nhsdp construct-nhsdp --v 15 --m 2 --out p15.json
nhsdp build-pda p15.json --out p15.txt
nhsdp verify-pda p15.txt
nhsdp simulate p15.txt --N 2 --demands all > all15.out
cat all15.out
grep -qx '32768/32768 demands decoded, load = 2' all15.out
nhsdp simulate p15.txt --N 3 --demands sample:600 > s600.out
cat s600.out
grep -qx '601/14348907 demands decoded, load = 2' s600.out
nhsdp simulate p15.txt --N 2 --demands 0,1,0,1,0,1,0,1,0,1,0,1,0,1,0 --out tr.json
nhsdp simulate p15.txt --N 2 --demands 0,1,0,1,0,1,0,1,0,1,0,1,0,1,0 --packet-len 5 --out tr5.json
# The same transcript in process, and decode's one read-only
# (K, F, packet_len) array, user k's file in row k.
python -c '
from nhsdp import FileLibrary, decode, deliver, place, serialize
arr = serialize.load_pda(open("p15.txt").read())
lib = FileLibrary.random(2, arr.F, 16, 0)
transcript = deliver(arr, lib, [k % 2 for k in range(15)])
open("tr_py.json", "wb").write(serialize.transcript_to_json(transcript).encode())
files = decode(place(arr, lib), transcript)
assert files.shape == (15, 15, 16) and not files.flags.writeable, "decode did not return a read-only (15, 15, 16) array"
assert all(files[k].tobytes() == lib.file_bytes(k % 2) for k in range(15)), "a user decoded the wrong bytes"
'
cmp tr.json tr_py.json
# Runners do not run as root, so a read-only directory refuses the
# file: the run exits 2 and leaves the directory empty.
mkdir ro && chmod a-w ro
if touch ro/probe 2> /dev/null; then
  rm ro/probe
  echo "read-only directory check skipped: this user writes into read-only directories"
else
set +e
nhsdp simulate p15.txt --N 2 --demands 0,1,0,1,0,1,0,1,0,1,0,1,0,1,0 --out ro/tr.json 2> ro.err
code=$?
set -eo pipefail  # as GitHub runs a step's bash
cat ro.err
test "$code" = 2 && grep -q 'cannot write ro/tr.json' ro.err && test -z "$(ls -A ro)"
fi
# A device at --out is written through, not replaced.
nhsdp build-pda p15.json --out /dev/null && test -c /dev/null
nhsdp build-pda p15.json --out a15.json
nhsdp verify-pda a15.json
nhsdp conjugate p15.txt --out c15.txt
nhsdp conjugate p15.txt --out c15.json
nhsdp verify-pda c15.txt
nhsdp verify-pda c15.json
python -c '
from nhsdp.serialize import load_pda
txt, js = (load_pda(open(name).read()) for name in ("c15.txt", "c15.json"))
assert (txt.Z, txt.S) == (js.Z, js.S), "c15.txt and c15.json declare different Z, S"
assert txt.grid.shape == js.grid.shape and (txt.grid == js.grid).all(), "c15.txt and c15.json load to different grids"
'
# The v=343 lift (448 KB of text, more than one 2^18-character
# reader chunk) as text, as JSON and with CRLF line ends: one
# verdict from each, and one grid, the CR bytes kept (newline="").
nhsdp construct-nhsdp --v 343 --m 3,3,3 --out p343.json
nhsdp build-pda p343.json --out a343.txt
# The lift's bytes, pinned from the element-by-element lift.
echo '24fba0f83064aa0b4400ef6b2cc15d952055ab914669e23542a2328ebee00fa1  a343.txt' | sha256sum -c -
nhsdp build-pda p343.json --out a343.json
python -c 'open("a343_crlf.txt", "wb").write(open("a343.txt", "rb").read().replace(b"\n", b"\r\n"))'
for f in a343.txt a343.json a343_crlf.txt; do
  test "$(nhsdp verify-pda "$f")" = '(343,343,127,9261) PDA: valid, 8-regular'
done
python -c '
from nhsdp.serialize import load_pda
texts = [open(name, newline="").read() for name in ("a343.txt", "a343.json", "a343_crlf.txt")]
assert texts[2].count("\r\n") == 343, "a343_crlf.txt does not end its 343 rows with CRLF"
txt, js, crlf = map(load_pda, texts)
for name, arr in (("a343.json", js), ("a343_crlf.txt", crlf)):
    assert (arr.Z, arr.S) == (txt.Z, txt.S), f"{name} and a343.txt declare different Z, S"
    assert arr.grid.shape == txt.grid.shape and (arr.grid == txt.grid).all(), f"{name} and a343.txt load to different grids"
'
# Its conjugate, 97.7 % stars and 6.4 MB of text, many writer
# and reader chunks: one verdict and one grid from both encodings.
nhsdp conjugate a343.txt --out c343.txt
echo '1ed4158ed2aacd777a4fd7a7f85de8ec01b68992f2dc5f932506d6df6e05a47d  c343.txt' | sha256sum -c -
nhsdp conjugate a343.txt --out c343.json
for f in c343.txt c343.json; do
  test "$(nhsdp verify-pda "$f")" = '(343,9261,9045,343) PDA: valid, 216-regular'
done
# One star of it made symbol 1: the C3 walk along the rows finds
# the fault, and the walk over the flagged symbols names it.
python -c '
from nhsdp.pda import Pda
from nhsdp.serialize import load_pda, pda_to_text
arr = load_pda(open("c343.txt").read())
grid = arr.grid.copy()
assert grid[0, 0] == 0, "c343.txt no longer starts with a star"
grid[0, 0] = 1
open("bad343.txt", "w").write(pda_to_text(Pda(grid, Z=arr.Z, S=arr.S)))
'
set +e
nhsdp verify-pda bad343.txt > bad343.out
code=$?
set -eo pipefail  # as GitHub runs a step's bash
cat bad343.out
test "$code" = 1
test "$(cat bad343.out)" = 'invalid PDA [C3b]: cells (0,0) and (25,25) share symbol 1 but a cross cell is not a star'
python -c '
from nhsdp.serialize import load_pda
txt, js = (load_pda(open(name).read()) for name in ("c343.txt", "c343.json"))
assert (txt.Z, txt.S) == (js.Z, js.S), "c343.txt and c343.json declare different Z, S"
assert txt.grid.shape == js.grid.shape and (txt.grid == js.grid).all(), "c343.txt and c343.json load to different grids"
'
nhsdp construct-nhsdp --v 15 --m 2,1 --out q15.json
nhsdp build-pda q15.json --out q15.txt
python -c '
import numpy as np
from nhsdp.pda import drop_columns
from nhsdp.serialize import load_pda, pda_to_text
arr = drop_columns(load_pda(open("q15.txt").read()), range(14))
assert set(np.bincount(arr.grid.ravel())[1:].tolist()) == {3, 4}, "group sizes are not 3 and 4"
open("e14.txt", "w").write(pda_to_text(arr))
'
nhsdp verify-pda e14.txt
nhsdp simulate e14.txt --N 2 --demands all > all14.out
cat all14.out
grep -qx '16384/16384 demands decoded, load = 2' all14.out
# Symbol groups of 3 and 4: the transcript writer's per-group
# chunking, through the console script.
nhsdp simulate e14.txt --N 2 --demands 0,1,0,1,0,1,0,1,0,1,0,1,0,1 --out tr14.json
python -c '
from nhsdp import FileLibrary, deliver, serialize
arr = serialize.load_pda(open("e14.txt").read())
transcript = deliver(arr, FileLibrary.random(2, arr.F, 16, 0), [k % 2 for k in range(14)])
open("tr14_py.json", "wb").write(serialize.transcript_to_json(transcript).encode())
'
cmp tr14.json tr14_py.json
python -c '
import numpy as np
from nhsdp.pda import drop_columns
from nhsdp.serialize import load_pda, pda_to_text
arr = drop_columns(load_pda(open("q15.txt").read()), range(8))
assert set(np.bincount(arr.grid.ravel())[1:].tolist()) == {1, 2, 3, 4}, "group sizes are not 1 to 4"
open("e8.txt", "w").write(pda_to_text(arr))
'
nhsdp verify-pda e8.txt
nhsdp simulate e8.txt --N 2 --demands all > all8.out
cat all8.out
grep -qx '256/256 demands decoded, load = 1.93333' all8.out
# At N = 3 too: e8's one-cell groups have no tile, so the prefilled
# check alone decides them.
nhsdp simulate e8.txt --N 3 --demands all > all8n3.out
cat all8n3.out
grep -qx '6561/6561 demands decoded, load = 1.93333' all8n3.out
# Groups of one cell beside larger ones: the payload kernel's
# size classes, through the console script.
nhsdp simulate e8.txt --N 2 --demands 0,1,0,1,0,1,0,1 --out tr8.json
python -c '
from nhsdp import FileLibrary, deliver, serialize
arr = serialize.load_pda(open("e8.txt").read())
transcript = deliver(arr, FileLibrary.random(2, arr.F, 16, 0), [k % 2 for k in range(8)])
open("tr8_py.json", "wb").write(serialize.transcript_to_json(transcript).encode())
'
cmp tr8.json tr8_py.json
python -c '
from nhsdp.pda import Pda
from nhsdp.serialize import load_pda, pda_to_text
arr = load_pda(open("p15.txt").read())
grid = arr.grid.copy()
assert grid[0, 0] == 0 and grid[0, 1] != 0, "p15.txt no longer starts with a star and a symbol"
grid[0, 0] = grid[0, 1]
open("bad15.txt", "w").write(pda_to_text(Pda(grid, Z=arr.Z, S=arr.S)))
'
set +e
nhsdp verify-pda bad15.txt > bad15.out
code=$?
set -eo pipefail  # as GitHub runs a step's bash
cat bad15.out
test "$code" = 1 && grep -q '\[C3' bad15.out
# The t-subset array at (20, 5), 310,080 cells: its summary, its
# verdict and its text, byte for byte.
test "$(nhsdp mn-pda --K 20 --t 5 --out mn20.txt)" = 'built (20,15504,3876,38760) PDA'
test "$(nhsdp verify-pda mn20.txt)" = '(20,15504,3876,38760) PDA: valid, 6-regular'
echo '484ecab1fd4bfa4462f5373e46055ac7bc7e4c5ad755f2cb513227c93b51cad9  mn20.txt' | sha256sum -c -
nhsdp compare --schemes NHSDP,MN --K 15 --out t.json
nhsdp compare --schemes MN,WCLC,YTCC,WCCLS,CKSM1,CKSM2,ASK1,ASK2,ZCW,WCWL,XXGL,AST,MR,NHSDP,NHSDP_CONJ --K 255 --out t255.csv
python -c '
import csv
rows = list(csv.DictReader(open("t255.csv")))
names = {row["scheme"] for row in rows}
assert {"CKSM1", "CKSM2"} <= names, f"t255.csv has no CKSM1/CKSM2 rows: {sorted(names)}"
zcw = [dict(kv.split("=") for kv in row["params"].split(";")) for row in rows if row["scheme"] == "ZCW"]
assert zcw and all(int(p["w"]) < int(p["m"]) - 1 for p in zcw), f"t255.csv has a ZCW row at w = m - 1: {zcw}"
'
# The MN, WCWL and MR rows at the top of the sweep, with exact binomials.
nhsdp compare --schemes MN,WCWL,MR --K 4096 --slack 0 --out k4096.csv
python -c '
import csv, math
rows = list(csv.DictReader(open("k4096.csv")))
assert len(rows) == 3 * 4095, f"k4096.csv has {len(rows)} rows, not 3 * 4095"
mid = [row["F"] for row in rows if row["scheme"] == "MN" and row["params"] == "K=4096;t=2048"]
assert mid == [str(math.comb(4096, 2048))], "the MN row at t = 2048 does not have F = C(4096, 2048)"
'
set +e
nhsdp compare --schemes MN --K 4097 2> k4097.err
code=$?
set -eo pipefail  # as GitHub runs a step's bash
cat k4097.err
test "$code" = 2 && grep -q -- '--K' k4097.err
nhsdp ds-search --q 16 --out ds16.json
# q = 6 is answered by theorem: the one pinned line, exit 0, no file.
nhsdp ds-search --q 6 --out d6.json > d6.out
cat d6.out
test "$(cat d6.out)" = 'no (43,7) difference set: search space exhausted' && test ! -e d6.json
set +e
nhsdp ds-search --q 10 2> d10.err
code=$?
set -eo pipefail  # as GitHub runs a step's bash
cat d10.err
test "$code" = 2 && grep -q -- '--q' d10.err
# The n = 5 shift PHF: its verdict, and its JSON byte for byte.
nhsdp ntap --n 5 --out n5.json
test "$(nhsdp phf n5.json --out phf5.json)" = '(3;7776,243,3) PHF: valid'
echo '3f950090bfdaa27714bdf71ceace659291148d4624fcfb3ed25fcaf90f9c61ee  phf5.json' | sha256sum -c -
# The widest NHSDP/NHSDP_CONJ sweep, byte for byte.
nhsdp compare --schemes NHSDP,NHSDP_CONJ --K 2048 --slack 2048 --out k2048.csv
python -c '
import csv, hashlib
assert len(list(csv.DictReader(open("k2048.csv", newline="")))) == 25400, "k2048.csv does not hold 25,400 rows"
digest = hashlib.sha256(open("k2048.csv", "rb").read()).hexdigest()
assert digest == "60782c1993b3c5db1b04dad22980064efc52be69323d469304b625391ed59f49", f"k2048.csv sha256 is {digest}"
'
python -c 'import json; json.load(open("a15.json")); json.load(open("t.json")); json.load(open("ds16.json"))'
python -c '
import json
tr = json.load(open("tr.json"))
txns, L = tr["transmissions"], tr["packet_len"]
assert tr["bytes_on_wire"] == len(txns) * L, "bytes_on_wire is not S * packet_len"
assert all(len(t["payload"]) == 2 * L for t in txns), "a payload is not packet_len bytes of hex"
tr5 = json.load(open("tr5.json"))
assert tr5["bytes_on_wire"] == 30 * 5, "bytes_on_wire is not S * 5 for 5-byte packets"
assert all(len(t["payload"]) == 10 for t in tr5["transmissions"]), "a payload is not 5 bytes of hex"
'
