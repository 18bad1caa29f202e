"""Command-line front end: every pipeline stage with file-based in/outputs.

Human-readable summaries go to stdout; machine formats are only ever written
to ``--out`` paths, so designs flow between subcommands as files.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from pathlib import Path

from . import designs, packing, pda as pda_mod, schemes, serialize, simulate


def _write(path: str | None, payload) -> None:
    """Write payload, or payload(path) for a writer that reads the name, to path if given;
    a path that cannot be written is a usage error naming it."""
    if path:
        text = payload(path) if callable(payload) else payload
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {path}: {exc}")


class _UsageError(Exception):
    pass


def _parse_m(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"--m expects comma-separated integers, got {text!r}")


def _flagged(flag: str, call, *args, **kwargs):
    """call(*args, **kwargs); a value it rejects is a usage error naming flag."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}")


def _load(path: str, parse):
    """parse(text of the file at path); a bad file is a usage error naming it."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}")


def _load_valid_pda(path: str) -> pda_mod.Pda:
    """A PDA file that passes verify_pda; an invalid array exits 1."""
    arr = _load(path, serialize.load_pda)
    verdict = pda_mod.verify_pda(arr)
    if not verdict.ok:
        raise ValueError(f"{path} is not a valid PDA [{verdict.code}]: {verdict.detail}")
    return arr


def _report_pda(what: str, arr: pda_mod.Pda, out: str | None) -> int:
    K, F, Z, S = arr.params()
    print(f"{what} ({K},{F},{Z},{S}) PDA")
    _write(out, partial(serialize.pda_for_path, arr))
    return 0


def _cmd_construct_nhsdp(args) -> int:
    m = _parse_m(args.m)
    packing_obj = _flagged("--m" if min(m) < 1 else "--v", packing.construct_nhsdp, args.v, m)
    verdict = packing_obj.verify()
    if not verdict.ok:
        print(f"construction failed verification: {verdict.detail}", file=sys.stderr)
        return 1
    print(f"({packing_obj.v},{packing_obj.g},{packing_obj.b}) NHSDP: valid")
    _write(args.out, serialize.nhsdp_to_json(packing_obj))
    return 0


def _cmd_verify_nhsdp(args) -> int:
    packing_obj = _load(args.file, serialize.nhsdp_from_json)
    verdict = _flagged(args.file, packing_obj.verify)
    if verdict.ok:
        print(f"({packing_obj.v},{packing_obj.g},{packing_obj.b}) NHSDP: valid")
        return 0
    print(f"invalid NHSDP [{verdict.code}]: {verdict.detail}")
    return 1


def _cmd_solve_params(args) -> int:
    flag = "--n" if args.n < 1 else "--v"  # else no admissible m for this v
    if args.exact:
        m, product = _flagged(flag, packing.solve_problem1_exact, args.v, args.n)
    else:
        m = _flagged(flag, packing.choose_params_closed_form, args.v, args.n)
        product = math.prod(m)
    params = packing.block_params(m)
    print(
        f"v={args.v} n={args.n} m={','.join(str(x) for x in m)} "
        f"product={product} phi={params.phi}"
    )
    solver = "exact" if args.exact else "closed_form"
    _write(args.out, serialize.params_to_json(args.v, args.n, solver, m, product, params.phi))
    return 0


def _cmd_build_pda(args) -> int:
    packing_obj = _load(args.file, serialize.nhsdp_from_json)
    verdict = _flagged(args.file, packing_obj.verify)
    if not verdict.ok:
        raise ValueError(f"{args.file} is not a valid NHSDP [{verdict.code}]: {verdict.detail}")
    arr = _flagged(args.file, pda_mod.pda_from_nhsdp, packing_obj)
    return _report_pda("built", arr, args.out)


def _cmd_verify_pda(args) -> int:
    arr = _load(args.file, serialize.load_pda)
    verdict = pda_mod.verify_pda(arr)
    if verdict.ok:
        stats = pda_mod.pda_stats(arr)
        regular = f", {stats.regular_g}-regular" if stats.regular_g else ""
        print(f"{verdict.detail}: valid{regular}")
        return 0
    print(f"invalid PDA [{verdict.code}]: {verdict.detail}")
    return 1


def _cmd_conjugate(args) -> int:
    arr = _load_valid_pda(args.file)
    conj = _flagged(args.file, pda_mod.conjugate_pda, arr)
    return _report_pda("conjugate is a", conj, args.out)


def _cmd_group(args) -> int:
    arr = _load_valid_pda(args.file)
    grouped = _flagged("--K", pda_mod.group_pda_divisible, arr, args.K)
    return _report_pda("grouped to a", grouped, args.out)


def _cmd_mn_pda(args) -> int:
    arr = _flagged("--K" if 1 <= args.t < args.K else "--t", pda_mod.mn_pda, args.K, args.t)
    return _report_pda("built", arr, args.out)


def _cmd_simulate(args) -> int:
    spec = args.demands
    sweep = spec == "all" or spec.startswith("sample:")
    if sweep and args.out:
        raise _UsageError(
            f"--out: a transcript is written for one demand vector only, not for {spec}"
        )
    if args.N < 1:
        raise _UsageError(f"--N must be at least 1, got {args.N}")
    if args.packet_len < 1:
        raise _UsageError(f"--packet-len must be at least 1, got {args.packet_len}")
    budget = simulate.DEFAULT_DEMAND_BUDGET
    if spec.startswith("sample:"):
        try:
            budget = int(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"--demands: bad sample count in {spec!r}")
    arr = _load_valid_pda(args.file)
    sizes = "--N, --packet-len"  # they size the file library and the caches
    if sweep:
        total = args.N**arr.K
        if spec == "all" and total > budget:
            raise _UsageError(
                f"--demands all would sweep {total} vectors, over {budget}; use sample:COUNT"
            )
        report = _flagged(
            "--demands" if budget < 0 else sizes, simulate.exhaustive_demand_check,
            arr, args.N, args.packet_len, demand_budget=budget, seed=args.seed,
        )
        load = float(report.nominal_load)
        print(f"{report.checked}/{report.total_demands} demands decoded, load = {load:g}")
        if report.failures:
            for demand, user, reason in report.failures[:10]:
                print(f"failure d={demand} user={user}: {reason}", file=sys.stderr)
            return 1
        return 0

    try:
        demand = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise _UsageError(f"--demands expects all, sample:COUNT, or a comma list; got {spec!r}")
    if len(demand) != arr.K:
        raise _UsageError(f"--demands lists {len(demand)} files, {args.file} has K={arr.K} users")
    if any(not (0 <= x < args.N) for x in demand):
        raise _UsageError(f"--demands entries must be file indices in [0, {args.N}) for --N {args.N}")
    _flagged(sizes, simulate._check_sizes, arr, args.N, args.packet_len)
    library = simulate.FileLibrary.random(args.N, arr.F, args.packet_len, args.seed)
    cache = simulate.place(arr, library)
    transcript = simulate.deliver(arr, library, demand)
    files = simulate.decode(cache, transcript)
    bad = [k for k in range(arr.K) if files[k] != library.file_bytes(demand[k])]
    load = transcript.payloads.size / (arr.F * args.packet_len)
    print(f"demand {spec}: {arr.K - len(bad)}/{arr.K} users decoded, load = {load:g}")
    _write(args.out, serialize.transcript_to_json(transcript))
    return 1 if bad else 0


def _cmd_ntap(args) -> int:
    ntap = _flagged("--n", designs.ntap_construct, args.n)
    print(f"NTAP set of size {ntap.size} in Z_{ntap.v}")
    _write(args.out, serialize.ntap_to_json(ntap))
    return 0


def _cmd_phf(args) -> int:
    ntap = _load(args.file, serialize.ntap_from_json)
    phf = _flagged(args.file, designs.phf_from_ntap, ntap)
    verdict = designs.verify_phf(phf)
    if not verdict.ok:
        print(f"constructed array failed verification: {verdict.detail}", file=sys.stderr)
        return 1
    print(f"(3;{phf.m},{phf.q},3) PHF: valid")
    _write(args.out, serialize.phf_to_json(phf))
    return 0


def _cmd_ds_search(args) -> int:
    result = _flagged("--q", packing.ds_search, args.q)
    if result is None:
        v = args.q**2 + args.q + 1
        print(f"no ({v},{args.q + 1}) difference set: search space exhausted")
        return 0
    kind = "DS" if result.is_difference_set else "CDP"
    print(
        f"({result.v},{result.k}) {kind}: "
        f"{{{','.join(str(x) for x in result.elements)}}}"
    )
    _write(args.out, serialize.cdp_to_json(result))
    return 0


def _cmd_compare(args) -> int:
    names = [tok.strip() for tok in args.schemes.split(",")]
    if not 1 <= args.K <= schemes.SWEEP_MAX_K:
        flag = "--K"
    elif args.slack < 0 or args.K + args.slack > schemes.SWEEP_MAX_K:
        flag = "--slack"
    else:
        flag = "--schemes"
    points = _flagged(flag, schemes.tradeoff_sweep, args.K, names, slack=args.slack)
    print(f"{len(points)} scheme points within |K - {args.K}| <= {args.slack}")
    _write(args.out, partial(serialize.scheme_points_for_path, points))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhsdp",
        description="Construct, verify, and simulate packing-based coded-caching designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("construct-nhsdp", _cmd_construct_nhsdp, help="build a packing from v and m")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--m", required=True, help="comma-separated m_1,...,m_n")
    p.add_argument("--out")

    p = add("verify-nhsdp", _cmd_verify_nhsdp, help="verify a packing JSON file")
    p.add_argument("file")

    p = add("solve-params", _cmd_solve_params, help="choose m for given v and n")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="exact maximisation of prod m_i")
    p.add_argument("--out")

    pda_out = "PDA file: JSON if the name ends in .json, else text"
    p = add("build-pda", _cmd_build_pda, help="lift a packing file to a PDA")
    p.add_argument("file")
    p.add_argument("--out", help=pda_out)

    p = add("verify-pda", _cmd_verify_pda, help="verify a PDA file (text or JSON)")
    p.add_argument("file")

    p = add("conjugate", _cmd_conjugate, help="conjugate a PDA file")
    p.add_argument("file")
    p.add_argument("--out", help=pda_out)

    p = add("group", _cmd_group, help="replicate a PDA to a multiple of its users")
    p.add_argument("file")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--out", help=pda_out)

    p = add("mn-pda", _cmd_mn_pda, help="build the t-subset PDA")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", help=pda_out)

    p = add("simulate", _cmd_simulate, help="run placement/delivery/decoding")
    p.add_argument("file")
    p.add_argument("--N", type=int, required=True, help="number of files")
    p.add_argument("--packet-len", type=int, default=simulate.DEFAULT_PACKET_LEN)
    p.add_argument(
        "--demands",
        default="all",
        help="all | sample:COUNT | comma-separated 0-based file indices",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="transcript JSON path (one demand vector only)")

    p = add("ntap", _cmd_ntap, help="build the 2^n-element progression-free set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = add("phf", _cmd_phf, help="expand an NTAP/packing file into a PHF")
    p.add_argument("file")
    p.add_argument("--out")

    p = add("ds-search", _cmd_ds_search, help="build or search for a planar difference set")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")

    p = add("compare", _cmd_compare, help="tabulate scheme points near a user count")
    p.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--slack", type=int, default=8)
    p.add_argument("--out", help="table file: JSON if the name ends in .json, else CSV")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
