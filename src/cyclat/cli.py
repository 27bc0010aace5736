"""Command-line interface.

Subcommands: convert, poset, lattice, check, rank, covers, fc, alpha.
Elements are accepted in any of the three incarnations and detected by
the leading characters: "(" a cycle, "[[" triangular vector rows (and
"[]", the vector of order 1), "[" a window, "{" the JSON object forms
{"n":..,"v":..} / {"n":..,"window":..}.
Exit codes: 0 success, 1 a check failed, 2 usage or parse error, a
refused order, or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from cyclat import affine, checks, poset, vectors
from cyclat.errors import CyclatError
from cyclat.perm import CircularPermutation
from cyclat.vectors import AdmittedVector

FORMS = ("cycle", "vector", "window")


def _load_json(body: str):
    """The one JSON parse of an element text."""
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise CyclatError(f"bad JSON element {body!r}: {exc}") from None
    except RecursionError:
        raise CyclatError("JSON element nested too deeply") from None


def _order(text: str) -> int:
    """The order argument: ASCII digits with an optional leading "-"
    (so that a negative order is refused as below 1, not as a typo)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"order must be a decimal integer, got {text!r}")
    return int(text)


def detect_form(body: str, payload: dict | None) -> str:
    """The form of a stripped element text; `payload` is its parsed JSON
    object when the text is one."""
    if body.startswith("("):
        return "cycle"
    if body.startswith("[[") or re.fullmatch(r"\[[ \t\n\r]*\]", body):
        return "vector"  # an empty window is never valid: [] is order 1's vector
    if payload is not None:
        if "v" in payload:
            return "vector"
        if "window" in payload:
            return "window"
        raise CyclatError('JSON element needs a "v" or "window" key')
    if body.startswith("["):
        return "window"
    raise CyclatError(f"cannot detect the form of {body!r}; use --as")


def parse_element(text: str, form: str | None = None) -> tuple[str, AdmittedVector]:
    """Parse an element in any incarnation; returns (form, vector).

    A JSON object form holds exactly one of "v" and "window", and may
    declare its order as "n", which must agree with the element; any
    other key is refused.
    """
    body = text.strip()
    payload = _load_json(body) if body.startswith("{") else None
    if payload is not None:
        if unknown := sorted(payload.keys() - {"n", "v", "window"}):
            raise CyclatError(f"JSON element has unknown keys {unknown}: {text!r}")
        if "v" in payload and "window" in payload:
            raise CyclatError(f'JSON element holds both "v" and "window": {text!r}')
    form = form or detect_form(body, payload)
    if form == "cycle":
        return form, vectors.cycle_to_vector(CircularPermutation.from_text(body))
    if form not in ("vector", "window"):
        raise CyclatError(f"unknown form {form!r}")
    if payload is not None:
        key = "v" if form == "vector" else "window"
        if key not in payload:
            raise CyclatError(f'JSON {form} element needs a "{key}" key: {text!r}')
    if form == "vector":
        rows = payload["v"] if payload is not None else _load_json(body)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise CyclatError(f"vector form must be a list of rows: {text!r}")
        v = AdmittedVector.from_rows(rows)
    elif payload is not None:
        entries = payload["window"]
        if not isinstance(entries, list) or not all(type(x) is int for x in entries):
            raise CyclatError(f"window must be a list of integers: {text!r}")
        v = affine.vector_of_window(affine.AffineWindow(tuple(entries)))
    else:
        v = affine.vector_of_window(affine.AffineWindow.from_text(body))
    if payload is not None and "n" in payload:
        declared = payload["n"]
        if type(declared) is not int or declared != v.n:
            raise CyclatError(
                f'declared "n": {declared!r} disagrees with the element\'s order {v.n}')
    return form, v


def render_element(v: AdmittedVector, form: str) -> str:
    if form == "cycle":
        return vectors.vector_to_cycle(v).as_text()
    if form == "vector":
        return json.dumps(v.rows(), separators=(",", ":"))
    if form == "window":
        return affine.window_of_vector(v).as_text()
    raise CyclatError(f"unknown form {form!r}")


def _cmd_convert(args) -> int:
    form, v = parse_element(args.element, args.input_form)
    rendered = render_element(v, args.to)
    if args.json:
        _print(json.dumps({"n": v.n, "from": form, "to": args.to,
                           "value": rendered}))
    else:
        _print(rendered)
    return 0


def _write_blocks(handle, pieces) -> None:
    """Write each piece as it arrives: an export's pieces are blocks of
    `poset.EXPORT_BLOCK` rows already, so joining them again would only
    hold more text at once."""
    for piece in pieces:
        handle.write(piece)


def _write(pieces, out: str | None = None) -> None:
    """The one writer of every subcommand's output: the text pieces, one
    write each, to the file `out` or to standard output.  A failure to open,
    write or flush it (a full disk, a closed pipe) is a CyclatError, so
    it exits 2 with a diagnostic."""
    try:
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                _write_blocks(handle, pieces)
        else:
            _write_blocks(sys.stdout, pieces)
            sys.stdout.flush()  # a failed write shows here, not at exit
    except OSError as exc:
        if not out:
            _silence_stdout()
        raise CyclatError(f"cannot write {out or 'standard output'}: "
                          f"{exc.strerror or exc}") from None


def _silence_stdout() -> None:
    """Point the descriptor of standard output at the null device, so
    that the interpreter's flush at exit drops the text still buffered
    instead of failing on it a second time (and exiting 120)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor, so nothing is flushed to one
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _print(*lines: str) -> None:
    """Write each line, and a newline after it, to standard output."""
    _write(line + "\n" for line in lines)


def _cmd_poset(args) -> int:
    # Streamed with no diagram; export_pieces refuses the order before
    # the output is opened, so a refused order leaves no file.
    _write(poset.export_pieces(args.n, args.format), args.out)
    return 0


def _cmd_lattice(args) -> int:
    form, u = parse_element(args.x, args.input_form)
    _, v = parse_element(args.y, args.input_form)
    result = vectors.join(u, v) if args.op == "join" else vectors.meet(u, v)
    if args.json:
        _print(json.dumps({"op": args.op, "result": render_element(result, form)}))
    else:
        _print(render_element(result, form))
    return 0


def _cmd_check(args) -> int:
    reports = (checks.run_all(args.n) if args.name == "all"
               else [checks.run_check(args.name, args.n)])
    if args.json:
        _print(json.dumps([r.to_payload() for r in reports], indent=2))
    else:
        _print(*(r.human() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_rank(args) -> int:
    _, v = parse_element(args.element, args.input_form)
    if args.json:
        _print(json.dumps({"rank": v.rank}))
    else:
        _print(str(v.rank))
    return 0


def _cmd_covers(args) -> int:
    from cyclat.perm import covers_down, covers_up

    _, v = parse_element(args.element, args.input_form)
    sigma = vectors.vector_to_cycle(v)
    payload = {}
    if args.direction in ("up", "both"):
        payload["up"] = [[label.as_pair(), tau.as_text()]
                         for label, tau in covers_up(sigma)]
    if args.direction in ("down", "both"):
        payload["down"] = [[label.as_pair(), tau.as_text()]
                           for label, tau in covers_down(sigma)]
    if args.json:
        _print(json.dumps(payload))
    else:
        lines = []
        for direction, items in payload.items():
            lines.append(f"{direction}:")
            lines += [f"  ({r},{s}) {text}" for (r, s), text in items]
        _print(*lines)
    return 0


def _cmd_fc(args) -> int:
    window = affine.interval_top(args.n)
    if args.json:
        _print(json.dumps({"n": args.n, "window": list(window.entries)}))
    else:
        _print(window.as_text())
    return 0


def _cmd_alpha(args) -> int:
    _, u = parse_element(args.sigma, args.input_form)
    _, v = parse_element(args.tau, args.input_form)
    sigma = vectors.vector_to_cycle(u)
    tau = vectors.vector_to_cycle(v)
    if not u <= v:
        raise CyclatError(f"{sigma} is not below {tau}; no upward path exists")
    chain = _greedy_chain(u, v)
    result = poset.path_conjugator(sigma, chain)
    word = ",".join(str(a) for a in result.alpha)
    if args.json:
        _print(json.dumps({"alpha": list(result.alpha),
                           "labels": [label.as_pair() for label in chain]}))
    else:
        _print(word)
    return 0


def _greedy_chain(u: AdmittedVector, v: AdmittedVector):
    """First-label saturated chain from u up to v (requires u <= v)."""
    from cyclat.perm import covers_up

    chain = []
    current = u
    while current != v:
        sigma = vectors.vector_to_cycle(current)
        for label, tau in covers_up(sigma):
            candidate = vectors.cycle_to_vector(tau)
            if candidate <= v:
                chain.append(label)
                current = candidate
                break
        else:  # unreachable: the order is a lattice
            raise CyclatError("no cover stays below the target")
    return chain


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclat",
        description="The graded lattice of circular permutations: conversions, "
                    "lattice operations, diagram export, and verification checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_form(p):
        p.add_argument("--as", dest="input_form", choices=FORMS, default=None,
                       help="force the input incarnation instead of detecting it")

    p = sub.add_parser("convert", help="convert an element between incarnations")
    p.add_argument("element")
    p.add_argument("--to", required=True, choices=FORMS)
    p.add_argument("--json", action="store_true")
    add_input_form(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("poset", help="export the full diagram for an order")
    p.add_argument("n", type=_order)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("lattice", help="join or meet of two elements")
    p.add_argument("op", choices=("join", "meet"))
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    add_input_form(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("check", help="run structural verification checks")
    p.add_argument("name", help="check name or 'all'; see cyclat.checks.CHECKS")
    p.add_argument("n", type=_order)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rank", help="rank of an element")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")
    add_input_form(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("covers", help="covers above/below an element")
    p.add_argument("element")
    p.add_argument("--direction", choices=("up", "down", "both"), default="both")
    p.add_argument("--json", action="store_true")
    add_input_form(p)
    p.set_defaults(func=_cmd_covers)

    p = sub.add_parser("fc", help="top window of the affine interval")
    p.add_argument("n", type=_order)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fc)

    p = sub.add_parser("alpha", help="conjugating permutation of an upward path")
    p.add_argument("sigma")
    p.add_argument("tau")
    p.add_argument("--json", action="store_true")
    add_input_form(p)
    p.set_defaults(func=_cmd_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CyclatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
