"""Command line front end.

Subcommands: reduce, prod, basis, table, check, demo.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 parse or config
error or stdout closed early, 2 reduction outside the normal-word span, 3
axiom violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import shutil
import sys
from fractions import Fraction

from . import checks
from .exprs import ParseError, evaluate, evaluate_pseudo, parse
from .freeconf import ENGINES, ConfElement, FreeConformal, NotInSpan
from .linear import accumulate, exact, integral
from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word, deglex_key
from .pseudo import COACTIONS, PElement, ProductKind, PseudoAlgebra, current_coaction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_IN_SPAN = 2
EXIT_AXIOM = 3

MODES = ("conformal", "pseudo-commutative")

# Largest listings, in letters: basis prints each word's letters, and table
# multiplies two words per cell.  Both know their sizes from basis_count
# before they enumerate anything, and refuse above these caps (exit 1),
# where they would build and sort every word before their first line.
MAX_BASIS_LETTERS = 1_000_000
MAX_TABLE_LETTERS = 10_000_000


class UsageError(Exception):
    """Bad flags, config files, or input shapes; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own errors; that code is taken
    def error(self, message):
        raise UsageError(message)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _read_json(path: str, what: str):
    """The JSON value in the file at path.  A file that is not UTF-8 or
    nests too deeply for the parser is not valid JSON either."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str) -> tuple[AlgebraConfig, str]:
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    mode = raw.get("mode", "conformal")
    if mode not in MODES:
        raise UsageError(f"unknown mode: {mode!r}")
    gens = raw.get("generators")
    if not isinstance(gens, list) or not gens:
        raise UsageError("config needs a nonempty generators list")
    localities: dict[str, int] = {}
    for item in gens:
        if not isinstance(item, dict) or "name" not in item or "locality" not in item:
            raise UsageError("each generator entry needs name and locality")
        name = item["name"]
        if not isinstance(name, str):
            raise UsageError("generator names must be strings")
        if name in localities:
            raise UsageError(f"duplicate generator: {name!r}")
        localities[name] = item["locality"]
    order = raw.get("order")
    if order is not None and not (
        isinstance(order, list) and all(isinstance(x, str) for x in order)
    ):
        raise UsageError("order must be a list of generator names")
    try:
        alg = AlgebraConfig(
            localities, order=order, commutative=(mode == "pseudo-commutative")
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    return alg, mode


def pelement_to_json(alg: AlgebraConfig, p: PElement) -> list:
    out = []
    for d in sorted(p.parts):
        f = p.parts[d]
        words = sorted(f.terms.items(), key=lambda kv: deglex_key(kv[0]))
        out.append(
            {
                "d": d,
                "terms": [
                    {"coeff": str(c), "word": list(alg.word_names(w))}
                    for w, c in words
                ],
            }
        )
    return out


def pelement_from_json(alg: AlgebraConfig, raw) -> PElement:
    if not isinstance(raw, dict) or not isinstance(raw.get("parts"), list):
        raise UsageError('raw element must be {"parts": [{"d": ..., "terms": [...]}]}')
    parts: dict[int, NCPoly] = {}
    try:
        for part in raw["parts"]:
            d = integral(part["d"])
            if d < 0:
                raise ValueError(f"negative D-degree: {d}")
            terms: dict[Word, Fraction] = {}
            for t in part["terms"]:
                word = t["word"]
                # a string would pass as its letters: "vvb" is not ["v", "v", "b"]
                if not isinstance(word, list) or not all(isinstance(nm, str) for nm in word):
                    raise TypeError(f"a word must be a list of letter names, not {word!r}")
                accumulate(terms, alg.word(word), exact(t["coeff"]))
            accumulate(parts, d, NCPoly(alg, terms))
        return PElement(alg, parts)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, ConfigError) as exc:
        raise UsageError(f"bad raw element: {exc}") from exc


def _print_element(fc: FreeConformal, x: ConfElement) -> None:
    print(fc.element_to_text(x))
    print(dump_json(fc.element_to_json(x)))


def _print_pelement(alg: AlgebraConfig, p: PElement) -> None:
    print(repr(p))
    print(dump_json(pelement_to_json(alg, p)))


def cmd_reduce(args) -> int:
    alg, _ = load_config(args.config)
    fc = FreeConformal(alg)
    if (args.expr is None) == (args.raw_element is None):
        raise UsageError("reduce needs exactly one of --expr or --raw-element")
    if args.expr is not None:
        x = evaluate(fc, parse(args.expr), engine=args.engine or "realize")
    elif args.engine == "rewrite":
        raise UsageError("--raw-element reduces through realize: the rewrite engine has no embedding")
    else:
        x = fc.reduce(pelement_from_json(alg, _read_json(args.raw_element, "raw element")))
    _print_element(fc, x)
    return EXIT_OK


def cmd_prod(args) -> int:
    alg, mode = load_config(args.config)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    if mode == "conformal":
        engine = args.engine or "realize"
        fc = FreeConformal(alg)
        left = evaluate(fc, parse(args.left), engine=engine)
        right = evaluate(fc, parse(args.right), engine=engine)
        prod, _ = fc.engine(engine)
        _print_element(fc, prod(left, args.n, right))
    elif args.engine is not None:
        raise UsageError(
            "--engine needs mode \"conformal\"; a pseudo-commutative prod is "
            "the P20 product of the pseudoalgebra, under no engine"
        )
    else:
        pa = PseudoAlgebra(alg)
        left = evaluate_pseudo(pa, parse(args.left))
        right = evaluate_pseudo(pa, parse(args.right))
        _print_pelement(alg, pa.nth(ProductKind.P20, left, args.n, right))
    return EXIT_OK


def _basis_size(fc: FreeConformal, max_k: int, cap: int) -> tuple[int, int]:
    """(words, letters) of the D-free normal words with at most max_k
    products, summed from basis_count.  The sum stops once letters passes
    cap, which takes fewer than cap steps however large max_k is."""
    words = letters = 0
    for k in range(max_k + 1):
        count = fc.basis_count(k)
        words += count
        letters += count * (k + 1)
        if letters > cap:
            break
    return words, letters


def cmd_basis(args) -> int:
    fc = FreeConformal(load_config(args.config)[0])
    if args.max_k < 0 or args.max_s < 0:
        raise UsageError("--max-k and --max-s must be nonnegative")
    _, letters = _basis_size(fc, args.max_k, MAX_BASIS_LETTERS)
    if letters * (args.max_s + 1) > MAX_BASIS_LETTERS:
        raise UsageError(
            f"basis would list more than {MAX_BASIS_LETTERS} letters; "
            "lower --max-k or --max-s"
        )
    words = fc.enumerate_basis(args.max_k, args.max_s)
    counts = []
    for k in range(args.max_k + 1):
        dfree = sum(1 for u in words if u.s == 0 and len(u.indices) == k)
        expected = fc.basis_count(k)
        if dfree != expected:
            raise RuntimeError(f"enumeration mismatch at k={k}: {dfree} != {expected}")
        counts.append({"k": k, "dfree": dfree})
        print(f"k={k}: {dfree} D-free normal words")
    words = sorted(words, key=fc.sort_key)
    print(dump_json({"counts": counts, "total": len(words), "words": [fc.word_to_json(u) for u in words]}))
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (taskset narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rendered_rows(fc: FreeConformal, words: list, ns: range, engine: str, rights: list):
    """The rendered table over words x ns x rights: one tuple of cell texts
    per (u, n) row, w fastest."""
    text, terms = fc.word_to_json_text, fc._terms_to_json_text  # each text kept on its word
    # dump_json of {"left", "n", "right", "value"}: the keys are already in
    # sorted order, and so are the value's terms (table_rows)
    cells = (
        f'{{"left":{text(u)},"n":{n},"right":{text(w)},"value":{terms(value.terms.items())}}}'
        for u, n, w, value in fc.table_rows(words, ns, engine, rights)
    )
    return zip(*[cells] * len(rights))


def _receive(reader) -> list:
    """The cell texts of the child's next row, one tab-joined line."""
    line = reader.readline()
    if not line.endswith("\n"):
        raise RuntimeError("the table's second process ended before sending every row")
    if line.startswith("!"):
        raise RuntimeError(f"the table's second process failed: {line[1:-1]}")
    return line[:-1].split("\t")


def _fork_odd_columns(fc: FreeConformal, words: list, ns: range, engine: str):
    """(pid, reader) of a forked child that renders the columns words[1::2]
    and sends each row as one line, its cell texts joined by tabs, or (None,
    None) if no child could start.  No cell text holds a tab or a newline:
    config names are ASCII identifiers.

    The child never touches sys.stdout and leaves through os._exit, so no
    buffer or exit handler it inherits runs twice.  It reports an exception
    as one line, "!" and the text with its newlines made spaces, and exits
    1.  Both ends take a newline alone as a line end, so a carriage return
    in that text splits nothing.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN at the process limit: one process does it all
        os.close(r)
        os.close(w)
        return None, None
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "r", encoding="utf-8", errors="replace", newline="\n")
    code = 1
    try:
        os.close(r)
        with os.fdopen(w, "w", encoding="utf-8", errors="replace", newline="\n") as out:
            try:
                for row in _rendered_rows(fc, words, ns, engine, words[1::2]):
                    out.write("\t".join(row) + "\n")
                    out.flush()
                code = 0
            except BaseException as exc:  # the child's last word: os._exit follows
                out.write(f"!{type(exc).__name__}: {exc}".replace("\n", " ") + "\n")
    finally:
        os._exit(code)


def cmd_table(args) -> int:
    fc = FreeConformal(load_config(args.config)[0])
    if args.max_n < 0 or args.max_k < 0:
        raise UsageError("--max-n and --max-k must be nonnegative")
    words, letters = _basis_size(fc, args.max_k, MAX_TABLE_LETTERS)
    # each word meets every word once per n, on either side
    if 2 * words * letters * (args.max_n + 1) > MAX_TABLE_LETTERS:
        raise UsageError(
            f"table would multiply more than {MAX_TABLE_LETTERS} letters; "
            "lower --max-k or --max-n"
        )
    words = sorted(fc.enumerate_basis(args.max_k, 0), key=fc.sort_key)
    ns = range(args.max_n + 1)
    # Two processes when a second CPU is usable: a forked child takes the odd
    # columns of every row and sends each row's back as a line of text, and
    # this one takes the even ones and interleaves the two.  Each computes its
    # own columns of a row's shared block, where split rows would compute a
    # block that spans both halves twice, and interleaving gives each words
    # of every length.  fork copies the calling thread alone, so a second
    # live thread rules it out: threading counts every thread it started,
    # and none was started if it is not loaded.
    threading = sys.modules.get("threading")
    pid = reader = None
    if (
        len(words) > 1
        and hasattr(os, "fork")
        and (threading is None or threading.active_count() == 1)
        and _usable_cpus() > 1
    ):
        pid, reader = _fork_odd_columns(fc, words, ns, args.engine)
    try:
        write = sys.stdout.write
        write("[")
        sep = ""
        for cells in _rendered_rows(fc, words, ns, args.engine, words[0::2] if pid else words):
            if pid:
                row = [""] * len(words)
                row[0::2], row[1::2] = cells, _receive(reader)
                cells = row
            write(sep + ",".join(cells))
            sep = ","
        write("]\n")
    finally:
        if pid:
            import signal

            reader.close()
            os.kill(pid, signal.SIGKILL)  # a no-op on a child that has exited
            os.waitpid(pid, 0)
    return EXIT_OK


def cmd_check(args) -> int:
    alg, _ = load_config(args.config)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    label, failure = checks.run(alg, args.axiom, args.trials, args.seed, args.coaction)
    if failure is None:
        count = f"{label}, {args.trials} trials each" if label else f"{args.trials} trials"
        print(f"axiom {args.axiom}: PASS ({count}, seed {args.seed})")
        return EXIT_OK
    trial, case, detail = failure
    where = f"{case}, trial {trial}" if case else f"trial {trial}"
    print(f"axiom {args.axiom}: FAIL ({where}): {detail}")
    print("replay: " + shlex.join([
        "confalg", "check", "--config", args.config, "--axiom", args.axiom,
        "--coaction", args.coaction, "--seed", str(args.seed), "--trials", str(trial + 1),
    ]))
    return EXIT_AXIOM


def cmd_demo(args) -> int:
    which = args.which
    if which == "current":
        alg = AlgebraConfig({"a": 1, "b": 1})
        pa = PseudoAlgebra(alg, current_coaction)
        xa = PElement(alg, {0: alg.monomial(("a",))})
        xb = PElement(alg, {0: alg.monomial(("b",))})
        print("current: trivial coaction, the 0-th product is the algebra product")
        for n in range(2):
            print(f"current: (1(x)a) .{n} (1(x)b) = {pa.nth(ProductKind.P8, xa, n, xb)!r}")
        return EXIT_OK
    alg = AlgebraConfig({"a": 1})  # only the letter v is used below
    pa = PseudoAlgebra(alg)
    if which == "weyl":
        x = PElement(alg, {0: alg.monomial(("v",))})
        print(f"weyl: x = {x!r}")
        for n in range(3):
            print(f"weyl: x .{n} x = {pa.nth(ProductKind.P8, x, n, x)!r}")
        return EXIT_OK
    L = PElement(alg, {0: alg.monomial(("v",), -1)})
    print(f"virasoro: L = {L!r}")
    for n in range(4):
        print(f"virasoro: [L .{n} L] = {pa.comm_nth(L, n, L)!r}")
    print(f"virasoro: D L = {L.d_shift(1)!r}")
    print(f"virasoro: 2 L = {L.scale(2)!r}")
    return EXIT_OK


def build_parser() -> _Parser:
    # one width read per build: argparse makes a formatter per argument, each reading it
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(
        prog="confalg",
        formatter_class=formatter,
        description=(
            "Exact computations in free associative conformal algebras. "
            "The infix product (x .n y) stands for the n-th conformal "
            "product of x and y; D^k(x) applies the derivation k times."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(_Parser, formatter_class=formatter),
    )

    p = sub.add_parser("reduce", help="evaluate an expression to its normal form")
    p.add_argument("--config", required=True)
    p.add_argument("--expr")
    p.add_argument("--raw-element", help="JSON file with an H (x) F(B) element to reduce")
    p.add_argument("--engine", choices=ENGINES)  # no default: see cmd_reduce
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("prod", help="n-th product of two expressions")
    p.add_argument("--config", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--right", required=True)
    # no default: a pseudo-commutative config refuses the flag (realize is
    # the conformal default)
    p.add_argument("--engine", choices=ENGINES)
    p.set_defaults(func=cmd_prod)

    p = sub.add_parser("basis", help="enumerate normal words and count them")
    p.add_argument("--config", required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--max-s", type=int, default=0)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("table", help="structure constants for enumerated words")
    p.add_argument("--config", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--engine", choices=ENGINES, default="realize")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="randomized axiom checks")
    p.add_argument("--config", required=True)
    p.add_argument("--axiom", choices=checks.AXIOMS, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coaction", choices=sorted(COACTIONS), default="standard")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("demo", help="worked examples: current, weyl, virasoro")
    p.add_argument("which", choices=("current", "weyl", "virasoro"))
    p.set_defaults(func=cmd_demo)

    return parser


def _drop_stdout() -> None:
    """Send what is left for stdout, whose reader closed it early, to the
    null device, so that the interpreter's flush at exit does not fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a StringIO has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    # Exact values print and parse in full, however many digits they have:
    # lift the interpreter's cap on int <-> decimal string conversion (4300
    # digits by default, on Pythons that have one) for the length of the call.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help printed: flush inside the guard, not at exit
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()  # so that a reader who left shows here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_USAGE
    except (UsageError, ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotInSpan as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_SPAN
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
