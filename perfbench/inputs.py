"""Seeded input generation for every workload.

The same seed always yields the same files and the same request or edit
stream. Sizes and family mixes are fixed; the seed picks the members,
their order and the edits, so total work varies little between seeds
while the concrete programs do.

Program classes (``cls``) drive the correctness check on degraded
results: ``unbounded`` programs self-apply (LC' dom/ran towers trip the
hybrid node budget) and ``untypeable`` ones use a datatype in a type
error (inference fails); both must come back ``degraded``, every other
class must not.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Iterator, List, NamedTuple, Tuple

from common import ROOT

#: The example programs the CLI workload draws from (a fixed list, so
#: adding an example to the repository does not change the workload).
EXAMPLES = (
    "datatype_map.lam",
    "effects_demo.lam",
    "joinpoint.lam",
    "letrec_lints.lam",
    "lint_showcase.lam",
    "record_lints.lam",
    "worked_example.lam",
)

DEGRADED_CLASSES = ("unbounded", "untypeable")


class Source(NamedTuple):
    """One generated program: datatype declarations, the expression,
    and the generator class it was built as."""

    name: str
    decls: str
    body: str
    cls: str

    @property
    def text(self) -> str:
        return (self.decls + "\n" if self.decls else "") + self.body + "\n"

    def edited(self, tag: int) -> "Source":
        """A semantically different variant (a fresh outer binding), so
        the edit defeats the content-addressed cache."""
        body = f"let edit{tag} = {tag} in\n(\n{self.body}\n)"
        return Source(self.name, self.decls, body, self.cls)


def _split(program) -> Tuple[str, str]:
    from repro.lang.printer import pretty, pretty_program

    body = pretty(program.root)
    whole = pretty_program(program)
    return whole[: len(whole) - len(body)].rstrip("\n"), body


def _banded(rng: random.Random, fuel: int, **options):
    """A random typed program whose size is within 15% of the typical
    size for ``fuel``: the generator's sizes vary a hundredfold, and a
    corpus whose total work swings with the seed measures the seed."""
    from repro.workloads import random_typed_program

    target = 1.1 * fuel + 5
    best = None
    for _ in range(400):
        program = random_typed_program(rng.randrange(10**9), fuel=fuel, **options)
        miss = abs(program.size - target) / target
        if best is None or miss < best[0]:
            best = (miss, program)
        if miss <= 0.15:
            break
    return best[1]


def _typed(name: str, rng: random.Random, fuel: int) -> Source:
    decls, body = _split(_banded(rng, fuel))
    return Source(name, decls, body, "typed")


def _pad(rng: random.Random, fuel: int) -> str:
    from repro.lang.printer import pretty

    return pretty(_banded(rng, fuel, use_datatypes=False).root)


def _unbounded(name: str, rng: random.Random, fuel: int, k: int) -> Source:
    body = (
        f"let pad{k} = {_pad(rng, fuel)} in\n"
        f"let d{k} = fn[w{k}] x => x x x in d{k} d{k}"
    )
    return Source(name, "", body, "unbounded")


def _untypeable(name: str, rng: random.Random, fuel: int, k: int) -> Source:
    decls = f"datatype t{k} = A{k} | B{k} of int;"
    body = (
        f"let pad{k} = {_pad(rng, fuel)} in\n"
        f"(fn[a{k}] x => x + 1) (B{k} (fn[b{k}] y => y))"
    )
    return Source(name, decls, body, "untypeable")


def _synthetic(name: str, blocks: int, style: str) -> Source:
    from repro.workloads import make_synthetic_program

    decls, body = _split(make_synthetic_program(blocks, style))
    return Source(name, decls, body, style)


def _cubic(name: str, n: int) -> Source:
    from repro.workloads import make_cubic_source

    return Source(name, "", make_cubic_source(n).strip(), "cubic")


def _church(name: str, n: int) -> Source:
    from repro.workloads import make_church_program

    decls, body = _split(make_church_program(n))
    return Source(name, decls, body, "church")


def _example(name: str) -> Source:
    with open(os.path.join(ROOT, "examples", name), encoding="utf-8") as fh:
        text = fh.read().strip()
    return Source(name, "", text, "example")


# -- cli-oneshot --------------------------------------------------------------


def cli_programs(seed: int) -> List[Source]:
    """The examples plus eight small generated programs."""
    rng = random.Random(f"cli/{seed}")
    programs = [_example(name) for name in EXAMPLES]
    for i, fuel in enumerate((10, 15, 20, 30)):
        programs.append(_typed(f"gen_typed{i}.lam", rng, fuel))
    programs.append(_cubic("gen_cubic.lam", rng.randint(2, 6)))
    programs.append(_church("gen_church.lam", rng.randint(2, 5)))
    programs.append(_unbounded("gen_unbounded.lam", rng, 8, 0))
    programs.append(_untypeable("gen_untypeable.lam", rng, 8, 0))
    return programs


def cli_requests(seed: int, programs: List[Source]) -> Iterator[Tuple[str, Source]]:
    """Endless seeded stream of (command, program). ``analyze`` runs the
    default LC' engine, which is only total on typeable programs; the
    degrading classes are linted (the hybrid engine falls back)."""
    rng = random.Random(f"cli-stream/{seed}")
    while True:
        program = rng.choice(programs)
        if program.cls in DEGRADED_CLASSES or rng.random() < 0.5:
            yield "lint", program
        else:
            yield "analyze", program


# -- batch-corpus -------------------------------------------------------------

#: Fixed family mix of the corpus (the seed picks members and order).
TYPED_FUELS = (60, 120, 180, 240, 300, 360) * 4
SYNTHETIC = (("life", 5), ("life", 10), ("life", 20), ("life", 30),
             ("lexgen", 8), ("lexgen", 16), ("lexgen", 24), ("lexgen", 38))
CUBIC_SIZES = (20, 30, 40, 50, 60, 70)
CHURCH_SIZES = (5, 10, 15, 20)
DEGRADED_EACH = 4
DUPLICATES = 8
EDIT_FRACTION = 0.25


def batch_corpus(seed: int) -> List[Source]:
    """About 60 programs; ``dup_*`` files are exact copies of typed ones."""
    rng = random.Random(f"batch/{seed}")
    corpus: List[Source] = []
    for i, fuel in enumerate(TYPED_FUELS):
        corpus.append(_typed(f"typed{i:02d}.lam", rng, fuel))
    for style, blocks in SYNTHETIC:
        corpus.append(_synthetic(f"{style}{blocks}.lam", blocks, style))
    for n in CUBIC_SIZES:
        corpus.append(_cubic(f"cubic{n:02d}.lam", n))
    for n in CHURCH_SIZES:
        corpus.append(_church(f"church{n}.lam", n))
    for k in range(DEGRADED_EACH):
        fuel = (10, 30, 60, 90)[k]
        corpus.append(_unbounded(f"unbounded{k}.lam", rng, fuel, k))
        corpus.append(_untypeable(f"untypeable{k}.lam", rng, fuel, k))
    typed = [s for s in corpus if s.cls == "typed"]
    for i, original in enumerate(rng.sample(typed, DUPLICATES)):
        corpus.append(original._replace(name=f"dup{i}_{original.name}"))
    rng.shuffle(corpus)
    return corpus


def batch_edits(seed: int, corpus: List[Source]) -> Dict[str, Source]:
    """The seeded share of files a user edits between the two passes."""
    rng = random.Random(f"batch-edits/{seed}")
    count = round(EDIT_FRACTION * len(corpus))
    chosen = rng.sample(sorted(corpus, key=lambda s: s.name), count)
    return {s.name: s.edited(rng.randrange(1, 10**4)) for s in chosen}


# -- daemon-session -----------------------------------------------------------

#: Project shape: the paper's cubic family, one binding at a time.
CUBIC_N = 45
TEMPS = 3
#: Edits per cycle, by the delta mode each is built to land in.
CYCLE = (("splice", 13), ("delta", 5), ("append", 3), ("undefine", 3))
LINT_EVERY = 5
#: A rename-shift (full replay) edit every this many cycles.
REPLAY_EVERY_CYCLES = 2


class Op(NamedTuple):
    verb: str          # define | undefine | query | lint | analyze
    name: str = ""
    source: str = ""
    expect: str = ""   # the delta mode a mutation is built to land in
    cycle: int = 0


class DaemonProject:
    """The harness's model of the project, used to generate valid edits
    (names only refer to earlier definitions)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"daemon/{seed}")
        self.x: Dict[int, Tuple[bool, int, int]] = {}
        self.y: Dict[int, Tuple[int, int]] = {}
        self.binder: Dict[int, str] = {}
        self.temps: List[int] = []
        self.next_temp = 0

    def x_source(self, i: int) -> str:
        wrapped, j, k = self.x[i]
        inner = f"b{j} (fs f{k})"
        return f"bs ({inner})" if wrapped else inner

    def y_source(self, i: int) -> str:
        j, k = self.y[i]
        return f"(bs b{j}) f{k}"

    def f_source(self, i: int) -> str:
        v = self.binder[i]
        return f"fn[f{i}] {v} => {v}"

    def temp_source(self) -> str:
        j = self.rng.randint(1, CUBIC_N)
        k = self.rng.randint(1, CUBIC_N)
        return f"b{j} (fs f{k})"

    def initial(self) -> List[Tuple[str, str]]:
        rng = self.rng
        defs = [("fs", "fn[fs] x => x"), ("bs", "fn[bs] x => x")]
        for i in range(1, CUBIC_N + 1):
            self.binder[i] = "x"
            self.x[i] = (rng.random() < 0.3, i, i)
            self.y[i] = (i, i)
            defs.append((f"f{i}", self.f_source(i)))
            defs.append((f"b{i}", f"fn[b{i}] x => x"))
            defs.append((f"x{i}", self.x_source(i)))
            defs.append((f"y{i}", self.y_source(i)))
        for _ in range(TEMPS):
            defs.append(self._append())
        return defs

    def _append(self) -> Tuple[str, str]:
        name = f"t{self.next_temp}"
        self.next_temp += 1
        self.temps.append(int(name[1:]))
        return name, self.temp_source()

    def _edit(self, kind: str, cycle: int) -> Op:
        rng = self.rng
        if kind == "append":
            name, source = self._append()
            return Op("define", name, source, "append", cycle)
        if kind == "undefine":
            name = f"t{self.temps.pop(0)}"
            return Op("undefine", name, "", "delta", cycle)
        if kind == "replay":
            i = rng.randint(1, CUBIC_N)
            self.binder[i] = "q" if self.binder[i] == "x" else "x"
            return Op("define", f"f{i}", self.f_source(i), "replay", cycle)
        i = rng.randint(2, CUBIC_N)
        if kind == "delta":
            wrapped, j, k = self.x[i]
            self.x[i] = (not wrapped, j, k)
            return Op("define", f"x{i}", self.x_source(i), "delta", cycle)
        # splice: same shape, different earlier names
        if rng.random() < 0.5:
            wrapped, j, k = self.x[i]
            while (j, k) == self.x[i][1:]:
                j, k = rng.randint(1, i), rng.randint(1, i)
            self.x[i] = (wrapped, j, k)
            return Op("define", f"x{i}", self.x_source(i), "splice", cycle)
        j, k = self.y[i]
        while (j, k) == self.y[i]:
            j, k = rng.randint(1, i), rng.randint(1, i)
        self.y[i] = (j, k)
        return Op("define", f"y{i}", self.y_source(i), "splice", cycle)

    def stream(self) -> Iterator[Op]:
        """Endless closed-loop stream: every edit is followed by a query,
        every ``LINT_EVERY`` edits by a lint, every cycle by an analyze.
        Every cycle lands splice, delta and append edits; every
        ``REPLAY_EVERY_CYCLES`` cycles (the first included) one edit is
        a rename-shift that forces a full replay."""
        rng = self.rng
        cycle = 0
        edits = 0
        while True:
            kinds = [kind for kind, n in CYCLE for _ in range(n)]
            if cycle % REPLAY_EVERY_CYCLES == 0:
                kinds.append("replay")
            rng.shuffle(kinds)
            for kind in kinds:
                op = self._edit(kind, cycle)
                yield op
                edits += 1
                query = op.name
                if op.verb == "undefine":
                    query = f"x{rng.randint(1, CUBIC_N)}"
                yield Op("query", query, "", "", cycle)
                if edits % LINT_EVERY == 0:
                    yield Op("lint", "", "", "", cycle)
            yield Op("analyze", "", "", "", cycle)
            cycle += 1


def daemon_stream_prefix(seed: int, cycles: int) -> Tuple[List[Tuple[str, str]], List[Op]]:
    """The initial project and the first ``cycles`` cycles of edits."""
    project = DaemonProject(seed)
    initial = project.initial()
    ops: List[Op] = []
    for op in project.stream():
        if op.cycle >= cycles:
            break
        ops.append(op)
    return initial, ops
