"""`cli`: sequential `python -m wordrep.cli` processes over small inputs.

Process start-up, `import wordrep`, argparse and report writing dominate.
Each operation is one process, run to completion before the next starts.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations

import oracles as o
from harness import Failed, Op, spread
from wl_construct import PETERSEN_WORD, random_word

PROCESS_TIMEOUT_S = 120
REPEATS = 10  # deterministic commands run a second time in each pass


@dataclass
class Command:
    sub: str  # subcommand, names the per-layer metric
    argv: list
    code: int  # documented exit code
    check: object = None  # fn(report, stdout, out_text) -> error or None
    out: str | None = None  # file the command writes


@dataclass
class State:
    workdir: str
    env: dict
    ops: list = field(default_factory=list)


def report(stdout: str) -> dict:
    rep: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in rep:
            rep[key] = value
    return rep


def word_check(labs, edges, k=None, key="word"):
    def check(rep, stdout, out_text):
        if key not in rep:
            return f"no {key} line"
        return o.word_error(rep[key].split(), labs, edges, k=k)
    return check


def graph_file_check(labs, edges):
    def check(rep, stdout, out_text):
        got_labs, got_edges = o.read_graph_text(out_text)
        if sorted(got_labs) != sorted(labs) or got_edges != o.edge_set(edges):
            return "written graph differs from the family definition"
        return None
    return check


def expect_lines(**want):
    def check(rep, stdout, out_text):
        for key, value in want.items():
            key = key.replace("_", "-")
            if rep.get(key) != value:
                return f"{key}: {rep.get(key)!r}, want {value!r}"
        return None
    return check


def both(*checks):
    def check(rep, stdout, out_text):
        for c in checks:
            err = c(rep, stdout, out_text)
            if err:
                return err
        return None
    return check


def write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    labs = o.names(n)
    return labs, [e for e in combinations(labs, 2) if rng.random() < p]


def commands(rng: random.Random, wd: str) -> list[Command]:
    cmds: list[Command] = []
    families = [("cycle", 4 + rng.randrange(5), o.cycle), ("prism", 3 + rng.randrange(2), o.prism),
                ("ladder", 2 + rng.randrange(4), o.ladder), ("crown", 2 + rng.randrange(3), o.crown),
                ("complete", 3 + rng.randrange(4), o.complete), ("path", 2 + rng.randrange(5), o.path),
                ("cycle", 9 + rng.randrange(3), o.cycle), ("ladder", 6, o.ladder),
                ("crown", 5, o.crown), ("petersen", 10, None)]
    for i, (fam, size, build) in enumerate(families):
        labs, edges = build(size) if build else o.PETERSEN
        out = f"b{i}.graph"
        cmds.append(Command("build", ["build", fam, str(size), "--out", out], 0,
                            graph_file_check(labs, edges), out))
    labs, edges = o.prism(3)
    cmds.append(Command("build", ["build", "prism", "3"], 0,
                        lambda rep, stdout, _t, le=(labs, edges): graph_file_check(*le)(rep, "", stdout)))

    for i in range(14):
        letters = random_word(rng, 5 + i % 3, 2 + i % 2)
        labs = list(dict.fromkeys(letters))
        alt = o.alternating_pairs(letters)
        true = i % 2 == 0
        edges = alt if true else alt ^ {frozenset(rng.sample(labs, 2))}
        gfile = write(wd, f"c{i}.graph", o.write_graph_text(labs, [sorted(e) for e in edges]))
        argv = ["check", "--word", " ".join(letters), "--graph", gfile]
        if true:
            cmds.append(Command("check", argv, 0, expect_lines(result="true")))
        else:
            fmt = lambda s: " ".join(",".join(p) for p in sorted(tuple(sorted(e)) for e in s)) or "-"
            cmds.append(Command("check", argv, 1, expect_lines(
                result="false", extra_edges=fmt(alt - edges), missing_edges=fmt(edges - alt))))

    circle = [o.cycle(5), o.cycle(6), o.cycle(7), o.ladder(3), o.crown(3)]
    for i, (labs, edges) in enumerate(circle):
        gfile = write(wd, f"f{i}.graph", o.write_graph_text(labs, edges))
        cmds.append(Command("find", ["find", "--graph", gfile, "--k", "2"], 0,
                            both(expect_lines(status="witness-found"),
                                 word_check(labs, edges, 2, "witness"))))
    for i in range(5):
        labs, edges = random_graph(rng, 4 + i % 3)
        if not edges or len(edges) == len(labs) * (len(labs) - 1) // 2:
            edges = [("1", "2")]
        gfile = write(wd, f"g{i}.graph", o.write_graph_text(labs, edges))
        # 1-uniform words are permutations, which represent only complete graphs
        cmds.append(Command("find", ["find", "--graph", gfile, "--k", "1"], 1,
                            expect_lines(status="exhausted", witness="-")))

    for i in range(10):
        labs, edges = random_graph(rng, 4 + i % 2)
        adj = o.bitmasks(labs, edges)
        r = 1 if o.is_complete(adj) else 2 if o.is_circle_graph(adj) else 3
        gfile = write(wd, f"r{i}.graph", o.write_graph_text(labs, edges))
        cmds.append(Command("repnum", ["repnum", "--graph", gfile], 0, both(
            expect_lines(status="witness-found", rep_number=str(r)),
            word_check(labs, edges, r, "witness"))))

    for i in range(12):
        while True:
            labs, edges = random_graph(rng, 5 + i % 2)
            if not o.is_w5(o.bitmasks(labs, edges)):
                break
        gfile = write(wd, f"o{i}.graph", o.write_graph_text(labs, edges))
        argv = ["orient", "--graph", gfile]
        out = None
        if i % 6 == 5:
            out = f"o{i}.orient"
            argv += ["--out", out]
        cmds.append(Command("orient", argv, 0, both(
            expect_lines(status="semi-transitive"), orient_check(labs, edges)), out))
    labs, edges = o.wheel(5)
    perm = dict(zip(labs, rng.sample(labs, len(labs))))
    gfile = write(wd, "w5.graph", o.write_graph_text(labs, [(perm[a], perm[b]) for a, b in edges]))
    cmds.append(Command("orient", ["orient", "--graph", gfile], 1, expect_lines(status="none")))

    cmds += transform_commands(rng, wd)

    for m in (3 + rng.randrange(3), 5):
        cmds.append(Command("tables", ["tables", "ladder", "--max", str(m)], 0,
                            table_check("n", o.ladder, m, lambda n: 2)))
    for m in (2 + rng.randrange(2), 4):
        cmds.append(Command("tables", ["tables", "crown", "--max", str(m)], 0,
                            table_check("k", o.crown, m, lambda k: 2 if k == 1 else k)))

    for i in range(6):
        letters = random_word(rng, 4 + i, 2)
        crossings = len(o.alternating_pairs(letters))
        if i < 4:
            out = f"d{i}.svg"
            cmds.append(Command("chord", ["chord", "--word", " ".join(letters), "--out", out], 0,
                                both(expect_lines(chords=str(4 + i), crossings=str(crossings)),
                                     svg_check(file=True)), out))
        else:
            cmds.append(Command("chord", ["chord", "--word", " ".join(letters), "--out", "-"], 0,
                                svg_check(file=False)))

    big = write(wd, "big.graph", o.write_graph_text(*o.cycle(11)))
    bad = write(wd, "bad.graph", "1 2 3\n")
    cmds += [
        Command("build", ["build", "cycle", "2"], 2),
        Command("check", ["check", "--word", "1212", "--graph", "missing.graph"], 2),
        Command("repnum", ["repnum", "--graph", big], 2),
        Command("find", ["find", "--graph", "f0.graph", "--k", "0"], 2),
        Command("orient", ["orient", "--graph", bad], 2),
        Command("usage", ["frobnicate"], 2),
    ]
    picks = rng.sample([c for c in cmds if c.code in (0, 1)], REPEATS)
    cmds += [Command(c.sub, list(c.argv), c.code, c.check, c.out) for c in picks]
    return cmds


def orient_check(labs, edges):
    adj = o.bitmasks(labs, edges)

    def check(rep, stdout, out_text):
        arcs = [tuple(a.split("->")) for a in rep.get("witness", "").split() if a != "-"]
        err = o.orientation_error(labs, adj, arcs)
        if err or out_text is None:
            return err
        file_arcs = [tuple(line.split(" -> ")) for line in out_text.splitlines() if "->" in line]
        return None if sorted(file_arcs) == sorted(arcs) else "orientation file differs from report"
    return check


def table_check(var, family, m, k_of):
    def check(rep, stdout, out_text):
        rows = stdout.splitlines()
        if len(rows) != m:
            return f"{len(rows)} table rows, want {m}"
        for i, row in enumerate(rows, start=1):
            head, _, word = row.partition(": ")
            if head != f"{var}={i}":
                return f"table row {row!r}"
            err = o.word_error(word.split(), *family(i), k=k_of(i))
            if err:
                return f"table row {i}: {err}"
        return None
    return check


def svg_check(file: bool):
    def check(rep, stdout, out_text):
        text = out_text if file else stdout
        ok = text is not None and text.lstrip().startswith("<svg") and text.rstrip().endswith("</svg>")
        return None if ok else "chord output is not an SVG document"
    return check


def transform_commands(rng: random.Random, wd: str) -> list[Command]:
    cmds = []
    for i in range(3):
        letters = random_word(rng, 5 + i, 2)
        x = rng.choice(letters)
        labs = list(dict.fromkeys(letters)) + ["y"]
        edges = [tuple(e) for e in o.alternating_pairs(letters)] + [(x, "y")]
        cmds.append(Command("transform", ["transform", "add-leaf", "--word", " ".join(letters),
                                          "--x", x, "--y", "y"], 0, word_check(labs, edges, 2)))
    labs, edges = o.PETERSEN
    cmds.append(Command("transform", ["transform", "add-path", "--word", PETERSEN_WORD,
                                      "--x", "1", "--y", "2", "--length", "3"], 0,
                        word_check(labs + ["p1", "p2"],
                                   list(edges) + [("1", "p1"), ("p1", "p2"), ("p2", "2")])))
    for i, mode in enumerate(("connect-edge", "glue-vertex") * 2):
        l1, l2 = random_word(rng, 4 + i, 2, "a"), random_word(rng, 5, 2, "b")
        x, y = rng.choice(l1), rng.choice(l2)
        g = o.alternating_pairs(l1) | o.alternating_pairs(l2)
        if mode == "connect-edge":
            labs = list(dict.fromkeys(l1 + l2))
            edges = [tuple(e) for e in g] + [(x, y)]
        else:
            labs = [t for t in dict.fromkeys(l1 + l2) if t not in (x, y)] + ["m"]
            edges = [tuple({x: "m", y: "m"}.get(t, t) for t in e) for e in g]
        cmds.append(Command("transform", ["transform", "combine", "--mode", mode,
                                          "--word1", " ".join(l1), "--word2", " ".join(l2),
                                          "--x", x, "--y", y, "--z", "m"], 0,
                            word_check(labs, edges)))
    for i in range(2):
        letters = random_word(rng, 5, 2)
        x = rng.choice(letters)
        perms = [rng.sample(["u", "v", "w"], 3) for _ in range(2)]
        host = o.alternating_pairs(letters)
        nbrs = {next(iter(e - {x})) for e in host if x in e}
        labs = [t for t in dict.fromkeys(letters) if t != x] + ["u", "v", "w"]
        edges = [tuple(e) for e in host if x not in e] + o.order_graph(perms)
        edges += [(m, v) for m in ("u", "v", "w") for v in nbrs]
        argv = ["transform", "module", "--word", " ".join(letters), "--x", x]
        for p in perms:
            argv += ["--perm", " ".join(p)]
        cmds.append(Command("transform", argv, 0, word_check(labs, edges, 2)))
    for n in (3 + rng.randrange(3), 6):
        cmds.append(Command("transform", ["transform", "ladder", "--n", str(n)], 0,
                            word_check(*o.ladder(n), 2)))
    for k in (2 + rng.randrange(2), 4):
        cmds.append(Command("transform", ["transform", "crown", "--k", str(k)], 0,
                            word_check(*o.crown(k), k)))
    for i in range(2):
        n = 6 + 3 * i
        labs = o.names(n)
        tree = (labs, [(labs[rng.randrange(j)], labs[j]) for j in range(1, n)])
        gfile = write(wd, f"t{i}.graph", o.write_graph_text(*tree))
        cmds.append(Command("transform", ["transform", "tree", "--graph", gfile], 0,
                            word_check(*tree, 2)))
    for n in (5 + rng.randrange(4), 12):
        cmds.append(Command("transform", ["transform", "cycle", "--n", str(n)], 0,
                            word_check(*o.cycle(n), 2)))
    for i in range(2):
        labs = o.names(4 + i)
        perms = [rng.sample(labs, len(labs)) for _ in range(2)]
        argv = ["transform", "cone", "--apex", "c"]
        for p in perms:
            argv += ["--perm", " ".join(p)]
        cmds.append(Command("transform", argv, 0, word_check(
            labs + ["c"], o.order_graph(perms) + [(v, "c") for v in labs], 2)))
    for k1, k2, n1, n2 in ((1, 1, 1, 1), (rng.randrange(1, 4), rng.randrange(1, 4), 3, 4)):
        # joining by an edge or at a vertex: max(k, 2) each, but a glued
        # single vertex keeps k, and two single vertices stay at 1
        k = max(k1, k2)
        want = (1, 1) if n1 == n2 == 1 else (max(k, 2), max(k, 2))
        cmds.append(Command("transform", ["transform", "rep-arith", "--k1", str(k1), "--k2",
                                          str(k2), "--n1", str(n1), "--n2", str(n2)], 0,
                            expect_lines(connect_edge=str(want[0]), glue_vertex=str(want[1]))))
    return cmds


def run_command(st: State, cmd: Command):
    proc = subprocess.run([sys.executable, "-m", "wordrep.cli", *cmd.argv], cwd=st.workdir,
                          env=st.env, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=PROCESS_TIMEOUT_S)
    if b"Traceback" in proc.stderr:
        raise RuntimeError("wordrep.cli crashed: " + proc.stderr.decode(errors="replace")[-300:])
    out_text = None
    if cmd.out is not None and proc.returncode == 0:
        with open(os.path.join(st.workdir, cmd.out), encoding="utf-8") as fh:
            out_text = fh.read()
    return proc.returncode, proc.stdout.decode(), out_text


def setup(wr, seed: int, tr, paths) -> State:
    workdir, src = paths.workdir, paths.src
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=src)
    st = State(workdir, env)
    for cmd in commands(random.Random(seed), workdir):
        st.ops.append(Op(cmd.sub, lambda tr, cmd=cmd: tr.call(
            f"cli.{cmd.sub}", run_command, st, cmd), cmd))
    st.ops = spread(st.ops, seed)
    return st


def check_one(cmd: Command, res) -> str | None:
    code, stdout, out_text = res
    where = "wordrep " + " ".join(cmd.argv)
    if code != cmd.code:
        return f"{where}: exit code {code}, want {cmd.code}"
    if cmd.check is not None:
        err = cmd.check(report(stdout), stdout, out_text)
        if err:
            return f"{where}: {err}"
    return None


def check(st: State, results) -> list[str]:
    errors = []
    first: dict[tuple, tuple] = {}
    for op, res in zip(st.ops, results):
        cmd = op.case
        if isinstance(res, Failed):
            continue
        err = check_one(cmd, res)
        if err:
            errors.append(err)
        key = tuple(cmd.argv)
        if key in first and first[key] != res:
            errors.append("repeated command gave a different report: wordrep " + " ".join(key))
        first.setdefault(key, res)
    return errors


def digest(res):
    return repr(res) if isinstance(res, Failed) else res


def _median_process_ms(argv, env, runs=5) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                       timeout=PROCESS_TIMEOUT_S, check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


SUBCOMMANDS = ("build", "check", "find", "repnum", "orient", "transform", "tables", "chord")


def layers(st: State, view) -> dict:
    out = {f"cli.{s}.ms": (view.median(f"cli.{s}"), "ms") for s in SUBCOMMANDS}
    out["cli.import_ms"] = (_median_process_ms([sys.executable, "-c", "import wordrep"],
                                               st.env), "ms")
    out["cli.python_ms"] = (_median_process_ms([sys.executable, "-c", "pass"], st.env), "ms")
    return out


def selftest(wr) -> list[tuple[str, bool]]:
    """Corrupt correct outputs and report whether the checker rejects each."""
    labs, edges = o.cycle(4)
    cmd = Command("find", ["find"], 0, word_check(labs, edges, 2, "witness"))
    good = "witness: 1 2 4 1 3 4 2 3\n"
    swapped = "witness: 1 4 2 1 3 4 2 3\n"
    none = Command("orient", ["orient"], 1, expect_lines(status="none"))
    repnum = Command("repnum", ["repnum"], 0, both(
        expect_lines(rep_number="2"), word_check(labs, edges, 2, "witness")))
    orient = Command("orient", ["orient"], 0, orient_check(labs, edges))
    arcs = "witness: 1->2 2->3 4->3 1->4\n"
    flipped = "witness: 2->1 2->3 4->3 1->4\n"
    return [
        ("cli accepts a correct witness", check_one(cmd, (0, good, None)) is None),
        ("cli rejects a wrong R", check_one(repnum, (0, "rep-number: 3\n" + good, None))
         is not None),
        ("cli accepts a semi-transitive orientation", check_one(orient, (0, arcs, None)) is None),
        ("cli rejects an orientation with a flipped arc",
         check_one(orient, (0, flipped, None)) is not None),
        ("cli rejects a witness with two letters swapped",
         check_one(cmd, (0, swapped, None)) is not None),
        ("cli rejects a wrong exit code", check_one(cmd, (1, good, None)) is not None),
        ("cli rejects a wrong verdict", check_one(none, (1, "status: semi-transitive\n", None))
         is not None),
    ]
