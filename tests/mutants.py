"""Mutation gate: each mutant below must make the test suite fail.

A mutant replaces one exact text of a source file with another and names the
decision it breaks. Run from the root of a checkout::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

The tree is copied once to a temporary directory. Each mutant is applied to
the copy in turn and ``pytest -x -q tests`` runs there, which prints
"killed" when the suite fails and "survived" when it passes. A mutant
marked ``equivalent`` cannot change any output (the reason says why), so it
is expected to survive. The script exits 1 when an unmarked mutant survives
or a marked one is killed. ``tests/test_mutant_list.py`` is left out of
these runs: it checks this list, and every mutant would fail it. In tier-1
it checks that each old text occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SIM = "src/pipevuln/simulate.py"
# Line break plus the indentation of the lineage hashes in the completion loop.
_NL = "\n" + " " * 24
_KEY_GAMMA = "z = (raw + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF"
_DRAW_GAMMA = "z = ((key ^ salt) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF"
_ROUND1 = "z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF"
_ROUND2 = "z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    equivalent: str | None = None


def _hash_mutants(which: str, gamma: str, final: str) -> list[Mutant]:
    """The six constants of one written-out SplitMix64 hash."""
    changes = [
        ("gamma", gamma, gamma.replace("7C15", "7C17")),
        ("shift-30", gamma + _NL + _ROUND1,
         gamma + _NL + _ROUND1.replace(">> 30", ">> 29")),
        ("multiplier-1", gamma + _NL + _ROUND1,
         gamma + _NL + _ROUND1.replace("1CE4E5B9", "1CE4E5BB")),
        ("shift-27", _ROUND2 + _NL + final,
         _ROUND2.replace(">> 27", ">> 26") + _NL + final),
        ("multiplier-2", _ROUND2 + _NL + final,
         _ROUND2.replace("133111EB", "133111ED") + _NL + final),
        ("shift-31", _NL + final, _NL + final.replace(">> 31", ">> 32")),
    ]
    return [
        Mutant(f"{which}-hash-{part}", SIM, old, new,
               f"the loop's {which} hash must equal _mix")
        for part, old, new in changes
    ]


MUTANTS = [
    # Queue and edge accounting.
    Mutant("one-item-keeps-queued", SIM,
           "_, _, adv, _, edge = item = fifo.popleft()\n"
           "                    edge.queued -= 1\n",
           "_, _, adv, _, edge = item = fifo.popleft()\n",
           "a batch of one must leave its edge's queued count"),
    Mutant("batch-keeps-queued", SIM,
           "for _, _, adv, _, edge in batch:\n"
           "                        edge.queued -= 1\n",
           "for _, _, adv, _, edge in batch:\n",
           "a larger batch must leave its edges' queued counts"),
    Mutant("exit-only-keeps-queued", SIM,
           "                                edge.queued -= admitted\n", "",
           "a budgeted admission to an exit-only server must not stay queued"),
    Mutant("budget-cap-max", SIM,
           "min(budget_caps.get(key, cap), cap)", "max(budget_caps.get(key, cap), cap)",
           "two budgets on one edge keep the smaller cap"),
    Mutant("budget-cap-no-epsilon", SIM,
           "budget * self.scenario.n_inputs + 1e-9", "budget * self.scenario.n_inputs",
           "a budget times n_inputs just below an integer rounds up to it"),
    Mutant("budget-check-inverted", SIM,
           "if edge.budget_cap is None:", "if edge.budget_cap is not None:",
           "an exit-only server's budgeted edge must go through offer"),
    # Restart block.
    Mutant("batch-of-one-widened", SIM,
           "if limit == 1 else None", "if limit <= 2 else None",
           "a batch limit of 2 must take two items per service"),
    Mutant("restart-unsorted", SIM,
           "touched = sorted(touched)", "touched = list(touched)",
           "touched devices restart in device-id order"),
    Mutant("shared-head-max", SIM,
           "comp = min(heads)[1]", "comp = max(heads)[1]",
           "a shared device serves the member whose FIFO head came first"),
    Mutant("batch-clean-cost", SIM,
           "                            gflops += adv_cost\n",
           "                            gflops += clean_cost\n",
           "an adversarial item in a batch costs the adversarial GFLOPs"),
    # Exit-only servers.
    Mutant("exit-only-clean-service", SIM,
           "(t, self.service[t][adv])", "(t, self.service[t][0])",
           "an adversarial item at an exit-only server takes its own service time"),
    Mutant("exit-only-no-clock-max", SIM,
           "free = max(now, free_at[server])", "free = free_at[server]",
           "an idle exit-only server starts at the admission time"),
    Mutant("exit-only-service-twice", SIM,
           "if admitted == 1:\n"
           "                                free += service\n",
           "if admitted == 1:\n"
           "                                free += service\n"
           "                                free += service\n",
           "one admitted item takes one service time"),
    Mutant("exit-only-no-event-count", SIM,
           "                            events += admitted\n", "",
           "each exit-only completion counts against the event bound"),
    Mutant("wall-time-from-heap", SIM,
           "wall = max(self.now, *self.free)", "wall = self.now",
           "an exit-only finish after the last event sets the wall time"),
    Mutant("exit-only-bounded-edges", SIM,
           "cid != graph.source and cid not in bounded",
           "cid != graph.source",
           "a bounded inbound edge needs the event path"),
    Mutant("exit-only-batched", SIM,
           "and self.batch_limit[c] == 1 and self.sole", "and self.sole",
           "a batched server needs the event path"),
    Mutant("exit-only-shared", SIM,
           "and self.batch_limit[c] == 1 and self.sole[self.device_of[c]] == c",
           "and self.batch_limit[c] == 1",
           "a server on a shared device needs the event path"),
    Mutant("exit-only-source", SIM,
           "self.gateless[c] and cid != graph.source and",
           "self.gateless[c] and",
           "the source is never exit-only",
           equivalent="build_graph rejects edges into the source, so no emission "
                      "row targets it"),
    # Latest exit of an input.
    Mutant("gateless-exit-unconditional", SIM,
           "if gateless and last_exit.get(input_id, now) <= now:", "if gateless:",
           "a gateless exit must not move an input's later exit back"),
    Mutant("label-exit-unconditional", SIM,
           "if edge is None:\n"
           "                            if last_exit.get(input_id, now) <= now:",
           "if edge is None:\n"
           "                            if True:",
           "an exit label must not move an input's later exit back"),
    Mutant("exit-only-exit-unconditional", SIM,
           "if last_exit.get(input_id, free) <= free:", "if True:",
           "an exit-only finish must not move an input's later exit back"),
    # Input filter.
    Mutant("drop-input-not-completed", SIM,
           "if input_filter.action == DROP_INPUT:\n"
           "                            self.completed += 1\n",
           "if input_filter.action == DROP_INPUT:\n",
           "a dropped input still counts as completed"),
    Mutant("filter-at-or-below", SIM,
           "< input_filter.p_detect:", "<= input_filter.p_detect:",
           "an input is detected when its uniform is below p_detect",
           equivalent="the two differ only when a uniform equals p_detect exactly"),
    # Lineage draw.
    Mutant("draw-uniform-shift", SIM,
           "bisect_right(cdf, (draw_key >> 11) * _UNIT)",
           "bisect_right(cdf, (draw_key >> 12) * _UNIT)",
           "the loop's uniform is the top 53 bits of the draw key"),
    *_hash_mutants("key", _KEY_GAMMA, "key = z ^ (z >> 31)"),
    *_hash_mutants("draw", _DRAW_GAMMA, "draw_key = z ^ (z >> 31)"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "pipelines", "pyproject.toml"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run(tree: Path, mutant: Mutant) -> bool:
    """Apply ``mutant`` to ``tree``, run the suite, restore; True if killed."""
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text does not occur exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))
    # No bytecode cache: a mutant and its original can share a size and an
    # mtime second, and a stale .pyc would then run the wrong text.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "tests", "--ignore=tests/test_mutant_list.py"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    finally:
        path.write_text(text)
    return done.returncode != 0


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    wrong = killed = 0
    with tempfile.TemporaryDirectory(prefix="pipevuln-mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        for mutant in chosen:
            started = time.perf_counter()
            dead = _run(tree, mutant)
            killed += dead
            verdict = "killed" if dead else "survived"
            if dead == bool(mutant.equivalent):
                wrong += 1
                verdict += " (UNEXPECTED)"
            elif mutant.equivalent:
                verdict += " (equivalent)"
            seconds = time.perf_counter() - started
            print(f"{verdict:<22} {mutant.name:<30} {seconds:5.1f} s", flush=True)
    print(f"{killed} killed, {len(chosen) - killed} survived, {wrong} unexpected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
