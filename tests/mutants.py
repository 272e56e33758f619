"""Mutation gate: each mutant below must make the test suite fail.

A mutant replaces one exact text of a source file with another and names the
decision it breaks. Run from the root of a checkout::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

The tree is copied once to a temporary directory. Each mutant is applied to
the copy in turn and ``pytest -x -q`` runs every test file there, the
goldens first, then the mutated module's own ``test_<module>.py``, then the
other likeliest killers (``FIRST``) and the rest after them, which prints
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
SPECIO = "src/pipevuln/specio.py"
MODEL = "src/pipevuln/model.py"
RANKING = "src/pipevuln/ranking.py"
PROPAGATION = "src/pipevuln/propagation.py"
CLI = "src/pipevuln/cli.py"
_MIX_ROUND1 = "z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64"
_MIX_ROUND2 = "z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64"
_LANE_GAMMA = "+ ones * 0x9E3779B97F4A7C15) & mask"
_LANE_ROUND1 = "z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask"
_LANE_ROUND2 = "z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask"


# The goldens and the simulator tests kill most mutants in seconds; the CLI and
# contract files, which start processes, run last.
FIRST = [
    "test_golden.py", "test_simulate.py", "test_propagation.py", "test_ranking.py",
    "test_model.py", "test_specio.py", "test_acceptance.py", "test_cli.py",
    "test_contract.py",
]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    equivalent: str | None = None


def _hash_mutants(which: str, lines: list[str], reason: str) -> list[Mutant]:
    """The six constants of one SplitMix64 hash, given by its four ``lines``
    (without indentation): ``_mix``, the hash of every draw, or the packed
    hash of the ``_draws`` kernel."""
    gamma, round1, round2, final = lines
    changes = [
        ("gamma", gamma, gamma.replace("7C15", "7C17")),
        ("shift-30", round1, round1.replace(">> 30", ">> 29")),
        ("multiplier-1", round1, round1.replace("1CE4E5B9", "1CE4E5BB")),
        ("shift-27", round2, round2.replace(">> 27", ">> 26")),
        ("multiplier-2", round2, round2.replace("133111EB", "133111ED")),
        ("shift-31", final, final.replace(">> 31", ">> 32")),
    ]
    return [
        Mutant(f"{which}-hash-{part}", SIM, old, new, reason)
        for part, old, new in changes
    ]


MUTANTS = [
    # Queue and edge accounting.
    Mutant("batch-keeps-queued", SIM,
           "                    head[5].queued -= take\n", "",
           "a batch must leave its edges' queued counts"),
    Mutant("budget-cap-max", SIM,
           "min(budget_caps.get(key, cap), cap)", "max(budget_caps.get(key, cap), cap)",
           "two budgets on one edge keep the smaller cap"),
    Mutant("budget-cap-no-epsilon", SIM,
           "budget * self.scenario.n_inputs + 1e-9", "budget * self.scenario.n_inputs",
           "a budget times n_inputs just below an integer rounds up to it"),
    Mutant("budget-cap-overflow-kept", SIM,
           "if not math.isfinite(cap):", "if False:",
           "a budget whose cap overflows is a bad value, not a traceback"),
    Mutant("buffer-capacity-unchecked", SIM,
           "and self.capacity - self.queued < admitted:", "and False:",
           "a full buffer tail-drops its arrivals"),
    Mutant("budget-use-underived", SIM,
           "self.budget_cap - self.enqueued + self.dropped",
           "self.budget_cap - self.enqueued",
           "a budget caps admissions, and dropped arrivals were not admitted"),
    # Restart block.
    Mutant("batch-limit-one", SIM,
           "room = self.batch_limit[comp]", "room = 1",
           "a batch takes up to the component's batch limit"),
    Mutant("restart-unsorted", SIM,
           "touched = sorted(touched)", "touched = list(touched)",
           "touched devices restart in device-id order"),
    Mutant("shared-device-key-is-an-id", SIM,
           '("@shared", 0) if shared and spec.kind == NEURAL else (cid, 1)',
           '"@shared" if shared and spec.kind == NEURAL else cid',
           "a component named @shared keeps a device of its own"),
    Mutant("shared-head-max", SIM,
           "comp = min(heads)[1]", "comp = max(heads)[1]",
           "a shared device serves the member whose FIFO head came first"),
    Mutant("batch-clean-cost", SIM,
           "cost = costs[adv]", "cost = costs[0]",
           "an adversarial item in a batch costs the adversarial GFLOPs"),
    # Runs of siblings in a FIFO.
    Mutant("run-seq-shared", SIM,
           "edge])\n                            seq_in += 1\n", "edge])\n",
           "each admitted run gets its own number for the shared-device head scan"),
    Mutant("batch-split-raw-kept", SIM,
           "                        head[4] += take\n", "",
           "the run left queued after a split batch starts past the taken keys"),
    Mutant("batch-exact-fit-split", SIM,
           "if take <= room:", "if take < room:",
           "a run that exactly fills the batch leaves no empty run queued"),
    # Exit-only servers.
    Mutant("exit-only-clean-service", SIM,
           "(t, self.service[t][adv])", "(t, self.service[t][0])",
           "an adversarial item at an exit-only server takes its own service time"),
    Mutant("wall-time-from-heap", SIM,
           "wall = max(self.now, *self.free)", "wall = self.now",
           "an exit-only finish after the last event sets the wall time"),
    Mutant("exit-only-bounded-edges", SIM,
           "not graph.routes(cid) and cid not in limited", "not graph.routes(cid)",
           "a bounded inbound edge needs the event path"),
    Mutant("exit-only-budgeted-edges", SIM,
           "if queue.capacity or queue.budget_cap is not None}",
           "if queue.capacity}",
           "a budgeted inbound edge needs the event path"),
    Mutant("exit-only-zero-budget", SIM,
           "or queue.budget_cap is not None}", "or queue.budget_cap}",
           "a budget of 0 limits its edge too"),
    Mutant("exit-only-batched", SIM,
           "and self.batch_limit[c] == 1 and self.sole", "and self.sole",
           "a batched server needs the event path"),
    Mutant("exit-only-shared", SIM,
           "and self.batch_limit[c] == 1 and self.sole[self.device_of[c]] == c",
           "and self.batch_limit[c] == 1",
           "a server on a shared device needs the event path"),
    # Latest completion of an input.
    Mutant("event-path-finish-unconditional", SIM,
           "if last < now:", "if True:",
           "a completion must not move an input's later exit-only finish back"),
    Mutant("latency-from-zero", SIM,
           "self.finish[i] - self.arrival_time[i]", "self.finish[i]",
           "latency runs from the input's arrival"),
    Mutant("completed-from-finishes", SIM,
           "completed = self.scenario.n_inputs", "completed = len(self.finish)",
           "an input the filter drops still counts as completed"),
    # Event order.
    Mutant("completion-before-arrival", SIM,
           "arrival_time[arrived] <= heap[0][0]", "arrival_time[arrived] < heap[0][0]",
           "an arrival precedes a completion at the same instant"),
    # Input filter.
    Mutant("filter-draw-hashed-key", SIM,
           "_mix(raw ^ _FILTER_SALT)", "_mix(_mix(raw) ^ _FILTER_SALT)",
           "the input filter draws from the input's key, not a hash of it"),
    Mutant("filter-draw-unsalted", SIM,
           "_mix(raw ^ _FILTER_SALT)", "_mix(raw)",
           "the input filter draws with its own salt"),
    Mutant("filter-at-or-below", SIM,
           "< input_filter.p_detect:", "<= input_filter.p_detect:",
           "an input is detected when its uniform is below p_detect",
           equivalent="the two differ only when a uniform equals p_detect exactly"),
    # Lineage draw.
    Mutant("table-span-narrow", SIM,
           "_TABLE_SDS = 12.0", "_TABLE_SDS = 6.0",
           "a Poisson table leaves out less mass than one uniform step"),
    Mutant("draw-uniform-shift", SIM,
           "bisect_right(cdf, _uniform(draw_key))",
           "bisect_right(cdf, (draw_key >> 12) * _UNIT)",
           "the loop's uniform is the top 53 bits of the draw key"),
    Mutant("item-key-shared", SIM,
           "for key in range(raw, raw + count):", "for key in [raw] * count:",
           "item j of a portion draws its FIFO rows with the key raw + j"),
    Mutant("item-key-offset", SIM,
           "for key in range(raw, raw + count):",
           "for key in range(raw + 1, raw + 1 + count):",
           "a portion's first item draws its FIFO rows with the portion's raw key"),
    *_hash_mutants("draw", ["_GAMMA = 0x9E3779B97F4A7C15", _MIX_ROUND1, _MIX_ROUND2,
                            "return z ^ (z >> 31)"],
                   "every draw hashes with SplitMix64, the stream the goldens pin"),
    # The guide in front of the bisection, and the process-wide table memo.
    Mutant("guide-low-edge-left", SIM,
           "bisect_right(cdf, c / 256)", "bisect_left(cdf, c / 256)",
           "an entry on a cell's low edge does not split the cell"),
    Mutant("guide-high-edge-right", SIM,
           "bisect_left(cdf, (c + 1) / 256)", "bisect_right(cdf, (c + 1) / 256)",
           "an entry on a cell's high edge does not split the cell"),
    Mutant("guide-high-edge-is-low", SIM,
           "bisect_left(cdf, (c + 1) / 256)", "bisect_left(cdf, c / 256)",
           "a cell ends at (c+1)/256"),
    Mutant("guide-split-kept", SIM,
           "-1 if split else lo + at_or_below", "lo + at_or_below",
           "a split cell falls back to the bisection"),
    Mutant("guide-kernel-cell-bits", SIM,
           "lanes = (z ^ z >> 31).to_bytes(", "lanes = ((z ^ z >> 31) >> 1).to_bytes(",
           "a draw key's cell is its top 8 bits"),
    Mutant("guide-loop-cell-bits", SIM,
           "survivors = guide[draw_key >> 56]", "survivors = guide[draw_key >> 57]",
           "a draw key's cell is its top 8 bits"),
    Mutant("guide-kernel-fallback-taken", SIM,
           "range(counts.count(-1))", "range(counts.count(-2))",
           "a split cell's -1 is not a draw"),
    Mutant("guide-loop-fallback-taken", SIM,
           "if survivors < 0:", "if survivors < -1:",
           "a split cell's -1 is not a draw"),
    Mutant("table-memo-off", SIM,
           "_TABLE_MEMO = 32", "_TABLE_MEMO = 0",
           "runs share one table per mean"),
    Mutant("table-memo-before-bound", SIM,
           "        if mean > self.max_events:\n"
           "            raise NonTerminationError(\n"
           "                f\"emission mean {mean:g} exceeds the bound of \"\n"
           "                f\"{self.max_events} events\"\n"
           "            )\n"
           "        return _poisson_table(mean)\n",
           "        table = _poisson_table(mean)\n"
           "        if mean > self.max_events:\n"
           "            raise NonTerminationError(\n"
           "                f\"emission mean {mean:g} exceeds the bound of \"\n"
           "                f\"{self.max_events} events\"\n"
           "            )\n"
           "        return table\n",
           "a mean past the bound builds no table"),
    # Run-through of exit-feeding servers: the completions taken without
    # the heap, and the copies of the completion loop's decisions they use.
    Mutant("exit-feeding-shared", SIM,
           "self.sole[self.device_of[c]] == c and self.batch_limit[c] == 1\n",
           "self.batch_limit[c] == 1\n",
           "a server on a shared device completes its items through the heap"),
    Mutant("exit-feeding-batched", SIM,
           "== c and self.batch_limit[c] == 1\n", "== c\n",
           "a batched server completes its items through the heap"),
    Mutant("exit-feeding-event-path-target", SIM,
           "target == EXIT or self.exit_only[self.index[target]]", "True",
           "a server that feeds an event-path server completes through the heap"),
    Mutant("run-through-many-touched", SIM,
           "if exit_feeding[comp] and len(touched) == 1:", "if exit_feeding[comp]:",
           "devices restarted after a run-through one would start late"),
    Mutant("run-through-slice-tie", SIM,
           "takewhile(bound.__gt__,", "takewhile(bound.__ge__,",
           "a completion that ties the heap's top or the next arrival pops after it"),
    Mutant("run-through-bound-no-arrival", SIM,
           "                    if arrived < n and arrival_time[arrived] < bound:\n"
           "                        bound = arrival_time[arrived]\n", "",
           "a completion after the next arrival waits for it"),
    Mutant("run-through-bound-no-top", SIM,
           "bound = heap[0][0] if heap else math.inf", "bound = math.inf",
           "a completion after the heap's top entry waits for it"),
    Mutant("run-through-no-event-count", SIM,
           "adv, raw, times, 1,", "adv, raw, times, 0,",
           "each completion taken without the heap is an event, a sink's included"),
    Mutant("run-through-rows-before-event-check", SIM,
           "                            if events >= max_events:\n"
           "                                raise NonTerminationError(too_many)\n"
           "                            taint = self._route_rows(comp, adv)\n",
           "                            taint = self._route_rows(comp, adv)\n",
           "the first item's event check comes before its rows are built"),
    Mutant("run-through-finish-at-completion", SIM,
           "finish[input_id] = last if now < last else now",
           "finish[input_id] = now",
           "an input finishes at its last exit-only finish, not at the feeder's"),
    Mutant("run-through-keeps-queued", SIM,
           "                        head[5].queued -= done\n", "",
           "items completed without the heap leave their edge's queued count"),
    Mutant("run-through-split-raw-kept", SIM,
           "                            head[4] += done\n", "",
           "the run left queued, and so the run-through's next slice, starts past "
           "the keys completed without the heap"),
    # Run-level draws: the kernel, the per-run accounting, and a portion's
    # split into the rows drawn as a run and the rows drawn item by item.
    Mutant("kernel-draw-uniform-shift", SIM,
           "bisect_right(cdf, _uniform(word))",
           "bisect_right(cdf, (word >> 12) * _UNIT)",
           "the kernel's uniform is the top 53 bits of the draw key"),
    Mutant("kernel-item-key-shared", SIM,
           'ones * key + int.from_bytes(_RAMP[:size], "little") ^', "ones * key ^",
           "item j of a run draws with the key of its first item plus j"),
    Mutant("kernel-ramp-offset", SIM,
           "i.to_bytes(16, \"little\") for i in range(_SLICE)",
           "(i + 1).to_bytes(16, \"little\") for i in range(_SLICE)",
           "lane i holds the key of the run's first item plus i"),
    Mutant("exit-portion-slices-overlap", SIM,
           "[now] * size, 0,", "[now] * count, 0,",
           "each slice of a portion draws its own items"),
    *_hash_mutants("kernel", [_LANE_GAMMA, _LANE_ROUND1, _LANE_ROUND2,
                              "lanes = (z ^ z >> 31).to_bytes("],
                   "the packed kernel hash must equal _mix"),
    # The packed hash: 128-bit lanes, masked to 64 bits around each
    # multiply, read at the byte and word that hold the draw key.
    Mutant("kernel-lane-width", SIM,
           '_ONES = (1).to_bytes(16, "little") * _SLICE',
           '_ONES = (1).to_bytes(8, "little") * 2 * _SLICE',
           "a lane is 128 bits wide, so a product of two 64-bit words stays in it"),
    Mutant("kernel-salt-in-one-lane", SIM,
           "^ ones * salt)", "^ salt)",
           "every lane is salted"),
    Mutant("kernel-add-unmasked", SIM,
           _LANE_GAMMA, _LANE_GAMMA.replace(") & mask", ")"),
           "bit 64 of the salted key plus gamma is dropped, as _mix drops it"),
    Mutant("kernel-mask-before-multiply-1", SIM,
           "((z ^ z >> 30) & mask) *", "(z ^ z >> 30) *",
           "bits shifted in from the next lane are masked off before a multiply"),
    Mutant("kernel-mask-before-multiply-2", SIM,
           "((z ^ z >> 27) & mask) *", "(z ^ z >> 27) *",
           "bits shifted in from the next lane are masked off before a multiply"),
    Mutant("kernel-product-unmasked-1", SIM,
           _LANE_ROUND1, _LANE_ROUND1.removesuffix(" & mask"),
           "a lane's product is cut to 64 bits before its next shift"),
    Mutant("kernel-product-unmasked-2", SIM,
           _LANE_ROUND2, _LANE_ROUND2.removesuffix(" & mask"),
           "a lane's product is cut to 64 bits before its last shift"),
    Mutant("kernel-lane-byte-offset", SIM,
           "lanes[7::16]", "lanes[6::16]",
           "byte 7 of a lane holds the draw key's top 8 bits"),
    Mutant("kernel-split-word-high", SIM,
           "lanes[16 * i:16 * i + 8]", "lanes[16 * i + 8:16 * i + 16]",
           "a split lane bisects at its low word; the high word holds shifted-in bits"),
    Mutant("exit-plan-with-a-fifo-row", SIM,
           "if self.exit_only[t]:", "if True:",
           "a row into a FIFO is admitted to the FIFO, not to a Lindley clock"),
    Mutant("mixed-portion-exit-rows-skipped", SIM,
           "if exits:", "if exits and not fifo_rows:",
           "a portion with rows into FIFOs still draws its exit rows"),
    Mutant("mixed-portion-fifo-rows-skipped", SIM,
           "if not fifo_rows:", "if exits or not fifo_rows:",
           "a portion with exit rows still draws its FIFO rows"),
    Mutant("run-exits-keep-enqueued", SIM,
           "            edge.enqueued += total\n", "",
           "a run's draws are offered on their edges"),
    Mutant("run-exits-processed-once", SIM,
           "[server] += total", "[server] += 1",
           "each admitted item is processed"),
    Mutant("run-exits-no-event-count", SIM,
           "events += per_item * size + added\n", "events += per_item * size\n",
           "each exit-only completion counts against the event bound"),
    Mutant("run-exits-no-offer-count", SIM,
           "        offered += added\n", "",
           "a run's draws count against the arrival bound"),
    Mutant("run-exits-offers-unchecked", SIM,
           "or offered > self.max_events:", "or False:",
           "a run that offers past the bound raises"),
    Mutant("run-exits-rows-unsummed", SIM,
           "            if others:\n", "            if False:\n",
           "rows into one exit-only server add an item's draws together"),
    Mutant("run-exits-zero-items-clocked", SIM,
           "compress(zip(times, counts), counts)", "zip(times, counts)",
           "an item that admits nothing leaves the clock alone",
           equivalent="completion times never decrease and every later admission "
           "or finish takes the later of the clock and its own time, so moving the "
           "clock up to an earlier item's time changes no output"),
    Mutant("run-exits-no-clock-max", SIM,
           "if free < t:", "if False:",
           "an idle exit-only server starts at the item's completion time"),
    Mutant("run-exit-service-twice", SIM,
           "                    free += service\n            self.free[server] = free\n",
           "                    free += service\n                    free += service\n"
           "            self.free[server] = free\n",
           "each admitted item takes one service time"),
    Mutant("run-exit-unconditional", SIM,
           "if last < free:\n                last = free\n        return",
           "if True:\n                last = free\n        return",
           "an exit-only finish must not move an input's later finish back"),
    Mutant("run-slice-unbounded", SIM,
           "_SLICE = 1024", "_SLICE = 10**9",
           "a long run is drawn in slices"),
    # Adversarial subset and input filter.
    Mutant("subset-count-truncated", SIM,
           "count = int(round(self.scenario.mix * n))",
           "count = int(self.scenario.mix * n)",
           "the adversarial count is mix * n_inputs rounded half to even"),
    Mutant("subset-filter-salt", SIM,
           '_SUBSET_SALT = _text_key("adversarial-subset")',
           '_SUBSET_SALT = _text_key("input-filter")',
           "the adversarial subset draws apart from the input filter"),
    Mutant("filter-subset-salt", SIM,
           '_FILTER_SALT = _text_key("input-filter")',
           '_FILTER_SALT = _text_key("adversarial-subset")',
           "the input filter draws apart from the adversarial subset"),
    # Deployment settings.
    Mutant("default-ignored", MODEL,
           'table.get("default", fallback)', "fallback",
           "a setting missing for its key falls back to the default entry"),
    Mutant("confidence-default-ignored", MODEL,
           "return _with_default(self.adversarial if adversarial else self.clean,\n"
           "                             label, 1.0)",
           "return (self.adversarial if adversarial else self.clean).get(label, 1.0)",
           "a confidence label missing from its table falls back to default"),
    Mutant("clean-items-steered", SIM,
           "self.targeting.get(cid) if adv else None]", "self.targeting.get(cid)]",
           "a clean item emits by the clean profile on the target path too"),
    Mutant("attenuation-floor-of-steered-mean", SIM,
           "att.residual_floor * clean.get(label, 0.0)", "att.residual_floor * mean",
           "the residual floor is a share of the label's clean mean"),
    Mutant("attenuation-no-floor", SIM,
           "max(att.factor * mean, floor)", "att.factor * mean",
           "attenuation keeps the residual floor of the clean mean"),
    Mutant("non-batchable-batched", SIM,
           "config.batch_size(cid) if spec.batchable else 1", "config.batch_size(cid)",
           "a non-batchable component serves one item per call"),
    # Metrics.
    Mutant("percentile-rank-floor", SIM,
           "rank = math.ceil(q / 100.0 * len(samples))",
           "rank = math.floor(q / 100.0 * len(samples)) + 1",
           "the nearest rank is ceil(q/100 * n)"),
    Mutant("non-finite-metric-kept", SIM,
           "if isinstance(value, float) and not math.isfinite(value):", "if False:",
           "a non-finite simulated metric is a bad value, never printed"),
    Mutant("std-sample", SIM,
           "/ len(values)\n        except", "/ (len(values) - 1)\n        except",
           "the std row is the population std (ddof=0)"),
    Mutant("single-seed-row-expanded", SIM,
           "if len(rows) == 1:", "if len(rows) == 0:",
           "one seed gives one unlabelled row, with no mean or std"),
    Mutant("seeds-empty-accepted", SIM,
           "    if seeds is not None and not seeds:\n"
           "        raise BadValueError(\"matrix: the seed list is empty\")\n", "",
           "an empty seed list is a bad value, not the scenario's own seed"),
    Mutant("seeds-repeat-accepted", SIM,
           "if seeds is not None and len(set(seeds)) < len(seeds):",
           "if False:",
           "a repeated seed is a bad value, not a duplicate row"),
    # Spec defaults.
    Mutant("attenuation-factor-default-zero", MODEL,
           "factor: float = 1.0", "factor: float = 0.0",
           "an attenuation that leaves out its factor keeps the whole gain"),
    Mutant("filter-p-detect-default-half", MODEL,
           "p_detect: float = 0.0", "p_detect: float = 0.5",
           "an input filter that leaves out p_detect detects nothing"),
    Mutant("adv-cost-not-clean-cost", MODEL,
           'fields.setdefault("adv_cost", fields.get("clean_cost", 0.0))',
           "pass",
           "a component that leaves out its adversarial cost costs its clean cost"),
    Mutant("sub-record-keys-unchecked", MODEL,
           "_check_keys(_need_mapping(value, what), readers, what)",
           "_need_mapping(value, what)",
           "a sub-record with a key its table lacks is a schema error"),
    # Records.
    Mutant("record-replace-unchecked", MODEL,
           "    cls._make = classmethod(lambda klass, values: new(klass, *values))\n",
           "",
           "a checked record checks the values _replace gives it"),
    Mutant("component-unchecked", MODEL,
           "@_record_class\nclass ComponentSpec(", "class ComponentSpec(",
           "a component checks its values when built"),
    Mutant("record-default-mapping-shared", MODEL,
           "if any(value is _FRESH for value in self):", "if False:",
           "a record built without a mapping field gets a mapping of its own"),
    Mutant("metrics-edge-stats-as-lists", CLI,
           '{k: st._asdict() for k, st in record.pop("edge_stats").items()}',
           'record.pop("edge_stats")',
           "a metrics record writes each edge's counts as an object"),
    # YAML nesting depth.
    Mutant("yaml-depth-unchecked", SPECIO,
           "        _check_depth(text)\n", "",
           "YAML nested past the limit is a syntax error, not a libyaml crash"),
    Mutant("yaml-depth-at-limit-rejected", SPECIO,
           "if depth > _MAX_YAML_DEPTH:", "if depth >= _MAX_YAML_DEPTH:",
           "YAML nested exactly to the limit is read"),
    Mutant("yaml-depth-never-closes", SPECIO,
           "            depth -= 1\n", "            pass\n",
           "a closed collection leaves the depth"),
    Mutant("yaml-depth-bound-halved", SPECIO,
           'if 2 * (text.count("[")', 'if (text.count("[")',
           "a single-pair flow mapping opens without a bracket"),
    Mutant("yaml-deep-pure-loader-uncaught", SPECIO,
           "except (yaml.YAMLError, RecursionError) as exc:",
           "except yaml.YAMLError as exc:",
           "YAML too deep for PyYAML's pure-Python loader is a syntax error"),
    # Spec references.
    Mutant("jsonl-deep-first-line-to-yaml", SPECIO,
           "return True  # too deep", "return False  # too deep",
           "a first line too deep to decode takes the JSON-lines reader"),
    Mutant("jsonl-deep-line-uncaught", SPECIO,
           "except (json.JSONDecodeError, RecursionError) as exc:",
           "except json.JSONDecodeError as exc:",
           "a JSON line too deep to decode is a syntax error, not a traceback"),
    Mutant("yaml-duplicate-key-kept", SPECIO,
           "if key in seen:", "if False:",
           "a YAML mapping that declares a key twice is a schema error"),
    Mutant("non-batchable-batch-accepted", SPECIO,
           "and size > 1 and not graph.components[key].batchable:",
           "and False:",
           "a batch size above 1 for a non-batchable component is a bad value"),
    Mutant("confidence-label-unchecked", SPECIO,
           "if key not in labels:", "if False:",
           "a confidence label must be a gate label or default"),
    Mutant("confidence-default-rejected", SPECIO,
           'labels = {"default"}.union(', "labels = set().union(",
           "a confidence table may carry a default entry"),
    Mutant("unknown-path-resolves", SPECIO,
           "        return False\n    return True\n",
           "        return True\n    return True\n",
           "a path id that names no path is a reference error at parse time"),
    # Analysis.
    Mutant("walk-prefix-kept", PROPAGATION,
           "del stack[shared + 1:]", "del stack[shared + 2:]",
           "a walk resumes from the workload of its shared prefix only"),
    Mutant("walk-zero-count-stepped", PROPAGATION,
           "        if count:\n", "        if True:\n",
           "a component with no workload adds nothing downstream",
           equivalent="count * mean is 0.0 when count is 0, every mean is finite, "
           "and adding 0.0 to a workload, never -0.0, leaves it unchanged"),
    Mutant("exit-label-unsteered", PROPAGATION,
           "expected_emission(profile, emitted, label)",
           "expected_emission(profile, emitted, None if label == EXIT else label)",
           "a step steered toward a gate label named EXIT is steered"),
    Mutant("float-total-fsum", PROPAGATION,
           "return reduce(add, values, 0.0)", "return math.fsum(values)",
           "every float total adds left to right, as the goldens were taken"),
    Mutant("total-not-finite-kept", PROPAGATION,
           "if not math.isfinite(total):", "if False:",
           "a non-finite FLOPs total is a bad value"),
    Mutant("amplification-not-finite-kept", PROPAGATION,
           "if not math.isfinite(amplification):", "if False:",
           "an unbounded amplification is a bad value"),
    Mutant("path-cap-zero-accepted", RANKING,
           "if limit < 1:", "if limit < 0:",
           "a cap of 0 is a bad value, not a graph past the cap"),
    Mutant("ranking-tie-largest-id", RANKING,
           "return -entry.score, entry.path.id",
           "return -entry.score, [-ord(c) for c in entry.path.id]",
           "equal scores rank and select the smallest path id first"),
    Mutant("resolve-prefix-id", RANKING,
           "    if node is not None:\n        raise NoSuchPathError",
           "    if False:\n        raise NoSuchPathError",
           "a path id must reach an exit, not stop at a prefix"),
    Mutant("loss-weight-unclamped", RANKING,
           "mass[cid] = max(scores[cid], 0.0)", "mass[cid] = scores[cid]",
           "negative component scores carry no loss mass"),
    Mutant("zero-reference-unguarded", RANKING,
           "            if reference > 0 else 0.0\n", "",
           "an all-zero-cost pipeline scores zero"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "pipelines", "pyproject.toml"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _test_files(tree: Path, mutated: str) -> list[str]:
    """Every test file but the list's own check: the goldens, then the test
    file named after the ``mutated`` source file, then ``FIRST`` in order."""
    names = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    names.remove("test_mutant_list.py")
    order = [FIRST[0], f"test_{Path(mutated).name}", *FIRST[1:]]
    names.sort(key=lambda name: order.index(name) if name in order else len(order))
    return [f"tests/{name}" for name in names]


def _run(tree: Path, mutant: Mutant, files: list[str]) -> bool:
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
             *files],
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
            dead = _run(tree, mutant, _test_files(tree, mutant.file))
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
