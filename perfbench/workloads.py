"""The three benchmark workloads and the stages they share.

Every workload walks the program's whole path at one world size: the gen
path, the open path that every train/eval/ssl command runs first, training,
evaluation, sampled decoding and the store's counting queries.  What sets a
workload apart is its world size and which stage its closed loop repeats for
the measured seconds:

    train-x4   x4 world, repeats a one-epoch training run of one mode, the three
               modes in turn
    eval-x1    default world plus an unlabeled shard, repeats the `bilayer eval`
               experiments, the `bilayer ssl` path and the decode streams
    world-x10  x10 world, repeats a round of counting queries over the store

The other stages run once or a few times beside the loop, so every end-to-end
metric is measured on every workload.  The loop is closed: one caller, each
call waiting for the previous one.  Every call goes through a module
attribute (`world.gen_world`, not an imported name) so that a traced run sees
it.
"""
from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from bilayer import evaluation, network, training, world
from bilayer.evaluation import EvalContext
from bilayer.network import DecodeRequest
from bilayer.params import ColumnMap, NetConfig, NetParams, params_digest
from bilayer.training import ALL_MODES, TrainConfig
from bilayer.triple_store import UNKNOWN
from bilayer.vocab import IDENTITY_FAMILY, Kind
from bilayer.world import WorldConfig, substream
from pace import Pace

SCALES = {"train-x4": 4, "eval-x1": 1, "world-x10": 10}
VARIANTS = ("samp", "sa", "direct")
# every `bilayer eval` experiment that trains no extra model
EVAL_EXPERIMENTS = tuple(
    name for name in sorted(evaluation.EXPERIMENTS) if name != "hidden-label-enrichment"
)
SIDE_EXPERIMENTS = ("zero-shot-binary", "consolidation-fidelity")
FROZEN_BY_SSL = ("ctx_in", "ctx_rec", "ctx_out", "pooled", "enc_w", "enc_b")
BITWISE_FLAGS = {"ssl-before-after": "frozen_blocks_bitwise",
                 "consolidation-fidelity": "preexisting_bitwise"}


@dataclass
class Sizes:
    """How much work each stage does; `tiny` shrinks all of it for the self-test."""

    gen_repeats: int = 1            # gen path runs; gen_s is their median
    eval_train_epochs: int = 2      # eval-x1's short training in set-up
    side_scenes: int = 30           # ex_test scenes decoded by the side evaluation
    stream_passes: int = 50         # passes per decode stream (episodic, semantic, fuse)
    truth_queries: int = 3000       # per kind: positive, negative, unknown
    entity_sample: int = 40         # entities whose label triples expected_truth asks about
    truth_reps: int = 8             # times a query round asks its truth_of list
    expected_reps: int = 40         # times a query round asks its expected_truth list
    warmup_examples: int = 256
    pseudo_examples: int = 1536     # world-x10 trains on this many unary examples
    side_samples: int = 6           # samples of each side part, interleaved with the loop
    min_loop_calls: int = 2         # the loop makes at least this many calls


def sizes_for(workload: str, tiny: bool) -> Sizes:
    if tiny:
        return Sizes(eval_train_epochs=1, side_scenes=4, stream_passes=8,
                     truth_queries=50, entity_sample=6, truth_reps=1, expected_reps=1,
                     warmup_examples=32, pseudo_examples=64, side_samples=2,
                     min_loop_calls=len(ALL_MODES) if workload == "train-x4" else 2)
    # the x1 gen path is short enough to repeat; x10 stages are long enough to need fewer
    if workload == "world-x10":
        return Sizes(side_samples=3)
    if workload == "train-x4":
        # at least three epochs of each mode
        return Sizes(min_loop_calls=3 * len(ALL_MODES))
    return Sizes(gen_repeats=3)


def world_config(workload: str, seed: int, tiny: bool) -> WorldConfig:
    unlabeled = 0.1 if workload == "eval-x1" else 0.0
    if tiny:
        return WorldConfig(n_entities=60, n_scenes=12, n_test_entities=6, n_test_scenes=2,
                           zero_shot_per_combo=2, unlabeled_fraction=2 * unlabeled, seed=seed)
    base = WorldConfig()
    scale = SCALES[workload]
    return WorldConfig(n_entities=base.n_entities * scale, n_scenes=base.n_scenes * scale,
                       unlabeled_fraction=unlabeled, seed=seed)


def median(values) -> float:
    return float(statistics.median(values))


def median_rate(samples) -> float:
    """Median of per-call work per second over (work, seconds) samples: a few
    calls caught in a slow or fast spell of a shared machine do not move it."""
    return median(work / seconds for work, seconds in samples)


class Run:
    """State of one benchmark run: measurements, checks and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer, workdir: str,
                 tiny: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.sizes = sizes_for(workload, tiny)
        self.config = world_config(workload, seed, tiny)
        self.metrics: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.layer_counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pace = Pace()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    @contextmanager
    def stage(self, name: str):
        """Wall time of one stage of the run, reported beside the metrics."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.info.setdefault("stage_s", {})[name] = time.perf_counter() - t0

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def timed(self, fn) -> tuple[float, object]:
        """(adjusted seconds, result) of one call, timed as mixed work."""
        watch = self.pace.stopwatch("mixed")
        result = fn()
        return watch.stop(), result


# -- gen and open paths ------------------------------------------------------------


def gen_path(run: Run) -> str:
    """`bilayer gen`: generate, build the store, export.  Sets gen_s."""
    outdir = os.path.join(run.workdir, "world")
    times = []
    for _ in range(run.sizes.gen_repeats):
        gc.collect()
        watch = run.pace.stopwatch("python")
        w = world.gen_world(run.config)
        store = w.build_store()
        world.export_world(w, outdir)
        times.append(watch.stop())
        run.info["gen_digest"] = (w.vocab.digest(), store.total_statements())
        w = store = None
    run.metrics["gen_s"] = median(times)
    run.layer_counts["world.export.bytes"] = sum(
        os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir)
    )
    return outdir


@dataclass
class Opened:
    world: world.GroundTruthWorld
    store: object
    mem: tuple
    per: tuple
    seconds: float

    @property
    def vocab(self):
        return self.world.vocab

    def examples_per_epoch(self, modes: tuple = ALL_MODES) -> int:
        per = len(self.per[0]) + len(self.per[1])
        mem = len(self.mem[0]) + len(self.mem[1])
        return sum(per if mode == "perception" else mem for mode in modes)


def open_path(run: Run, world_dir: str) -> Opened:
    """What `bilayer train/eval/ssl` run before anything else."""
    watch = run.pace.stopwatch("python")
    w = world.load_world(world_dir)
    store = w.build_store()
    mem = training.memory_examples(store, w.vocab)
    per = training.perception_examples(w, w.vocab)
    training.injection_pool(store, w.vocab)
    return Opened(w, store, mem, per, watch.stop())


class Setup:
    """Set-up: the open path, plus `extra` (eval-x1's short training, which
    returns its Phase); its time is the open path's plus the training's.  It
    runs once before the loop and then again as a side part of the loop, so
    setup_s and open_s are medians over samples spread across the run."""

    def __init__(self, run: Run, world_dir: str, extra=None):
        self.run = run
        self.world_dir = world_dir
        self.extra = extra
        self.totals: list[float] = []
        self.opens: list[float] = []
        self.extras: list = []

    def __call__(self) -> Opened:
        gc.collect()
        opened = open_path(self.run, self.world_dir)
        total = opened.seconds
        if self.extra is not None:
            phase = self.extra(opened)
            self.extras.append(phase)
            total += phase.seconds
        self.totals.append(total)
        self.opens.append(opened.seconds)
        return opened

    def first(self) -> Opened:
        """The set-up the loop works on.  The objects it leaves alive are then
        frozen out of the garbage collector: otherwise a full collection in any
        later stage walks the whole store and adds a pause that has nothing to
        do with that stage.  Building them is timed here."""
        opened = self()
        run = self.run
        run.check(run.info["gen_digest"] == (opened.vocab.digest(),
                                             opened.store.total_statements()),
                  "the reopened world differs from the generated one")
        run.info["world"] = {"columns": ColumnMap(opened.vocab).n_columns,
                             "positives": opened.store.total_statements(),
                             "examples_per_epoch": opened.examples_per_epoch()}
        gc.collect()
        gc.freeze()
        return opened

    def again(self) -> None:
        self()

    def record(self) -> None:
        self.run.metrics["setup_s"] = median(self.totals)
        self.run.metrics["open_s"] = median(self.opens)


# -- training ----------------------------------------------------------------------


@dataclass
class Phase:
    params: NetParams
    cmap: ColumnMap
    modes: tuple
    seconds: float
    examples: int
    loss: float
    digest: str
    finite: bool


def train_phase(run: Run, op: Opened, epochs: int, pseudo=None, modes=ALL_MODES) -> Phase:
    """A seeded training run from fresh weights with the default TrainConfig,
    restricted to `modes`."""
    vocab = op.vocab
    params = NetParams.init(vocab, NetConfig(feature_dim=op.world.config.feature_dim),
                            substream(run.seed, "init"))
    cmap = ColumnMap(vocab)
    config = TrainConfig(epochs=epochs, seed=run.seed, modes=modes)
    watch = run.pace.stopwatch("numpy")
    history = training.train(params, cmap, vocab, op.store, config, world=op.world,
                             pseudo=pseudo)
    seconds = watch.stop()
    if pseudo is None:
        per_epoch = op.examples_per_epoch(modes)
    else:
        per_epoch = len(modes) * (len(pseudo[0]) + len(pseudo[1]))
    last = [row["loss"] for row in history if row["epoch"] == epochs - 1]
    return Phase(params, cmap, modes, seconds, epochs * per_epoch, float(np.mean(last)),
                 params_digest(params), all(math.isfinite(r["loss"]) for r in history))


def record_training(run: Run, phases: list[Phase]) -> None:
    """train_examples_per_s and train_loss, plus the rerun and finiteness checks.
    Phases that train different modes are grouped by their modes: the rate is
    the examples of one phase of each group over the sum of the groups'
    median times, and the loss is the mean of each group's last loss."""
    groups: dict[tuple, list[Phase]] = {}
    for p in phases:
        groups.setdefault(p.modes, []).append(p)
    seconds = sum(median(p.seconds for p in g) for g in groups.values())
    run.metrics["train_examples_per_s"] = sum(g[0].examples for g in groups.values()) / seconds
    run.metrics["train_loss"] = float(np.mean([g[-1].loss for g in groups.values()]))
    for g in groups.values():
        for p in g:
            run.check(p.finite, "a training loss is not finite")
            run.check((p.digest, p.loss) == (g[0].digest, g[0].loss),
                      "a rerun of a seeded training phase gave other weights or loss")


def pseudo_subset(op: Opened, n_unary: int) -> tuple[list, list]:
    unary, binary = op.per
    return unary[:n_unary], binary[: max(1, n_unary // 2)]


# -- decoding ----------------------------------------------------------------------


def visible_families(vocab) -> tuple:
    return tuple(f for f in sorted(vocab.families) if f != IDENTITY_FAMILY)


def relation_examples(scenes) -> list[dict]:
    return [
        {"scene": s.scene_key, "s_bb": s.bb_key(a), "o_bb": s.bb_key(b), "rel": s.rel_key(i),
         "p": p}
        for s in scenes for i, (a, p, b) in enumerate(s.binaries)
    ]


def check_trace(run: Run, vocab, trace, instance_id) -> None:
    ha = vocab.has_attribute
    ok = all(np.all(np.isfinite(s)) for s in trace.scores.values())
    ok = ok and all(vocab.kind_of(i) is Kind.ENTITY
                    for i in (trace.subject_id, trace.object_id))
    ok = ok and vocab.kind_of(trace.predicate_id) is Kind.PREDICATE and trace.predicate_id != ha
    ok = ok and all(label in vocab.family_members(fam) for fam, label in trace.labels.items())
    ok = ok and trace.instance_id == instance_id
    run.check(ok, f"a {trace.mode} decode returned an id of the wrong kind or a non-finite score")


def decode_streams(run: Run, op: Opened, params: NetParams, cmap: ColumnMap,
                   n: int) -> tuple[int, float]:
    """`bilayer decode` episodic, semantic and fuse streams; returns (passes, seconds)."""
    vocab, store = op.vocab, op.store
    rng = substream(run.seed, "bench-decode")
    instances = store.observed_instances()
    t = instances[int(rng.integers(len(instances)))]
    traces = []

    def draw(mode: str, r, **kwargs) -> dict:
        request = DecodeRequest(mode=mode, subject_support="entities",
                                object_support="entities", **kwargs)
        traces.append((network.decode(params, cmap, vocab, request, r), kwargs))
        return {}

    watch = run.pace.stopwatch("mixed")
    for _ in range(n):
        draw("episodic", rng, instance_id=t)
    for _ in range(n):
        draw("semantic", rng)
    for _ in network.fused_stream(lambda r: draw("semantic", r),
                                  lambda r: draw("episodic", r, instance_id=t),
                                  1.0, store.n_statements(t), rng, n):
        pass
    seconds = watch.stop()
    for trace, kwargs in traces:
        check_trace(run, vocab, trace, kwargs.get("instance_id"))
    return len(traces), seconds


def eval_parts(run: Run, op: Opened, model) -> dict:
    """The side evaluation as separately sampled parts: perception decoding of
    every variant on a fixed ex_test sample, and the cheap experiments.
    `model()` returns the (params, cmap) to evaluate."""
    scenes = op.world.scenes_of_kind("ex_test")[: run.sizes.side_scenes]
    examples = relation_examples(scenes)
    fams = visible_families(op.vocab)
    parts = {}
    for v in VARIANTS:
        parts[f"eval.unary.{v}"] = lambda v=v: evaluation.perception_unary_eval(
            *model(), op.vocab, op.world, scenes, v, families=fams)["mean_unary"]
        parts[f"eval.binary.{v}"] = lambda v=v: evaluation.perception_binary_eval(
            *model(), op.vocab, op.world, examples, v)
    for name in SIDE_EXPERIMENTS:
        parts[f"eval.{name}"] = lambda name=name: experiment(run, EvalContext(
            world=op.world, store=op.store, vocab=op.vocab, params=model()[0],
            cmap=model()[1], train_config=TrainConfig(seed=run.seed), seed=run.seed), name)
    return parts


def record_eval_parts(run: Run, samples: dict) -> None:
    """eval_s is the sum of the parts' median times."""
    run.metrics["eval_s"] = sum(median(d for d, _ in v)
                                for k, v in samples.items() if k.startswith("eval."))
    accs = [acc for _, acc in samples["eval.unary.samp"]]
    run.check(all(math.isfinite(a) for a in accs), "a perception accuracy is not finite")
    run.check(len(set(accs)) == 1, "perception accuracy changed on a rerun")
    run.metrics["perception_acc"] = accs[-1]
    for name in SIDE_EXPERIMENTS:
        for _, report in samples[f"eval.{name}"]:
            check_bitwise(run, name, report)


def experiment(run: Run, ctx: EvalContext, name: str):
    with run.span(f"evaluation.{name}"):
        return evaluation.run_experiment(name, ctx)


def check_bitwise(run: Run, name: str, report) -> None:
    flag = BITWISE_FLAGS.get(name)
    if flag is not None:
        run.check(report.metrics[flag] is True, f"{name}: {flag} is false")


# -- counting queries ---------------------------------------------------------------


@dataclass
class QueryPlan:
    truth: list          # (quad, expected answer)
    pairs: list          # ((c1, c2), expected answer)
    triples: list        # (triple, expected answer)
    n_positive: int
    n_negative: int


def _ratio(num: int, den: int):
    return UNKNOWN if den == 0 else num / den


def query_plan(run: Run, op: Opened) -> QueryPlan:
    """Choose the queries and recount their answers by brute force over full
    iter_positive / iter_negative scans, independently of the store's indexes."""
    store, vocab, sizes = op.store, op.vocab, run.sizes
    ha = vocab.has_attribute
    rng = substream(run.seed, "bench-queries")
    n_pos = store.total_statements()
    n_neg = sum(1 for _ in store.iter_negative())
    picks = {
        True: set(rng.choice(n_pos, size=min(sizes.truth_queries, n_pos), replace=False).tolist()),
        False: set(rng.choice(n_neg, size=min(sizes.truth_queries, n_neg), replace=False).tolist()),
    }
    entities = list(vocab.entities)
    sample = [entities[int(i)] for i in
              rng.choice(len(entities), size=min(sizes.entity_sample, len(entities)), replace=False)]
    wanted = {(s, ha, c): [0, 0] for s in sample for c in vocab.labels}
    sites: dict[tuple, list[set]] = {}
    truth = []
    for y, scan in ((True, store.iter_positive()), (False, store.iter_negative())):
        side = 0 if y else 1
        for i, (s, p, o, t) in enumerate(scan):
            if i in picks[y]:
                truth.append(((s, p, o, t), y))
            if (s, p, o) in wanted:
                wanted[(s, p, o)][side] += 1
            if p == ha:
                sites.setdefault((s, t), [set(), set()])[side].add(o)

    # quads about an entity at an instance whose scene it is not in were never observed
    members = [(vocab.id_of(sc.name), {vocab.id_of(m) for m in sc.members})
               for sc in op.world.scenes if sc.instance]
    labels = list(vocab.labels)
    preds = list(vocab.binary_predicates)
    while len(truth) < len(picks[True]) + len(picks[False]) + sizes.truth_queries:
        t, inside = members[int(rng.integers(len(members)))]
        s = entities[int(rng.integers(len(entities)))]
        if s in inside:
            continue
        if rng.random() < 0.5:
            quad = (s, ha, labels[int(rng.integers(len(labels)))], t)
        else:
            quad = (s, preds[int(rng.integers(len(preds)))],
                    entities[int(rng.integers(len(entities)))], t)
        truth.append((quad, UNKNOWN))

    num: dict[tuple, int] = {}
    neg: dict[tuple, int] = {}
    for pos_labels, neg_labels in sites.values():
        for c1 in pos_labels:
            for c2 in pos_labels:
                num[(c1, c2)] = num.get((c1, c2), 0) + 1
            for c2 in neg_labels:
                neg[(c1, c2)] = neg.get((c1, c2), 0) + 1
    observed = sorted({c for pos_labels, _ in sites.values() for c in pos_labels})
    pairs = [((c1, c2), _ratio(num.get((c1, c2), 0),
                               num.get((c1, c2), 0) + neg.get((c1, c2), 0)))
             for c1 in observed for c2 in labels]
    triples = [(k, _ratio(v[0], v[0] + v[1])) for k, v in wanted.items()]
    run.layer_counts["triple_store.positives"] = n_pos
    run.layer_counts["triple_store.negatives"] = n_neg
    return QueryPlan(truth, pairs, triples, n_pos, n_neg)


QUERY_KINDS = ("truth_of", "label_conditional", "expected_truth", "scan")


def query_round(run: Run, store, plan: QueryPlan) -> tuple[dict, tuple]:
    """One round of each kind of counting query, each kind timed on its own.
    Returns {kind: (queries, seconds)} and the answers.  The cheap kinds are
    asked several times over so that each kind's time is long enough to
    measure.  A scan is consumed in full inside its span, so the span holds
    the whole scan whether the store sorts eagerly or yields lazily."""
    sizes = run.sizes
    timings = {}
    watch = run.pace.stopwatch("python")
    for _ in range(sizes.truth_reps):
        truth = [store.truth_of(*q) for q, _ in plan.truth]
    timings["truth_of"] = (sizes.truth_reps * len(plan.truth), watch.stop())
    watch = run.pace.stopwatch("python")
    pairs = [store.label_conditional(c1, c2) for (c1, c2), _ in plan.pairs]
    timings["label_conditional"] = (len(plan.pairs), watch.stop())
    watch = run.pace.stopwatch("python")
    for _ in range(sizes.expected_reps):
        triples = [store.expected_truth(*k) for k, _ in plan.triples]
    timings["expected_truth"] = (sizes.expected_reps * len(plan.triples), watch.stop())
    watch = run.pace.stopwatch("python")
    with run.span("triple_store.iter_positive"):
        n_pos = sum(1 for _ in store.iter_positive())
    with run.span("triple_store.iter_negative"):
        n_neg = sum(1 for _ in store.iter_negative())
    timings["scan"] = (2, watch.stop())
    return timings, (truth, pairs, triples, n_pos, n_neg)


def _same(got, want) -> bool:
    return got is want if want is UNKNOWN or isinstance(want, bool) else got == want


def check_queries(run: Run, plan: QueryPlan, answers: tuple) -> None:
    truth, pairs, triples, n_pos, n_neg = answers
    for (q, want), got in zip(plan.truth, truth):
        run.check(_same(got, want), f"truth_of{q} = {got!r}, expected {want!r}")
    for (pair, want), got in zip(plan.pairs, pairs):
        run.check(_same(got, want), f"label_conditional{pair} = {got!r}, recount {want!r}")
    for (k, want), got in zip(plan.triples, triples):
        run.check(_same(got, want), f"expected_truth{k} = {got!r}, recount {want!r}")
    run.check((n_pos, n_neg) == (plan.n_positive, plan.n_negative), "a full scan changed length")


def record_queries(run: Run, plan: QueryPlan, rounds: list) -> None:
    """query_per_s is the geometric mean of the per-kind rates (each the
    median over rounds), so every kind weighs the same whatever its volume or
    cost: making any one kind twice as fast raises it by the same 19%."""
    rates = {kind: median_rate(timings[kind] for timings, _ in rounds) for kind in QUERY_KINDS}
    run.metrics["query_per_s"] = math.exp(statistics.fmean(math.log(r) for r in rates.values()))
    seconds = {kind: median(timings[kind][1] for timings, _ in rounds) for kind in QUERY_KINDS}
    run.info["query_per_s_by_kind"] = rates
    run.info["query_round_share"] = {k: v / sum(seconds.values()) for k, v in seconds.items()}
    run.info["query_round_counts"] = {kind: rounds[0][0][kind][0] for kind in QUERY_KINDS}
    for _, answers in rounds:
        check_queries(run, plan, answers)


# -- the workloads ----------------------------------------------------------------------


def measure(run: Run, focus, parts: dict, warmup, period: int = 1) -> tuple[list, dict]:
    """The closed loop.  Call `focus` for the measured seconds, and at least
    `min_loop_calls` times, each call followed by one side part in turn; then
    keep sampling the parts in turn until each has `side_samples`.
    Interleaving spreads every metric's samples over the run, so a slow spell
    of a shared machine reaches few of them.  Warm-up comes first and is
    reported, not measured.  `focus` cycles through `period` kinds of call
    (train-x4's modes).  A traced run makes one untraced cycle before the loop:
    the reference for the tracing overhead.  Returns the focus calls and the
    samples per part, each a (seconds, result) pair."""
    run.info["warmup_s"] = run.timed(warmup)[0]
    reference = None
    if run.tracer is not None:
        with run.untraced():
            reference = sum(run.timed(focus)[0] for _ in range(period))
    names = list(parts)
    samples = {name: [] for name in names}
    turn = 0

    def side_part() -> None:
        nonlocal turn
        name = names[turn % len(names)]
        turn += 1
        samples[name].append(run.timed(parts[name]))

    calls = []
    deadline = time.perf_counter() + run.seconds
    while len(calls) < run.sizes.min_loop_calls or time.perf_counter() < deadline:
        calls.append(run.timed(focus))
        if names:
            side_part()
    while names and min(map(len, samples.values())) < run.sizes.side_samples:
        side_part()
    if reference is not None:
        traced = sum(median(d for i, (d, _) in enumerate(calls) if i % period == k)
                     for k in range(period))
        run.layer_counts["trace.overhead_pct"] = 100.0 * (traced / reference - 1)
    run.info["loop_calls"] = len(calls)
    run.info["samples_s"] = {"loop": [d for d, _ in calls],
                             **{k: [d for d, _ in v] for k, v in samples.items()}}
    return calls, samples


def train_x4(run: Run) -> None:
    with run.stage("gen"):
        world_dir = gen_path(run)
    setup = Setup(run, world_dir)
    with run.stage("setup"):
        op = setup.first()
    with run.stage("recount"):
        plan = query_plan(run, op)
    phases: list[Phase] = []

    def focus() -> None:
        mode = ALL_MODES[len(phases) % len(ALL_MODES)]
        phases.append(train_phase(run, op, 1, modes=(mode,)))

    def model() -> tuple:
        last = next(p for p in reversed(phases) if "perception" in p.modes)
        return last.params, last.cmap

    parts = {
        **eval_parts(run, op, model),
        "decode": lambda: decode_streams(run, op, *model(), run.sizes.stream_passes),
        "query": lambda: query_round(run, op.store, plan),
        "setup": setup.again,
    }
    warm = pseudo_subset(op, run.sizes.warmup_examples)
    with run.stage("loop"):
        _, samples = measure(run, focus, parts,
                             lambda: train_phase(run, op, 1, pseudo=warm),
                             period=len(ALL_MODES))
    setup.record()
    record_training(run, phases)
    record_eval_parts(run, samples)
    run.metrics["decode_per_s"] = median_rate(r for _, r in samples["decode"])
    record_queries(run, plan, [r for _, r in samples["query"]])


def ssl_cli_path(run: Run, world_dir: str, params: NetParams) -> None:
    """`bilayer ssl`: reopen the world, grow on the unlabeled shard, write to the store."""
    w = world.load_world(world_dir)
    store = w.build_store()
    unlabeled = [s.name for s in w.scenes_of_kind("unlabeled")]
    grown, _, report = training.ssl_step(params.copy(), ColumnMap(w.vocab), w.vocab, w,
                                         unlabeled, TrainConfig(seed=run.seed), store=store)
    run.check(all(np.array_equal(getattr(params, k), getattr(grown, k)) for k in FROZEN_BY_SSL),
              "ssl_step changed a frozen block")
    run.check(all(math.isfinite(r["loss"]) for r in report.history), "an ssl loss is not finite")
    ha = w.vocab.has_attribute
    run.check(all(store.truth_of(ex["s"], ha, ex["o"], ex["t"]) is True
                  for ex in report.pseudo_unary if ex["fam"] != IDENTITY_FAMILY)
              and all(store.truth_of(ex["s"], ex["p"], ex["o"], ex["t"]) is True
                      for ex in report.pseudo_binary),
              "ssl_step did not record its pseudo-statements in the store")


def eval_x1(run: Run) -> None:
    with run.stage("gen"):
        world_dir = gen_path(run)
    epochs = run.sizes.eval_train_epochs
    setup = Setup(run, world_dir, lambda o: train_phase(run, o, epochs))
    with run.stage("setup"):
        op = setup.first()
    params, cmap = setup.extras[0].params, setup.extras[0].cmap
    ctx = EvalContext(world=op.world, store=op.store, vocab=op.vocab, params=params, cmap=cmap,
                      train_config=TrainConfig(seed=run.seed), seed=run.seed)
    with run.stage("recount"):
        plan = query_plan(run, op)

    def focus() -> dict:
        reports = {name: experiment(run, ctx, name) for name in EVAL_EXPERIMENTS}
        ssl_cli_path(run, world_dir, params)
        return reports

    def warmup() -> None:
        scenes = op.world.scenes_of_kind("ex_test")[:2]
        for v in VARIANTS:
            evaluation.perception_unary_eval(params, cmap, op.vocab, op.world, scenes, v)
        decode_streams(run, op, params, cmap, 2)

    parts = {
        "decode": lambda: decode_streams(run, op, params, cmap, 4 * run.sizes.stream_passes),
        "query": lambda: query_round(run, op.store, plan),
        "setup": setup.again,
    }
    with run.stage("loop"):
        calls, samples = measure(run, focus, parts, warmup)
    setup.record()
    record_training(run, setup.extras)
    run.metrics["eval_s"] = median(d for d, _ in calls)
    run.metrics["decode_per_s"] = median_rate(r for _, r in samples["decode"])
    reports = [r for _, r in calls]
    run.metrics["perception_acc"] = reports[-1]["perception-unary"].metrics["ex"]["samp"]
    first = [json.dumps(rep.to_dict(volatile=False), sort_keys=True) for rep in reports[0].values()]
    for r in reports:
        for name, report in r.items():
            check_bitwise(run, name, report)
        again = [json.dumps(rep.to_dict(volatile=False), sort_keys=True) for rep in r.values()]
        run.check(again == first, "an experiment report changed on a rerun")
    record_queries(run, plan, [r for _, r in samples["query"]])


def world_x10(run: Run) -> None:
    with run.stage("gen"):
        world_dir = gen_path(run)
    setup = Setup(run, world_dir)
    with run.stage("setup"):
        op = setup.first()
    with run.stage("recount"):
        plan = query_plan(run, op)
    pseudo = pseudo_subset(op, run.sizes.pseudo_examples)
    first = train_phase(run, op, 1, pseudo=pseudo)

    def model() -> tuple:
        return first.params, first.cmap

    warm = QueryPlan(plan.truth[:50], plan.pairs[:5], plan.triples[:50], plan.n_positive,
                     plan.n_negative)
    parts = {
        "train": lambda: train_phase(run, op, 1, pseudo=pseudo),
        **eval_parts(run, op, model),
        "decode": lambda: decode_streams(run, op, *model(), run.sizes.stream_passes),
        "setup": setup.again,
    }
    with run.stage("loop"):
        calls, samples = measure(run, lambda: query_round(run, op.store, plan), parts,
                                 lambda: query_round(run, op.store, warm))
    setup.record()
    record_queries(run, plan, [r for _, r in calls])
    phases = [p for _, p in samples["train"]]
    record_training(run, phases)
    run.check(first.digest == phases[0].digest, "a rerun of a seeded training phase gave other weights")
    record_eval_parts(run, samples)
    run.metrics["decode_per_s"] = median_rate(r for _, r in samples["decode"])


WORKLOADS = {"train-x4": train_x4, "eval-x1": eval_x1, "world-x10": world_x10}


def run_workload(run: Run) -> None:
    WORKLOADS[run.workload](run)
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.info["pace"] = run.pace.summary()
    run.info["error_rate"] = run.failed / max(run.attempted, 1)
