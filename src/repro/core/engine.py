"""End-to-end latency-aware inference (the paper's headline system).

The engine executes Algorithm 2 against the hardware model: layer 1 runs
at nominal V/F, the layer-1 entropy consults the EE-predictor LUT, the
DVFS controller drops the supply to the lowest point that still meets the
per-sentence latency target for the predicted remaining work, and the
entropy check keeps running up to the predicted layer (where termination
is forced, preserving the timing guarantee).

Four execution modes reproduce Fig. 9's bars:

* ``base`` — all layers at nominal V/F, no exits;
* ``ee`` — Algorithm 1 (latency-unbounded early exit) at nominal V/F;
* ``lai`` — Algorithm 2 with sentence-level DVFS;
* ``lai`` with AAS + sparse — the same plus adaptive-span predication and
  compressed sparse execution in the datapath.

Two pricing paths produce those bars:

* a **vectorized batch kernel** (the default): stateless module-level
  functions (:func:`price_base_batch`, :func:`price_early_exit_batch`,
  :func:`price_latency_aware_batch`) that price all N sentences with
  array operations — the exit search, the DVFS plan
  (:meth:`repro.dvfs.DvfsController.plan_batch`) and the per-layer
  energy/latency accumulation all run over the whole batch at once,
  against per-operating-point layer costs precomputed once per engine
  (:class:`PricingTables`, rail-coded so a plan prices by gathers).
  :meth:`LatencyAwareEngine.price_columns` hands back those columns
  unboxed, and :func:`results_from_arrays` is the one place they become
  :class:`SentenceResult` rows. ``lai`` pricing splits at
  :func:`lai_exit_columns`: the layer-1 exit, LUT prediction and bounded
  exit never read the latency target, so a profile derives them once. A
  deadline-budget batch of a profile's sentences reads its members'
  planner inputs from per-sentence lists of them
  (:func:`lai_member_lists`) and prices its plan in Python floats
  (:func:`price_deadline_members`); a one-member batch picks its row
  from per-rail-code columns (:func:`lai_singleton_columns`) without
  planning;
* the original **scalar reference path** (``vectorized=False`` or the
  ``run_*`` methods), kept as the oracle the batch kernels are tested
  against to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from repro.config import HwConfig
from repro.dvfs import DeadlineBudget, DvfsController
from repro.dvfs.deadline import DEADLINE_TOL_NS
from repro.earlyexit.algorithms import bounded_exit_layers
from repro.earlyexit.predictor import true_exit_layers
from repro.errors import PipelineError
from repro.hw.accelerator import AcceleratorModel
from repro.hw.memories import ReramBufferModel
from repro.hw.workload import build_embedding_workload, build_encoder_workload


@dataclass(frozen=True)
class SentenceResult:
    """Cost and outcome of one sentence inference."""

    exit_layer: int
    predicted_layer: int
    prediction: int
    latency_ms: float
    energy_mj: float
    vdd: float  # operating voltage of the post-prediction layers
    freq_ghz: float
    met_target: bool


@dataclass
class EngineReport:
    """Aggregate over a dataset."""

    results: list = field(default_factory=list)

    def append(self, result):
        self.results.append(result)

    def extend(self, results):
        self.results.extend(results)

    def __len__(self):
        return len(self.results)

    @property
    def total_energy_mj(self):
        return float(np.sum([r.energy_mj for r in self.results]))

    @property
    def total_latency_ms(self):
        return float(np.sum([r.latency_ms for r in self.results]))

    @property
    def average_energy_mj(self):
        return float(np.mean([r.energy_mj for r in self.results]))

    @property
    def average_latency_ms(self):
        return float(np.mean([r.latency_ms for r in self.results]))

    @property
    def average_exit_layer(self):
        return float(np.mean([r.exit_layer for r in self.results]))

    @property
    def average_predicted_layer(self):
        return float(np.mean([r.predicted_layer for r in self.results]))

    @property
    def average_vdd(self):
        return float(np.mean([r.vdd for r in self.results]))

    @property
    def average_freq_ghz(self):
        return float(np.mean([r.freq_ghz for r in self.results]))

    @property
    def target_violations(self):
        return sum(not r.met_target for r in self.results)

    def accuracy(self, labels):
        predictions = np.array([r.prediction for r in self.results])
        return float((predictions == np.asarray(labels)).mean())


@dataclass(frozen=True)
class PricingTables:
    """Precomputed per-operating-point layer costs for the batch kernels.

    Everything the vectorized pricing needs, frozen after one pass over
    the V/F table: the nominal front-end costs and, per operating point,
    vectors in *rail codes* — index 0 is the nominal point and index
    ``i + 1`` row ``i`` of the controller's
    :class:`~repro.dvfs.VoltageFrequencyTable` (see
    :attr:`~repro.dvfs.controller.BatchPlan.rail_codes`) — so a kernel
    prices a plan with one gather per quantity: scaled encoder-layer
    time and energy, the LDO overhead a rail move charges on that layer
    energy, and the *front end* (embedding stage + encoder layer 1)
    time and energy. The deadline-aware path needs the front ends per
    operating point because a batch planned against a shared deadline
    runs every front end after the first on the batch rail instead of
    sprinting it at nominal V/F. ``rail_front_energy_pj`` includes the
    eNVM embedding read (``embedding_read_pj``), a per-sentence constant
    that does not scale with the logic rail.
    """

    num_layers: int
    nominal_vdd: float
    nominal_freq_ghz: float
    embed_time_ns: float
    embed_energy_pj: float
    embedding_read_pj: float
    layer_time_ns: float
    layer_energy_pj: float
    layer_cycles: int
    rail_layer_time_ns: np.ndarray
    rail_layer_energy_pj: np.ndarray
    rail_overhead_pj: np.ndarray
    rail_front_time_ns: np.ndarray
    rail_front_energy_pj: np.ndarray


# -- stateless batch pricing kernels ----------------------------------------------


def price_base_batch(tables, n):
    """Vectorized ``base`` pricing: N identical full-depth inferences."""
    num_layers = tables.num_layers
    energy = (tables.embed_energy_pj + tables.embedding_read_pj
              + num_layers * tables.layer_energy_pj)
    time_ns = tables.embed_time_ns + num_layers * tables.layer_time_ns
    ones = np.ones(n)
    return {
        "exit_layer": np.full(n, num_layers, dtype=np.int64),
        "predicted_layer": np.full(n, num_layers, dtype=np.int64),
        "latency_ms": ones * (time_ns * 1e-6),
        "energy_mj": ones * (energy * 1e-9),
        "vdd": ones * tables.nominal_vdd,
        "freq_ghz": ones * tables.nominal_freq_ghz,
        "met_target": np.ones(n, dtype=bool),
    }


def price_early_exit_batch(tables, exit_layers):
    """Vectorized ``ee`` pricing from per-sentence exit layers."""
    exits = np.asarray(exit_layers, dtype=np.int64)
    energy = (tables.embed_energy_pj + tables.embedding_read_pj
              + exits * tables.layer_energy_pj)
    time_ns = tables.embed_time_ns + exits * tables.layer_time_ns
    n = exits.size
    return {
        "exit_layer": exits,
        "predicted_layer": exits.copy(),
        "latency_ms": time_ns * 1e-6,
        "energy_mj": energy * 1e-9,
        "vdd": np.full(n, tables.nominal_vdd),
        "freq_ghz": np.full(n, tables.nominal_freq_ghz),
        "met_target": np.ones(n, dtype=bool),
    }


def _taken(predictions, priced):
    """The class each sentence predicts at its priced exit layer."""
    exits = priced["exit_layer"]
    return predictions[exits - 1, np.arange(exits.size)]


def lai_exit_columns(tables, entropies, lut, entropy_threshold,
                     predictions=None, deadline=False):
    """Algorithm 2's per-sentence exit columns, none of which read a target.

    ``exit1`` is the layer-1 exit flag, ``predicted`` the clipped LUT
    prediction, ``exit_layer`` the bounded exit layer (1 for layer-1
    exits) and — given the (L, N) per-layer ``predictions`` — ``taken``
    the class predicted there. ``deadline=True`` adds the deadline
    planner's inputs: ``remaining`` cycles (0 for layer-1 exits: a
    batch budget must not reserve layers they never run) and
    ``layer_ns``, the (N, R+1) predicted post-front time on every rail
    code; the per-sentence path, which prices whole-profile tables,
    skips those temporaries. All are pure in (task, sentence,
    hardware), so a profile computes them once
    (:meth:`repro.serving.TaskProfile.deadline_columns`) and its
    batches read their members' rows.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    num_layers = entropies.shape[0]
    if num_layers != tables.num_layers:
        raise PipelineError(
            f"expected {tables.num_layers} entropies, got {num_layers}")
    exit1 = entropies[0] < entropy_threshold
    predicted = np.clip(np.asarray(lut.predict(entropies[0]),
                                   dtype=np.int64), 1, num_layers)
    exit_layer = np.where(
        exit1, 1, bounded_exit_layers(entropies, entropy_threshold,
                                      predicted))
    columns = {"exit1": exit1, "predicted": predicted,
               "exit_layer": exit_layer}
    if predictions is not None:
        columns["taken"] = _taken(predictions, columns)
    if deadline:
        remaining = np.where(exit1, 0.0,
                             (predicted - 1) * float(tables.layer_cycles))
        columns["remaining"] = remaining
        columns["layer_ns"] = ((remaining / float(tables.layer_cycles))
                               [:, None] * tables.rail_layer_time_ns)
    return columns


def lai_singleton_columns(tables, dvfs, columns):
    """Per-rail-code deadline pricing of each sentence as a lone batch.

    ``columns`` are a whole profile's :func:`lai_exit_columns` with
    ``taken`` and the planner's inputs. Each (N, R+1) column holds code
    ``c`` in column ``c``: ``time_ns``, the planner's predicted time of
    the shared level on ``c`` (a sentence with no post-front work holds
    the nominal rail); ``deadline_ns``/``deadline_pj``, the deadline row
    with its layers on ``c``; ``per_sentence_ns``/``per_sentence_pj``,
    the per-sentence fallback row planned at ``c``, whose front energy
    and LDO charge differ. Built with the kernels' own elementwise
    formulas, so each entry is the kernel's float for that sentence and
    code; :func:`price_singleton_deadline` picks from them.
    """
    codes = np.arange(tables.rail_layer_time_ns.size)
    moves = dvfs.rail_move_ns[0, codes]
    remaining = columns["remaining"]
    wake = (remaining <= 0)[:, None]
    scaled = (columns["exit_layer"] - 1)[:, None]
    deadline_ns, deadline_pj = _deadline_rows(tables, scaled, codes, 0,
                                              moves, moves > 0)
    per_ns, per_pj = _per_sentence_rows(
        tables, dvfs, columns["exit1"][:, None], scaled, codes)
    return {
        "time_ns": (tables.rail_front_time_ns[0]
                    + np.where(wake, moves[0], moves) + columns["layer_ns"]),
        "deadline_ns": deadline_ns,
        "deadline_pj": deadline_pj,
        "per_sentence_ns": per_ns,
        "per_sentence_pj": per_pj,
        "predicted_layer": np.where(columns["exit1"], 1,
                                    columns["predicted"]),
        "exit_layer": columns["exit_layer"],
        "taken": columns["taken"],
        "remaining": remaining,
    }


def price_latency_aware_batch(tables, dvfs, entropies, lut,
                              entropy_threshold, target_ms):
    """Vectorized Algorithm 2 over all N sentences at once.

    The per-sentence loop of :meth:`LatencyAwareEngine.run_latency_aware`
    becomes four array passes: (1) the layer-1 immediate-exit test, (2)
    the LUT prediction and (3) the bounded first-below-threshold exit
    search (:func:`lai_exit_columns`), then (4) the batch DVFS plan and
    closed-form accumulation of the scaled layers' time/energy
    (:func:`price_latency_aware_columns`).
    """
    return price_latency_aware_columns(
        tables, dvfs, lai_exit_columns(tables, entropies, lut,
                                       entropy_threshold), target_ms)


def price_latency_aware_columns(tables, dvfs, columns, target_ms):
    """Per-sentence Algorithm 2 pricing of :func:`lai_exit_columns`.

    Each sentence is planned against the full per-sentence target from
    its nominal front end, then its scaled layers, the rail move down
    from nominal and the LDO overhead are gathered from the rail-coded
    :class:`PricingTables` vectors (:func:`_price_per_sentence_plan`).
    """
    remaining = (columns["predicted"] - 1) * tables.layer_cycles
    plan = dvfs.plan_batch(remaining, target_ms * 1e6, _front_time_ns(tables))
    return _price_per_sentence_plan(tables, dvfs, columns, plan, target_ms)


def _price_per_sentence_plan(tables, dvfs, columns, plan, target_ms):
    """:func:`price_latency_aware_columns` from its per-sentence ``plan``.

    ``plan`` holds the controller's per-sentence decisions for every
    sentence that does not exit at layer 1 (rows of layer-1 exits read
    none of it): :meth:`~repro.dvfs.DvfsController.plan_batch`'s, or a
    deadline planner's fallback plan, which takes the same decisions.
    """
    exit1 = columns["exit1"]
    target_ns = target_ms * 1e6
    elapsed, energy = _per_sentence_rows(
        tables, dvfs, exit1, columns["exit_layer"] - 1, plan.rail_codes)
    # Sentences whose layer-1 entropy already cleared the threshold never
    # consult the predictor or the DVFS controller; they still miss an
    # infeasible target (the front end ran at nominal V/F regardless).
    met = (elapsed <= target_ns + 1e-6) & (exit1 | plan.meets_target)
    return {
        "exit_layer": columns["exit_layer"],
        "predicted_layer": np.where(exit1, 1, columns["predicted"]),
        "latency_ms": elapsed * 1e-6,
        "energy_mj": energy * 1e-9,
        "vdd": np.where(exit1, tables.nominal_vdd, plan.vdd),
        "freq_ghz": np.where(exit1, tables.nominal_freq_ghz, plan.freq_ghz),
        "met_target": met,
    }


def _front_time_ns(tables):
    """Embedding stage + encoder layer 1 at nominal V/F."""
    return tables.embed_time_ns + tables.layer_time_ns


def _per_sentence_rows(tables, dvfs, exit1, scaled_layers, rail):
    """Per-sentence ``lai`` (elapsed ns, energy pJ) on rail codes ``rail``.

    The nominal front end, one rail move down, the ``scaled_layers`` on
    ``rail`` and the move's LDO overhead; layer-1 exits pay the front
    end only. Elementwise, so arguments broadcast.
    """
    front_time = _front_time_ns(tables)
    front_energy = (tables.embed_energy_pj + tables.embedding_read_pj
                    + tables.layer_energy_pj)
    elapsed = (front_time + dvfs.rail_move_ns[0, rail]
               + scaled_layers * tables.rail_layer_time_ns[rail])
    energy = (front_energy + scaled_layers * tables.rail_layer_energy_pj[rail]
              + tables.rail_overhead_pj[rail])
    return (np.where(exit1, front_time, elapsed),
            np.where(exit1, front_energy, energy))


def _deadline_rows(rails, scaled_layers, rail, front, transition,
                   rail_changed):
    """Deadline-plan (elapsed ns, energy pJ) of a rail schedule.

    Fronts on code ``front``, the planner's ``transition``, then the
    ``scaled_layers`` on ``rail``; LDO overhead only where the rail
    changes (the overhead is non-negative, so a ``False`` flag times it
    is exactly 0.0). ``rails`` holds the rail-coded vectors: the
    :class:`PricingTables`, whose arrays gather and broadcast, or a
    profile's :func:`lai_member_lists` ``"rails"``, whose Python lists
    price one sentence of a plan in Python floats.
    """
    elapsed = (rails.rail_front_time_ns[front] + transition
               + scaled_layers * rails.rail_layer_time_ns[rail])
    energy = (rails.rail_front_energy_pj[front]
              + scaled_layers * rails.rail_layer_energy_pj[rail]
              + rail_changed * rails.rail_overhead_pj[rail])
    return elapsed, energy


def price_latency_aware_deadline_columns(tables, dvfs, columns, target_ms,
                                         deadline_ms):
    """Deadline-budget pricing of one batch's :func:`lai_exit_columns`.

    The columns carry the planner's inputs (``deadline=True``);
    :meth:`LatencyAwareEngine.simulate_dataset` computes them over its
    arguments. The planner reads the sentences' rail-coded layer times
    and the engine's rail-coded front times; the plan is then priced by
    gathers over the same codes (:func:`_deadline_rows`). When the
    planner falls back, the same columns are priced per sentence.
    :func:`price_deadline_members` prices a batch of a profile's
    sentences the same way, from per-sentence lists.
    """
    target_ns = target_ms * 1e6
    deadline_ns = max(float(deadline_ms), 0.0) * 1e6
    plan = dvfs.plan_batch_deadline(
        columns["remaining"], DeadlineBudget(deadline_ns, target_ns),
        _front_time_ns(tables),
        rail_layer_ns=columns["layer_ns"],
        rail_front_ns=tables.rail_front_time_ns)
    if plan.fallback:
        return _price_per_sentence_plan(tables, dvfs, columns, plan,
                                        target_ms)

    elapsed, energy = _deadline_rows(
        tables, columns["exit_layer"] - 1,  # 0 for layer-1 exits
        plan.rail_codes, plan.front_codes, plan.transition_ns,
        plan.rail_changed)
    return {
        "exit_layer": columns["exit_layer"],
        "predicted_layer": np.where(columns["exit1"], 1,
                                    columns["predicted"]),
        "latency_ms": elapsed * 1e-6,
        "energy_mj": energy * 1e-9,
        "vdd": plan.vdd,
        "freq_ghz": plan.freq_ghz,
        "met_target": plan.meets_target.copy(),
    }


def lai_member_lists(tables, columns):
    """A profile's deadline columns as per-sentence Python lists.

    ``columns`` are the whole profile's :func:`lai_exit_columns` with
    ``taken`` and the planner's inputs. Returns the planner's inputs
    (``remaining``, and ``layer_ns`` as one list of rail-coded times per
    sentence), the row fields ``exit_layer``, ``predicted_layer`` and
    ``taken``, and under ``"rails"`` the rail-coded :class:`PricingTables`
    vectors as Python lists: what :func:`price_deadline_members` reads
    for a batch, indexed by sentence, without a gather. A sentence's
    layer times depend only on its predicted layer, so sentences with
    equal rows share one list.
    """
    rows = {}
    return {
        "remaining": columns["remaining"].tolist(),
        "layer_ns": [rows.setdefault(tuple(row), row)
                     for row in columns["layer_ns"].tolist()],
        "exit_layer": columns["exit_layer"].tolist(),
        "predicted_layer": np.where(columns["exit1"], 1,
                                    columns["predicted"]).tolist(),
        "taken": columns["taken"].tolist(),
        "rails": SimpleNamespace(**{
            name: getattr(tables, name).tolist() for name in (
                "rail_layer_time_ns", "rail_layer_energy_pj",
                "rail_overhead_pj", "rail_front_time_ns",
                "rail_front_energy_pj")}),
    }


def price_deadline_members(tables, dvfs, columns, lists, sentences,
                           target_ms, deadline_ms):
    """Deadline-budget rows of one batch of a profile's ``sentences``.

    :func:`price_latency_aware_deadline_columns` for the batch, read
    from the profile's whole-profile ``columns`` and their
    :func:`lai_member_lists` ``lists`` (``sentences`` are Python ints):
    the planner gets the members' inputs as lists, and a planned batch's
    rows are priced from the plan in Python floats by
    :func:`_deadline_rows`. A fallback plan gathers the members' columns
    and prices them per sentence. Returns one :class:`SentenceResult`
    per member.
    """
    deadline_ns = max(float(deadline_ms), 0.0) * 1e6
    plan = dvfs.plan_batch_deadline(
        [lists["remaining"][i] for i in sentences],
        DeadlineBudget(deadline_ns, target_ms * 1e6),
        _front_time_ns(tables),
        rail_layer_ns=[lists["layer_ns"][i] for i in sentences],
        rail_front_ns=lists["rails"].rail_front_time_ns)
    if plan.fallback:
        idx = np.array(sentences, dtype=np.int64)
        gathered = {name: columns[name][idx] for name in
                    ("exit1", "predicted", "exit_layer", "taken")}
        return results_from_arrays(_price_per_sentence_plan(
            tables, dvfs, gathered, plan, target_ms), gathered["taken"])
    rails = lists["rails"]
    exit_layer = lists["exit_layer"]
    predicted = lists["predicted_layer"]
    taken = lists["taken"]
    rows = []
    for i, rail, front, transition, changed, vdd, freq, met in zip(
            sentences, plan.rail_codes.tolist(), plan.front_codes.tolist(),
            plan.transition_ns.tolist(), plan.rail_changed.tolist(),
            plan.vdd.tolist(), plan.freq_ghz.tolist(),
            plan.meets_target.tolist()):
        elapsed, energy = _deadline_rows(rails, exit_layer[i] - 1, rail,
                                         front, transition, changed)
        rows.append(SentenceResult(exit_layer[i], predicted[i], taken[i],
                                   elapsed * 1e-6, energy * 1e-9, vdd,
                                   freq, met))
    return rows


def price_singleton_deadline(tables, dvfs, singles, sentence, target_ms,
                             deadline_ms):
    """One sentence's deadline-budget row, picked from its columns.

    The row :func:`price_latency_aware_deadline_columns` prices for a
    one-member batch of ``sentence``, read from ``singles``
    (:func:`lai_singleton_columns`): with ``b`` the controller's own
    per-sentence row (:meth:`~repro.dvfs.DvfsController.plan_row`), the
    first level code in ``1..b + 1`` whose time fits the budget, else
    the per-sentence row. :mod:`repro.dvfs.deadline` shows why that is
    the planner's answer for n = 1.
    """
    budget = DeadlineBudget(max(float(deadline_ms), 0.0) * 1e6,
                            float(target_ms) * 1e6)
    remaining = singles["remaining"].item(sentence)
    row, meets, _ = dvfs.plan_row(remaining, budget.target_ns,
                                  _front_time_ns(tables))
    rail = row + 1
    planned = False
    if budget.deadline_ns > 0:
        top = row if row >= 0 else len(dvfs.table) - 1
        fits = (singles["time_ns"][sentence, 1:top + 2]
                <= budget.deadline_ns + DEADLINE_TOL_NS)
        level = int(fits.argmax())
        if fits[level]:
            # A sentence with no post-front work holds the nominal rail.
            rail = level + 1 if remaining > 0 else 0
            planned = True
    kind = "deadline" if planned else "per_sentence"
    elapsed = singles[kind + "_ns"].item(sentence, rail)
    energy = singles[kind + "_pj"].item(sentence, rail)
    return SentenceResult(
        exit_layer=singles["exit_layer"].item(sentence),
        predicted_layer=singles["predicted_layer"].item(sentence),
        prediction=singles["taken"].item(sentence),
        latency_ms=elapsed * 1e-6, energy_mj=energy * 1e-9,
        vdd=dvfs.table.rail_voltages.item(rail),
        freq_ghz=dvfs.table.rail_frequencies.item(rail),
        met_target=planned or (elapsed <= budget.target_ns + 1e-6
                               and meets))


#: :class:`SentenceResult` fields in constructor order; all but
#: ``prediction`` are kernel column names.
_ROW_FIELDS = tuple(f.name for f in fields(SentenceResult))


def results_from_arrays(priced, predictions, index=None):
    """Box per-sentence pricing arrays into :class:`SentenceResult` rows.

    ``priced`` is a kernel's column dict and ``predictions`` the class
    taken at each sentence's exit layer. ``index`` picks the rows to box
    (all of them when None). This is the only place kernel columns turn
    into row objects (:func:`price_singleton_deadline` boxes its one
    picked row with ``item``): ``tolist`` hands back exactly the Python
    int/float/bool an elementwise ``int()``/``float()``/``bool()`` would.
    """
    columns = [predictions if name == "prediction" else priced[name]
               for name in _ROW_FIELDS]
    if index is not None:
        columns = [column[index] for column in columns]
    return list(map(SentenceResult,
                    *(column.tolist() for column in columns)))


class LatencyAwareEngine:
    """Prices Algorithm 2 (and the baselines) on the accelerator model."""

    def __init__(self, model_config, hw_config=None, spans=None,
                 activation_density=0.60, weight_density=1.0,
                 embedding_density=0.40, use_adaptive_span=False,
                 sparse_execution=False, seq_len=None, tech=None):
        self.model_config = model_config
        self.hw_config = hw_config or HwConfig.energy_optimal()
        # Everything needed to re-price the same workload on different
        # hardware (heterogeneous pools re-instantiate the engine per
        # device HwConfig via with_hw_config).
        self._variant_kwargs = dict(
            spans=spans, activation_density=activation_density,
            weight_density=weight_density,
            embedding_density=embedding_density,
            use_adaptive_span=use_adaptive_span,
            sparse_execution=sparse_execution, seq_len=seq_len, tech=tech)
        self.accelerator = AcceleratorModel(self.hw_config, tech=tech)
        self.dvfs = DvfsController(self.hw_config.dvfs)
        self.reram = ReramBufferModel()
        self.seq_len = int(seq_len or model_config.max_seq_len)
        self.sparse_execution = sparse_execution
        self._embedding_density = embedding_density

        self.layer_workload = build_encoder_workload(
            model_config, seq_len=self.seq_len,
            spans=spans if use_adaptive_span else None,
            activation_density=activation_density if sparse_execution else 1.0,
            weight_density=weight_density if sparse_execution else 1.0,
            use_adaptive_span=use_adaptive_span)
        self.embed_workload = build_embedding_workload(
            model_config, seq_len=self.seq_len,
            embedding_density=embedding_density)

        # Each workload's PU/SFU activity is simulated once; every
        # operating point the engine prices evaluates it (metrics_at).
        self._layer_activity = self.accelerator.simulate_activity(
            self.layer_workload, sparse_execution=sparse_execution)
        self._embed_activity = self.accelerator.simulate_activity(
            self.embed_workload, sparse_execution=sparse_execution)
        nominal_vdd, nominal_freq = self.dvfs.table.nominal_point()
        self._nominal = (nominal_vdd, nominal_freq)
        self._layer_nominal = self._layer_at(nominal_vdd, nominal_freq)
        self._embed_nominal = self._embed_at(nominal_vdd, nominal_freq)
        self._pricing_tables = None

    # -- building blocks ---------------------------------------------------------

    def _embedding_read_energy_pj(self):
        """ReRAM gather of the sentence's token embedding rows."""
        row_bytes = self.model_config.embedding_size  # FP8: 1 B per value
        data = self.seq_len * row_bytes * self._embedding_density
        mask = self.seq_len * row_bytes / 8.0
        return self.reram.read_energy_pj(data, mask)

    def _layer_at(self, vdd, freq_ghz):
        return self.accelerator.metrics_at(self._layer_activity, vdd=vdd,
                                           freq_ghz=freq_ghz)

    def _embed_at(self, vdd, freq_ghz):
        return self.accelerator.metrics_at(self._embed_activity, vdd=vdd,
                                           freq_ghz=freq_ghz)

    @property
    def layer_cycles(self):
        return self._layer_nominal.cycles

    def with_hw_config(self, hw_config):
        """An engine pricing the *same* workload on different hardware.

        Rebuilds the accelerator/DVFS models (and hence the per-device
        :class:`PricingTables`) around ``hw_config`` while keeping the
        model architecture, spans and densities — the per-accelerator
        pricing a heterogeneous cluster pool needs. Returns ``self``
        when the hardware already matches.
        """
        if hw_config is None or hw_config == self.hw_config:
            return self
        return type(self)(self.model_config, hw_config,
                          **self._variant_kwargs)

    def pricing_tables(self):
        """Precomputed :class:`PricingTables` for the batch kernels.

        Built lazily on first vectorized call: one
        :meth:`~repro.hw.accelerator.AcceleratorModel.metrics_at`
        evaluation of each workload's activity (simulated once, at
        construction) per V/F-table row (≈13 rows) replaces the
        per-sentence evaluation of the scalar path.
        """
        if self._pricing_tables is None:
            # Rail code 0 is the nominal point, code i + 1 table row i.
            points = [(self._layer_nominal, self._embed_nominal)] + [
                (self._layer_at(vdd, freq), self._embed_at(vdd, freq))
                for vdd, freq in self.dvfs.table.rows()]
            layer_energy = np.array([layer.energy_pj
                                     for layer, _ in points])
            read = self._embedding_read_energy_pj()
            nominal_vdd, nominal_freq = self._nominal
            self._pricing_tables = PricingTables(
                num_layers=self.model_config.num_layers,
                nominal_vdd=nominal_vdd,
                nominal_freq_ghz=nominal_freq,
                embed_time_ns=self._embed_nominal.time_ns,
                embed_energy_pj=self._embed_nominal.energy_pj,
                embedding_read_pj=read,
                layer_time_ns=self._layer_nominal.time_ns,
                layer_energy_pj=self._layer_nominal.energy_pj,
                layer_cycles=self._layer_nominal.cycles,
                rail_layer_time_ns=np.array([layer.time_ns
                                             for layer, _ in points]),
                rail_layer_energy_pj=layer_energy,
                rail_overhead_pj=self.dvfs.ldo.overhead_energy_pj(
                    layer_energy * 0.02, self.dvfs.table.rail_voltages),
                rail_front_time_ns=np.array(
                    [embed.time_ns + layer.time_ns
                     for layer, embed in points]),
                rail_front_energy_pj=np.array(
                    [embed.energy_pj + layer.energy_pj
                     for layer, embed in points]) + read,
            )
        return self._pricing_tables

    # -- execution modes (scalar reference path) ---------------------------------

    def run_conventional(self, prediction):
        """Full 12-layer inference at nominal V/F (Fig. 1a)."""
        num_layers = self.model_config.num_layers
        energy = (self._embed_nominal.energy_pj
                  + self._embedding_read_energy_pj()
                  + num_layers * self._layer_nominal.energy_pj)
        time_ns = (self._embed_nominal.time_ns
                   + num_layers * self._layer_nominal.time_ns)
        vdd, freq = self._nominal
        return SentenceResult(
            exit_layer=num_layers, predicted_layer=num_layers,
            prediction=int(prediction), latency_ms=time_ns * 1e-6,
            energy_mj=energy * 1e-9, vdd=vdd, freq_ghz=freq, met_target=True)

    def run_early_exit(self, exit_layer, prediction):
        """Algorithm 1 at nominal V/F (latency-unbounded early exit)."""
        exit_layer = int(exit_layer)
        energy = (self._embed_nominal.energy_pj
                  + self._embedding_read_energy_pj()
                  + exit_layer * self._layer_nominal.energy_pj)
        time_ns = (self._embed_nominal.time_ns
                   + exit_layer * self._layer_nominal.time_ns)
        vdd, freq = self._nominal
        return SentenceResult(
            exit_layer=exit_layer, predicted_layer=exit_layer,
            prediction=int(prediction), latency_ms=time_ns * 1e-6,
            energy_mj=energy * 1e-9, vdd=vdd, freq_ghz=freq, met_target=True)

    def run_latency_aware(self, entropies, lut, entropy_threshold,
                          target_ms, prediction_at):
        """Algorithm 2 for one sentence (scalar reference).

        ``entropies`` is the sentence's per-layer entropy vector (layer 1
        first); ``prediction_at(layer)`` returns the class predicted at a
        1-based layer. The returned exit layer is
        min(first-below-threshold, LUT prediction).
        """
        entropies = np.asarray(entropies, dtype=np.float64)
        num_layers = self.model_config.num_layers
        if entropies.shape[0] != num_layers:
            raise PipelineError(
                f"expected {num_layers} entropies, got {entropies.shape[0]}")
        target_ns = target_ms * 1e6
        nominal_vdd, nominal_freq = self._nominal

        # Front end: embedding stage + encoder layer 1 at nominal V/F.
        elapsed_ns = self._embed_nominal.time_ns + self._layer_nominal.time_ns
        energy_pj = (self._embed_nominal.energy_pj
                     + self._embedding_read_energy_pj()
                     + self._layer_nominal.energy_pj)
        if entropies[0] < entropy_threshold:
            # Even an immediate exit misses an infeasible target: the
            # front end already ran at nominal V/F before the check.
            return SentenceResult(
                exit_layer=1, predicted_layer=1,
                prediction=int(prediction_at(1)),
                latency_ms=elapsed_ns * 1e-6, energy_mj=energy_pj * 1e-9,
                vdd=nominal_vdd, freq_ghz=nominal_freq,
                met_target=elapsed_ns <= target_ns + 1e-6)

        predicted = int(np.clip(lut.predict(entropies[0]), 1, num_layers))
        remaining_cycles = (predicted - 1) * self._layer_nominal.cycles
        point = self.dvfs.plan(remaining_cycles, target_ns, elapsed_ns)
        transition_ns = self.dvfs.transition_overhead_ns(
            nominal_vdd, point.vdd, nominal_freq, point.freq_ghz)
        elapsed_ns += transition_ns

        scaled = self._layer_at(point.vdd, point.freq_ghz)
        exit_layer = predicted
        for layer in range(2, predicted + 1):
            elapsed_ns += scaled.time_ns
            energy_pj += scaled.energy_pj
            if entropies[layer - 1] < entropy_threshold:
                exit_layer = layer
                break
        # Return transition (back toward nominal for the next sentence).
        energy_pj += self.dvfs.ldo.overhead_energy_pj(
            scaled.energy_pj * 0.02, point.vdd)
        met = elapsed_ns <= target_ns + 1e-6
        return SentenceResult(
            exit_layer=exit_layer, predicted_layer=predicted,
            prediction=int(prediction_at(exit_layer)),
            latency_ms=elapsed_ns * 1e-6, energy_mj=energy_pj * 1e-9,
            vdd=point.vdd, freq_ghz=point.freq_ghz,
            met_target=met and point.meets_target)

    # -- dataset-level simulation ----------------------------------------------------

    def simulate_dataset(self, mode, layer_logits, entropies, lut=None,
                         entropy_threshold=None, target_ms=None,
                         vectorized=True, deadline_ms=None):
        """Price a whole dataset from precomputed per-layer logits.

        ``layer_logits`` is (L, N, C); ``entropies`` (L, N) — both from
        :func:`repro.earlyexit.collect_layer_outputs` on the trained
        model, so the algorithmic behaviour is the real model's.

        ``vectorized=True`` (the default) prices all N sentences with the
        batch kernels; ``vectorized=False`` walks the original
        per-sentence loop. Both produce the same per-sentence
        :class:`SentenceResult` rows (equivalence is tested to 1e-9).

        ``deadline_ms`` (``lai`` only) switches to the deadline-budget
        pricing path: the N sentences are treated as one batch whose
        sequential compute must finish within the budget, and the DVFS
        plan water-fills that budget across the whole batch
        (:meth:`price_deadline` over :func:`lai_exit_columns` computed
        from these arguments). ``deadline_ms=0`` reproduces the
        per-sentence pricing exactly.
        """
        if vectorized and (mode != "lai" or deadline_ms is None):
            return self._report(*self.price_columns(
                mode, layer_logits, entropies, lut=lut,
                entropy_threshold=entropy_threshold, target_ms=target_ms))
        predictions = self._predictions(mode, layer_logits, lut,
                                        entropy_threshold, target_ms)
        num_layers, n = predictions.shape
        if mode == "base":
            return self._simulate_scalar_base(n, predictions)
        if mode == "ee":
            return self._simulate_scalar_ee(
                true_exit_layers(entropies, entropy_threshold, num_layers),
                predictions)
        if deadline_ms is None:
            return self._simulate_scalar_lai(
                entropies, lut, entropy_threshold, target_ms, predictions)
        if not vectorized:
            raise PipelineError(
                "deadline-aware lai pricing is batch-level and has "
                "no scalar path; its zero-slack fallback is the "
                "per-sentence plan itself")
        return self.price_deadline(
            lai_exit_columns(self.pricing_tables(), entropies, lut,
                             entropy_threshold, predictions=predictions,
                             deadline=True),
            target_ms, deadline_ms)

    def price_deadline(self, columns, target_ms, deadline_ms):
        """Deadline-budget ``lai`` pricing of one batch's exit columns.

        ``columns`` are :func:`lai_exit_columns` with ``taken`` and the
        planner's inputs, computed over the batch by
        :meth:`simulate_dataset`. Returns the :class:`EngineReport`, one
        row per sentence.
        """
        priced = price_latency_aware_deadline_columns(
            self.pricing_tables(), self.dvfs, columns, target_ms,
            deadline_ms)
        return self._report(priced, columns["taken"])

    def price_deadline_members(self, columns, lists, sentences, target_ms,
                               deadline_ms):
        """:meth:`price_deadline` of a batch of a profile's ``sentences``.

        ``columns`` are the profile's whole-profile exit columns and
        ``lists`` their :func:`lai_member_lists`; see
        :func:`price_deadline_members`. Returns the
        :class:`EngineReport`, one row per member.
        """
        return EngineReport(price_deadline_members(
            self.pricing_tables(), self.dvfs, columns, lists, sentences,
            target_ms, deadline_ms))

    def price_deadline_alone(self, singles, sentence, target_ms,
                             deadline_ms):
        """:meth:`price_deadline` of a one-member batch, without planning.

        ``singles`` are the profile's :func:`lai_singleton_columns`;
        returns the :class:`EngineReport` of the one picked row.
        """
        return EngineReport([price_singleton_deadline(
            self.pricing_tables(), self.dvfs, singles, sentence, target_ms,
            deadline_ms)])

    def price_columns(self, mode, layer_logits, entropies, lut=None,
                      entropy_threshold=None, target_ms=None):
        """Price a whole dataset with one kernel dispatch, as columns.

        The per-sentence (composition-invariant) vectorized modes —
        ``base``, ``ee`` and ``lai`` without a deadline budget — with the
        same argument checks as :meth:`simulate_dataset`. Returns
        ``(priced, predictions)``: the kernel's column dict and the class
        predicted at each sentence's exit layer, ready for
        :func:`results_from_arrays` — which boxes them into exactly the
        rows :meth:`simulate_dataset` returns — or to be kept as columns
        by callers that only read a few rows.
        """
        predictions = self._predictions(mode, layer_logits, lut,
                                        entropy_threshold, target_ms)
        tables = self.pricing_tables()
        if mode == "base":
            priced = price_base_batch(tables, predictions.shape[1])
        elif mode == "ee":
            priced = price_early_exit_batch(tables, true_exit_layers(
                entropies, entropy_threshold, tables.num_layers))
        else:
            priced = price_latency_aware_batch(
                tables, self.dvfs, entropies, lut, entropy_threshold,
                target_ms)
        return priced, _taken(predictions, priced)

    def _predictions(self, mode, layer_logits, lut, entropy_threshold,
                     target_ms):
        """Validate a dataset call; return its (L, N) per-layer classes."""
        num_layers, _, _ = layer_logits.shape
        if num_layers != self.model_config.num_layers:
            raise PipelineError(
                f"expected {self.model_config.num_layers} layers of "
                f"logits, got {num_layers}")
        if mode != "base":
            if entropy_threshold is None:
                raise PipelineError(
                    f"mode {mode!r} needs an entropy threshold")
            if mode == "lai":
                if lut is None or target_ms is None:
                    raise PipelineError(
                        "lai mode needs a LUT and latency target")
            elif mode != "ee":
                raise PipelineError(f"unknown mode {mode!r}")
        return layer_logits.argmax(axis=-1)

    @staticmethod
    def _report(priced, predictions):
        report = EngineReport()
        report.extend(results_from_arrays(priced, predictions))
        return report

    # -- scalar reference loops (the oracle the kernels are tested against) ------

    def _simulate_scalar_base(self, n, predictions):
        report = EngineReport()
        for i in range(n):
            report.append(self.run_conventional(predictions[-1, i]))
        return report

    def _simulate_scalar_ee(self, first_below, predictions):
        report = EngineReport()
        for i in range(first_below.size):
            exit_layer = int(first_below[i])
            report.append(self.run_early_exit(
                exit_layer, predictions[exit_layer - 1, i]))
        return report

    def _simulate_scalar_lai(self, entropies, lut, entropy_threshold,
                             target_ms, predictions):
        report = EngineReport()
        for i in range(entropies.shape[1]):
            report.append(self.run_latency_aware(
                entropies[:, i], lut, entropy_threshold, target_ms,
                prediction_at=lambda layer, i=i: predictions[layer - 1, i]))
        return report
