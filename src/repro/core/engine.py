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
  exit never read the latency target, so the deadline-budget path
  (:meth:`LatencyAwareEngine.price_deadline`) prices columns a profile
  derived once and each batch merely gathers;
* the original **scalar reference path** (``vectorized=False`` or the
  ``run_*`` methods), kept as the oracle the batch kernels are tested
  against to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.config import HwConfig
from repro.dvfs import DeadlineBudget, DvfsController
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
    batches gather rows.
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
    :class:`PricingTables` vectors.
    """
    exit1 = columns["exit1"]
    predicted = columns["predicted"]
    target_ns = target_ms * 1e6

    front_time = tables.embed_time_ns + tables.layer_time_ns
    front_energy = (tables.embed_energy_pj + tables.embedding_read_pj
                    + tables.layer_energy_pj)
    remaining = (predicted - 1) * tables.layer_cycles
    plan = dvfs.plan_batch(remaining, target_ns, front_time)
    rail = plan.rail_codes
    transition = dvfs.rail_move_ns[0, rail]
    scaled_time = tables.rail_layer_time_ns[rail]
    scaled_energy = tables.rail_layer_energy_pj[rail]

    # Layers 2..exit run at the planned point.
    scaled_layers = columns["exit_layer"] - 1
    elapsed = front_time + transition + scaled_layers * scaled_time
    energy = (front_energy + scaled_layers * scaled_energy
              + tables.rail_overhead_pj[rail])
    met = (elapsed <= target_ns + 1e-6) & plan.meets_target

    # Sentences whose layer-1 entropy already cleared the threshold never
    # consult the predictor or the DVFS controller; they still miss an
    # infeasible target (the front end ran at nominal V/F regardless).
    front_met = front_time <= target_ns + 1e-6
    return {
        "exit_layer": columns["exit_layer"],
        "predicted_layer": np.where(exit1, 1, predicted),
        "latency_ms": np.where(exit1, front_time, elapsed) * 1e-6,
        "energy_mj": np.where(exit1, front_energy, energy) * 1e-9,
        "vdd": np.where(exit1, tables.nominal_vdd, plan.vdd),
        "freq_ghz": np.where(exit1, tables.nominal_freq_ghz, plan.freq_ghz),
        "met_target": np.where(exit1, front_met, met),
    }


def price_latency_aware_deadline_columns(tables, dvfs, columns, target_ms,
                                         deadline_ms):
    """Deadline-budget pricing of one batch's :func:`lai_exit_columns`.

    The columns carry the planner's inputs (``deadline=True``). This is
    the one pricing function behind every deadline-budget batch:
    :meth:`LatencyAwareEngine.simulate_dataset` computes the columns
    over its arguments, :func:`repro.serving.price_batch` gathers them
    from the profile's whole-profile build. The planner reads the
    sentences' rail-coded layer times and the engine's rail-coded front
    times; the plan is then priced by gathers over the same codes. When
    the planner falls back, the same columns are priced per sentence.
    """
    target_ns = target_ms * 1e6
    deadline_ns = max(float(deadline_ms), 0.0) * 1e6
    plan = dvfs.plan_batch_deadline(
        columns["remaining"], DeadlineBudget(deadline_ns, target_ns),
        tables.embed_time_ns + tables.layer_time_ns,
        rail_layer_ns=columns["layer_ns"],
        rail_front_ns=tables.rail_front_time_ns)
    if plan.fallback:
        return price_latency_aware_columns(tables, dvfs, columns,
                                           target_ms)

    exit1 = columns["exit1"]
    scaled_layers = columns["exit_layer"] - 1  # 0 for layer-1 exits
    rail = plan.rail_codes
    front = plan.front_codes
    scaled_time = tables.rail_layer_time_ns[rail]
    scaled_energy = tables.rail_layer_energy_pj[rail]
    # One rail move per boundary where the schedule actually changes the
    # point — a batch holding its rail pays no per-sentence LDO overhead.
    overhead = np.where(plan.rail_changed, tables.rail_overhead_pj[rail],
                        0.0)

    elapsed = (tables.rail_front_time_ns[front] + plan.transition_ns
               + scaled_layers * scaled_time)
    energy = (tables.rail_front_energy_pj[front]
              + scaled_layers * scaled_energy + overhead)
    return {
        "exit_layer": columns["exit_layer"],
        "predicted_layer": np.where(exit1, 1, columns["predicted"]),
        "latency_ms": elapsed * 1e-6,
        "energy_mj": energy * 1e-9,
        "vdd": plan.vdd,
        "freq_ghz": plan.freq_ghz,
        "met_target": plan.meets_target.copy(),
    }


#: :class:`SentenceResult` fields in constructor order; all but
#: ``prediction`` are kernel column names.
_ROW_FIELDS = tuple(f.name for f in fields(SentenceResult))


def results_from_arrays(priced, predictions, index=None):
    """Box per-sentence pricing arrays into :class:`SentenceResult` rows.

    ``priced`` is a kernel's column dict and ``predictions`` the class
    taken at each sentence's exit layer. ``index`` picks the rows to box
    (all of them when None). This is the only place pricing columns turn
    into row objects: ``tolist`` hands back exactly the Python
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

        nominal_vdd, nominal_freq = self.dvfs.table.nominal_point()
        self._nominal = (nominal_vdd, nominal_freq)
        self._layer_nominal = self.accelerator.layer_metrics(
            self.layer_workload, vdd=nominal_vdd, freq_ghz=nominal_freq,
            sparse_execution=sparse_execution)
        self._embed_nominal = self.accelerator.layer_metrics(
            self.embed_workload, vdd=nominal_vdd, freq_ghz=nominal_freq,
            sparse_execution=sparse_execution)
        self._pricing_tables = None

    # -- building blocks ---------------------------------------------------------

    def _embedding_read_energy_pj(self):
        """ReRAM gather of the sentence's token embedding rows."""
        row_bytes = self.model_config.embedding_size  # FP8: 1 B per value
        data = self.seq_len * row_bytes * self._embedding_density
        mask = self.seq_len * row_bytes / 8.0
        return self.reram.read_energy_pj(data, mask)

    def _layer_at(self, vdd, freq_ghz):
        return self.accelerator.layer_metrics(
            self.layer_workload, vdd=vdd, freq_ghz=freq_ghz,
            sparse_execution=self.sparse_execution)

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
        :meth:`~repro.hw.accelerator.AcceleratorModel.layer_metrics`
        evaluation per V/F-table row (≈13 rows) replaces the per-sentence
        evaluation of the scalar path.
        """
        if self._pricing_tables is None:
            # Rail code 0 is the nominal point, code i + 1 table row i.
            points = [(self._layer_nominal, self._embed_nominal)] + [
                (self._layer_at(vdd, freq), self.accelerator.layer_metrics(
                    self.embed_workload, vdd=vdd, freq_ghz=freq,
                    sparse_execution=self.sparse_execution))
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
        planner's inputs — computed over the batch by
        :meth:`simulate_dataset`, or gathered by
        :func:`repro.serving.price_batch` from the profile's
        whole-profile build. Returns the :class:`EngineReport`, one row
        per sentence.
        """
        priced = price_latency_aware_deadline_columns(
            self.pricing_tables(), self.dvfs, columns, target_ms,
            deadline_ms)
        return self._report(priced, columns["taken"])

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
