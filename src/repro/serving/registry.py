"""Per-task artifacts and the eNVM-backed task switchboard.

EdgeBERT's multi-task story (paper Sec. 4): the word-embedding table is
frozen during fine-tuning, hence *identical across tasks*, and lives
permanently in on-chip ReRAM (:class:`repro.envm.EnvmEmbeddingStore`).
Switching the assistant from one task to another therefore prices only
the task-specific **encoder** weight swap (DRAM → weight buffers); the
embeddings never move. The registry holds one shared embedding store plus
a :class:`TaskProfile` per task and prices both the EdgeBERT switch and
the conventional one (which would also reload the embedding image).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import (
    LatencyAwareEngine,
    lai_exit_columns,
    lai_member_lists,
    lai_singleton_columns,
)
from repro.envm import MLC2, EnvmEmbeddingStore
from repro.errors import ServingError
from repro.hw.dram import Lpddr4Model
from repro.hw.memories import SramModel
from repro.serving.server import build_price_table


def encoder_weight_bytes(model_config, weight_density=1.0):
    """FP8 bytes of the task-specific encoder weights.

    ALBERT shares one encoder block across layers, so a task switch
    streams a single block: QKVO projections, the FFN pair, their biases,
    and the block's layer-norm parameters — at the task's post-pruning
    density (sparse weights ship compressed).
    """
    h = model_config.hidden_size
    f = model_config.ffn_size
    params = (4 * h * h + 4 * h  # QKVO + biases
              + 2 * h * f + f + h  # FFN pair + biases
              + 4 * h)  # two layer norms (gain + bias)
    return float(params) * weight_density  # FP8: 1 byte per value


@dataclass
class TaskProfile:
    """Everything the server needs to price one task's traffic.

    Every batch without a deadline budget gathers its rows from
    :meth:`price_table` at its target. Deadline-budget batches of two
    or more members read their planner inputs and row fields from
    :meth:`deadline_lists`, water-fill, and price the plan in Python
    floats (a fallback plan gathers :meth:`deadline_columns`); a
    one-member batch shares its budget with nobody, so its plan depends
    only on (sentence, hardware, target, budget) and is one pick over
    :meth:`singleton_columns`. All are built once per profile; a
    hardware variant (:meth:`for_hw`) is its own profile.
    """

    task: str
    engine: LatencyAwareEngine
    logits: np.ndarray  # (L, N, C) per-layer off-ramp logits
    entropies: np.ndarray  # (L, N)
    lut: object  # repro.earlyexit.ExitPredictorLUT
    entropy_threshold: float
    labels: np.ndarray | None = None
    weight_bytes: float | None = None
    _deadline_columns: dict | None = field(
        default=None, init=False, repr=False, compare=False)
    _deadline_lists: dict | None = field(
        default=None, init=False, repr=False, compare=False)
    _singleton_columns: dict | None = field(
        default=None, init=False, repr=False, compare=False)
    _tables: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.logits.ndim != 3 or self.entropies.ndim != 2:
            raise ServingError("logits must be (L, N, C), entropies (L, N)")
        if self.logits.shape[:2] != self.entropies.shape:
            raise ServingError(
                f"logits {self.logits.shape} and entropies "
                f"{self.entropies.shape} disagree on (L, N)")
        expected = self.engine.model_config.num_layers
        if self.logits.shape[0] != expected:
            # Fail at registration, not mid-run after the queue drained.
            raise ServingError(
                f"task {self.task!r} has {self.logits.shape[0]} logit "
                f"layers but the engine prices {expected}")
        if self.weight_bytes is None:
            self.weight_bytes = encoder_weight_bytes(
                self.engine.model_config)

    @property
    def num_sentences(self):
        return self.entropies.shape[1]

    def deadline_columns(self):
        """Every sentence's deadline-pricing exit columns, built once.

        :func:`~repro.core.engine.lai_exit_columns` over the whole
        profile, with the taken classes and the deadline planner's
        inputs, as read-only arrays. None of them reads a latency
        target, so one build serves every SLO class and every slack: a
        deadline-budget batch (:func:`~repro.serving.price_batch`) reads
        its members' rows from :meth:`deadline_lists`, and gathers them
        from these columns when its plan falls back.
        A hardware variant (:meth:`for_hw`) is its own profile with its
        own build, shared by every device of that hardware.
        """
        if self._deadline_columns is None:
            if self.lut is None or self.entropy_threshold is None:
                raise ServingError(
                    f"task {self.task!r} needs an exit-predictor LUT and "
                    "an entropy threshold for lai pricing")
            columns = lai_exit_columns(
                self.engine.pricing_tables(), self.entropies, self.lut,
                self.entropy_threshold,
                predictions=self.logits.argmax(axis=-1), deadline=True)
            for column in columns.values():
                column.flags.writeable = False
            self._deadline_columns = columns
        return self._deadline_columns

    def deadline_lists(self):
        """:meth:`deadline_columns` as per-sentence Python lists, built once.

        :func:`~repro.core.engine.lai_member_lists`: the planner's
        inputs, the row fields and the rail-coded cost vectors, which a
        deadline-budget batch of two or more members
        (:func:`~repro.serving.price_batch`) reads by sentence index.
        """
        if self._deadline_lists is None:
            self._deadline_lists = lai_member_lists(
                self.engine.pricing_tables(), self.deadline_columns())
        return self._deadline_lists

    def singleton_columns(self):
        """(sentence x rail code) one-member pricing columns, built once.

        :func:`~repro.core.engine.lai_singleton_columns` as read-only
        arrays; no entry reads a target or a budget. Kept apart from
        :meth:`deadline_columns`, which larger batches gather.
        """
        if self._singleton_columns is None:
            columns = lai_singleton_columns(
                self.engine.pricing_tables(), self.engine.dvfs,
                self.deadline_columns())
            for column in columns.values():
                column.flags.writeable = False
            self._singleton_columns = columns
        return self._singleton_columns

    def price_table(self, mode, target_ms):
        """Every sentence priced in ``mode`` at ``target_ms``, built once.

        The vectorized :func:`~repro.serving.server.build_price_table`,
        memoized per (mode, target); a batch without a deadline budget
        gathers its members' rows from it, boxed on first read.
        """
        key = (mode, target_ms)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build_price_table(
                self, mode, target_ms)
        return table

    def for_hw(self, hw_config):
        """This task's profile re-priced on different hardware.

        Shares the logits/entropies/LUT/threshold (the *algorithmic*
        artifacts are hardware-independent); only the engine — and with
        it the per-device pricing tables — is rebuilt. Returns ``self``
        when the hardware already matches.
        """
        engine = self.engine.with_hw_config(hw_config)
        if engine is self.engine:
            return self
        return TaskProfile(task=self.task, engine=engine,
                           logits=self.logits, entropies=self.entropies,
                           lut=self.lut,
                           entropy_threshold=self.entropy_threshold,
                           labels=self.labels,
                           weight_bytes=self.weight_bytes)


@dataclass(frozen=True)
class SwitchCost:
    """Latency/energy of changing the resident task."""

    latency_ns: float
    energy_pj: float

    @property
    def latency_ms(self):
        return self.latency_ns * 1e-6

    @property
    def energy_mj(self):
        return self.energy_pj * 1e-9


@dataclass
class TaskRegistry:
    """Registered task profiles around one shared eNVM embedding store."""

    embedding_table: np.ndarray | None = None
    data_cell: object = MLC2
    dram: Lpddr4Model = field(default_factory=Lpddr4Model)
    sram: SramModel = field(default_factory=SramModel)

    def __post_init__(self):
        self._profiles = {}
        self._hw_variants = {}
        self._switch_costs = {}
        #: Fleet-router price columns, one entry per (task, target, mode,
        #: hw, vectorized) — see ``repro.fleet.site``. Kept here so every
        #: site serving this registry shares one whole-profile build.
        self._route_tables = {}
        self.embedding_store = None
        if self.embedding_table is not None:
            self.embedding_store = EnvmEmbeddingStore(self.embedding_table,
                                                      self.data_cell)

    def __contains__(self, task):
        return task in self._profiles

    def __len__(self):
        return len(self._profiles)

    @property
    def tasks(self):
        return tuple(self._profiles)

    def register(self, profile, embedding_table=None):
        """Add a task; optionally verify its embeddings share the store.

        The shared-embedding invariant is what makes task switches cheap:
        a profile whose (pruned) embedding mask disagrees with the stored
        image would silently read the wrong rows, so mismatches raise.
        """
        if profile.task in self._profiles:
            raise ServingError(f"task {profile.task!r} already registered")
        if embedding_table is not None:
            table = np.asarray(embedding_table)
            if self.embedding_store is None:
                self.embedding_store = EnvmEmbeddingStore(table,
                                                          self.data_cell)
            else:
                # Compare post-quantization masks: FP8 flushes sub-grid
                # values to zero, so the raw nonzero pattern is not what
                # the store actually holds.
                fmt = self.embedding_store.fmt
                quantized = fmt.quantize(table, fmt.adaptive_bias(table))
                if not np.array_equal(quantized != 0,
                                      self.embedding_store.mask):
                    raise ServingError(
                        f"task {profile.task!r} embedding mask is not "
                        "shared with the eNVM-resident store")
        self._profiles[profile.task] = profile
        return profile

    def profile(self, task):
        if task not in self._profiles:
            raise ServingError(
                f"unknown task {task!r}; registered: {self.tasks}")
        return self._profiles[task]

    def profile_for(self, task, hw_config=None):
        """The task's profile priced for a specific device's hardware.

        ``hw_config=None`` (or the profile's own hardware) returns the
        registered profile; anything else returns a cached per-(task,
        HwConfig) variant whose engine builds that device's pricing
        tables — the lookup the heterogeneous cluster pool makes on
        every placement.
        """
        profile = self.profile(task)
        if hw_config is None or hw_config == profile.engine.hw_config:
            return profile
        key = (task, hw_config)
        variant = self._hw_variants.get(key)
        if variant is None:
            variant = self._hw_variants[key] = profile.for_hw(hw_config)
        return variant

    # -- task-switch pricing -----------------------------------------------------

    def switch_cost(self, from_task, to_task):
        """EdgeBERT switch: stream only the new task's encoder weights.

        The embeddings stay resident in ReRAM, so the swap is a DRAM read
        of the (compressed) encoder block plus the weight-buffer fill.
        """
        # Memoized: the cost is a pure function of the destination task
        # (or the constant zero cost for a warm hit), and the dispatcher
        # prices a swap at every batch start of a replay.
        key = to_task if from_task != to_task else None
        cost = self._switch_costs.get(key)
        if cost is None:
            if key is None:
                cost = SwitchCost(0.0, 0.0)
            else:
                nbytes = self.profile(to_task).weight_bytes
                cost = SwitchCost(
                    latency_ns=(self.dram.read_latency_ns(nbytes)
                                + self.sram.access_latency_ns(nbytes)),
                    energy_pj=(self.dram.read_energy_pj(nbytes)
                               + self.sram.write_energy_pj(nbytes)),
                )
            self._switch_costs[key] = cost
        return cost

    def conventional_switch_cost(self, from_task, to_task):
        """Baseline switch: encoder weights **and** the embedding image.

        Without the eNVM store the shared embeddings live off-chip and
        ride along on every task switch — the traffic the paper's ReRAM
        residency eliminates.
        """
        if from_task == to_task:
            return SwitchCost(0.0, 0.0)
        base = self.switch_cost(from_task, to_task)
        image = self.embedding_image_bytes
        return SwitchCost(
            latency_ns=(base.latency_ns + self.dram.read_latency_ns(image)
                        + self.sram.access_latency_ns(image)),
            energy_pj=(base.energy_pj + self.dram.read_energy_pj(image)
                       + self.sram.write_energy_pj(image)),
        )

    @property
    def embedding_image_bytes(self):
        """Footprint of the shared embedding image (bitmask + FP8 data)."""
        if self.embedding_store is None:
            return 0.0
        return float(self.embedding_store.footprint_bytes())
