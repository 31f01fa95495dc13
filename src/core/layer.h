// The layer stack of the engine.
//
// The paper's core observation is that adaptive sparsity is a *per-layer
// policy*, not a fixed topology: any layer past the input-facing one can
// run dense, LSH-sampled, or statically sampled. The stack is therefore
// polymorphic:
//
//   Layer (abstract)        — forward/backward/apply_updates/rebuild/
//                             serialize hooks; what Network, Trainer and
//                             core/serialize program against.
//   ├── SampledLayer        — the workhorse: neuron-major weights
//   │   │                     ([units x fan_in]), per-slot active sets,
//   │   │                     HOGWILD gradient accumulators, and (when
//   │   │                     hashed) LSH tables over its neurons — the s²
//   │   │                     cost model of paper §3.1.
//   │   ├── DenseLayer      — every unit active on every input (the honest
//   │   │                     dense baseline and ReLU mid-stack layers).
//   │   └── RandomSampledLayer — labels + static uniform classes (the
//   │                         Sampled Softmax baseline of paper §5.1).
//   EmbeddingLayer          — the input adapter, NOT part of the stack: it
//                             consumes the SparseVector input with weights
//                             stored *input-major* ([input_dim x units]) so
//                             forward and gradient accumulation touch one
//                             contiguous units-length row per input nonzero.
//
// All layers keep per-batch-slot activation/error arrays (the paper's
// per-neuron batch arrays, stored struct-of-arrays) so every training
// instance in a batch runs on its own thread without synchronization, and
// accumulate gradients HOGWILD-style into shared per-weight accumulators.
#pragma once

#include <atomic>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <vector>

#include "core/activation.h"
#include "core/config.h"
#include "data/sparse_vector.h"
#include "lsh/table_group.h"
#include "optim/adam.h"
#include "simd/bf16.h"
#include "simd/f16.h"
#include "simd/int8.h"
#include "sys/aligned.h"
#include "sys/hugepages.h"
#include "sys/rng.h"
#include "sys/thread_pool.h"

namespace slide {

class ModelStore;
namespace dist {
class ShardWorker;
}  // namespace dist

/// How a layer (or a Network) fills its parameters at construction.
/// `random()`, the default everywhere, draws the seeded Gaussian init,
/// quantizes the inference mirrors and builds every retrieval index. The
/// checkpoint mode leaves all of that undone because a checkpoint load is
/// about to overwrite every parameter: the load's trailing index rebuild
/// (or restored HNSW graph) is then the only index build of the boot, and
/// the seeds, hash families and everything else derived from the config
/// are the same as in random mode. Only the checkpoint-boot paths can mint
/// that mode (passkey): ModelStore's loader and the shard worker's
/// checkpoint init, each of which loads every block before it serves.
class ParamInit {
 public:
  static ParamInit random() noexcept { return ParamInit(false); }
  bool from_checkpoint() const noexcept { return from_checkpoint_; }

 private:
  friend class ModelStore;
  friend class dist::ShardWorker;
  static ParamInit checkpoint() noexcept { return ParamInit(true); }
  explicit ParamInit(bool from_checkpoint) noexcept
      : from_checkpoint_(from_checkpoint) {}

  bool from_checkpoint_;
};

/// Per-(layer, batch-slot) state: the ids of active neurons with their
/// activations and error accumulators, positionally aligned. An empty `ids`
/// means "dense": all `dense_width` units are active and act/err are
/// indexed by unit id.
struct ActiveSet {
  std::vector<Index> ids;
  AlignedVector<float> act;
  AlignedVector<float> err;
  Index dense_width = 0;

  bool dense() const noexcept { return ids.empty(); }
  std::size_t size() const noexcept {
    return dense() ? dense_width : ids.size();
  }
};

// ---------------------------------------------------------------------------

/// Concrete type of a stack layer (diagnostics, checkpoint tooling).
enum class LayerKind {
  kDense,
  kSampled,
  kRandomSampled,
  kSharded,
};

const char* to_string(LayerKind kind);

/// Reusable scratch for the top-k inference hook (owned by
/// InferenceContext). Every vector keeps its capacity across calls, so
/// steady-state top-k queries allocate nothing — this is where the sharded
/// layer's k-way heap merge lives (see Layer::forward_inference_topk).
struct TopKScratch {
  std::vector<Index> ids;    // candidate ids (per-shard run for sharded)
  std::vector<float> act;    // candidate activations
  std::vector<std::size_t> order;  // ranking permutation (default path)
  /// Bounded selection heap: (score, position<<32 | global id). Position
  /// packs above the id so ties resolve toward the earlier candidate with
  /// a single integer compare.
  std::vector<std::pair<float, std::uint64_t>> heap;

  void clear() {
    ids.clear();
    act.clear();
    order.clear();
    heap.clear();
  }
};

/// Per-layer memory accounting (drives Network::memory_footprint and the
/// serve-side footprint report).
struct LayerMemory {
  std::size_t master_bytes = 0;     ///< fp32 weights + biases
  std::size_t mirror_bytes = 0;     ///< quantized inference mirror (0 at fp32)
  std::size_t optimizer_bytes = 0;  ///< gradient accumulators + Adam moments
  /// Candidate-retrieval index (LSH buckets / HNSW graph; 0 for layers
  /// without a retriever). Reported separately because the HNSW graph in
  /// particular is a whole-model-sized structure the weight arrays above
  /// do not account for.
  std::size_t retriever_bytes = 0;
  /// Mirror bytes whose backing pages the kernel accepted THP advice for
  /// (<= mirror_bytes; 0 when THP is unavailable or disabled). Observability
  /// for the hugepage-backed mirror adoption — Table 4 of the paper.
  std::size_t mirror_hugepage_bytes = 0;
};

/// Cumulative adaptive-retrieval diagnostics of one layer (see
/// SamplingConfig::escalation_floor). Only meaningful when the policy is
/// on (`adaptive`); every escalated query contributes its candidate set's
/// overlap with the exact top-k oracle, so recall() is the measured
/// retrieval recall over escalated queries. Surfaced per-snapshot in
/// ServeStats.
struct RetrievalStats {
  bool adaptive = false;  ///< escalation_floor > 0 on some hashed layer
  long escalations = 0;   ///< inference queries escalated to an exact scan
  long overlap = 0;       ///< sum of |candidates ∩ exact top-k|
  long oracle = 0;        ///< sum of |exact top-k|

  double recall() const noexcept {
    return oracle > 0 ? static_cast<double>(overlap) /
                            static_cast<double>(oracle)
                      : 0.0;
  }
};

/// Abstract interface of one stack layer (everything after the input-facing
/// EmbeddingLayer). Network, Trainer, and core/serialize drive the stack
/// exclusively through this interface, so dense, LSH-sampled, and
/// random-sampled layers mix freely at any depth.
class Layer {
 public:
  virtual ~Layer() = default;

  // ---- Identity ----
  virtual LayerKind kind() const noexcept = 0;
  virtual Index units() const noexcept = 0;
  virtual Index fan_in() const noexcept = 0;
  virtual Activation activation() const noexcept = 0;

  // ---- Training hooks ----
  /// Selects the slot's active set (policy-specific) and computes
  /// activations from the previous layer's active set. `forced` ids (true
  /// labels on the output layer) come first in the active set.
  virtual void forward(int slot, const ActiveSet& prev,
                       std::span<const Index> forced, Rng& rng,
                       VisitedSet& visited, int tid) = 0;
  /// Softmax + cross-entropy deltas over the slot's active neurons.
  virtual float compute_softmax_ce_deltas(int slot,
                                          std::span<const Index> labels,
                                          float inv_batch) = 0;
  /// Hidden-layer path: err *= ReLU'(act), in place.
  virtual void compute_relu_deltas(int slot) = 0;
  /// Propagates err to prev.err and accumulates gradients (HOGWILD).
  virtual void backward(int slot, ActiveSet& prev, int tid) = 0;
  /// Applies lazy Adam to touched units. Single caller at a time.
  virtual void apply_updates(float lr, ThreadPool* pool) = 0;

  // ---- LSH lifecycle (no-ops for layers without tables) ----
  virtual bool maybe_rebuild(long iteration, ThreadPool* pool) = 0;
  virtual void rebuild_tables(ThreadPool* pool) = 0;
  /// Blocks until the layer's background maintenance (async table rebuilds,
  /// delta re-inserts) is idle. No-op for layers without async maintenance.
  /// Logically const: waiting mutates nothing the caller can observe.
  virtual void quiesce_maintenance() const {}
  /// Drains outstanding maintenance debt and waits for it: any queued
  /// dirty neurons are re-inserted even if no schedule event is due. Call
  /// after training before relying on table freshness (evaluation,
  /// serialization of a "settled" model). No-op without async maintenance.
  virtual void flush_maintenance() {}

  // ---- Inference hooks ----
  /// Single-sample inference forward into caller buffers. `exact` scores
  /// all units regardless of the layer's sampling policy.
  virtual void forward_inference(std::span<const Index> prev_ids,
                                 std::span<const float> prev_act, bool exact,
                                 Rng& rng, VisitedSet& visited,
                                 std::vector<Index>& ids_out,
                                 std::vector<float>& act_out) const = 0;

  /// Top-k inference: selects candidates exactly as forward_inference and
  /// writes the ids of the k highest-scoring ones into `out`, descending
  /// score, ties toward the earlier candidate position (the lower unit id
  /// in exact mode). Network::predict_topk calls this on the output layer.
  /// The default implementation scores through forward_inference and
  /// partial-sorts in the scratch; the sharded layer overrides it with a
  /// k-way heap merge over its per-shard candidate runs.
  virtual void forward_inference_topk(std::span<const Index> prev_ids,
                                      std::span<const float> prev_act, int k,
                                      bool exact, Rng& rng,
                                      VisitedSet& visited,
                                      TopKScratch& scratch,
                                      std::vector<Index>& out) const;

  // ---- Per-slot state ----
  virtual ActiveSet& slot(int s) = 0;
  virtual const ActiveSet& slot(int s) const = 0;

  // ---- Serialize hooks (checkpoint format: weights block + bias block) ----
  virtual std::span<float> weights_span() noexcept = 0;
  virtual std::span<const float> weights_span() const noexcept = 0;
  virtual std::span<float> bias_span() noexcept = 0;
  virtual std::span<const float> bias_span() const noexcept = 0;
  /// Called after an external writer (checkpoint load) rewrote the spans;
  /// derived state (hash memos, quantized mirrors) must be refreshed.
  virtual void on_weights_loaded() noexcept = 0;
  virtual std::size_t num_parameters() const noexcept = 0;

  // ---- Sharded serialize hooks (checkpoint format v3) ----
  // The logical parameter matrix of a layer is always the [units x fan_in]
  // neuron-major matrix plus a [units] bias vector; a sharded layer stores
  // it as contiguous row-range blocks. Monolithic layers are the
  // single-shard case: the defaults below make core/serialize's
  // per-shard-block reader/writer work for every layer, and let a
  // checkpoint written at one shard count load into a network using
  // another (resharding).
  /// Number of contiguous weight shards (1 for monolithic layers).
  virtual int num_shards() const noexcept { return 1; }
  /// First global neuron row owned by `shard`.
  virtual Index shard_row_offset(int /*shard*/) const noexcept { return 0; }
  /// Weight/bias blocks of one shard (shard 0 == the whole layer for
  /// monolithic layers).
  virtual std::span<float> shard_weights(int /*shard*/) noexcept {
    return weights_span();
  }
  virtual std::span<const float> shard_weights(int /*shard*/) const noexcept {
    return weights_span();
  }
  virtual std::span<float> shard_bias(int /*shard*/) noexcept {
    return bias_span();
  }
  virtual std::span<const float> shard_bias(int /*shard*/) const noexcept {
    return bias_span();
  }

  // ---- Quantized inference (bf16 weight mirrors) ----
  /// The precision the layer's *inference* scoring path reads weights at.
  /// Training always runs on the fp32 masters regardless.
  virtual Precision inference_precision() const noexcept {
    return Precision::kFP32;
  }
  /// Re-quantizes the inference mirror from the current master weights.
  /// No-op for fp32 layers. Mutates only the mirror — callers must hold
  /// the writer role (no concurrent readers), like any weight mutation.
  virtual void refresh_inference_mirror() noexcept {}
  /// Bytes of weight + bias data the inference scoring path reads (the
  /// mirror at bf16, the masters at fp32).
  virtual std::size_t inference_weight_bytes() const noexcept {
    return num_parameters() * sizeof(float);
  }
  /// Memory accounting for this layer (masters, mirror, optimizer state).
  virtual LayerMemory memory() const noexcept = 0;

  /// Serializes gradient accumulation behind a mutex (HOGWILD ablation).
  virtual void set_use_locks(bool locks) noexcept = 0;

  /// Average active fraction since the last reset (1.0 for dense layers).
  virtual double average_active_fraction() const = 0;

  /// Cumulative seconds spent in LSH sampling / activation math since the
  /// last timer reset (the Figure 6 / Table 2 instrumentation). Layers
  /// without phase timers report 0.
  virtual double sampling_seconds() const { return 0.0; }
  virtual double compute_seconds() const { return 0.0; }
  /// Completed full table rebuilds and neurons re-inserted by delta
  /// maintenance (diagnostics; 0 for layers without tables).
  virtual long rebuild_count() const { return 0; }
  virtual long delta_reinserted() const { return 0; }

  // ---- Dynamic label lifecycle (online growth / retirement) ----
  // The label universe of an extreme-classification service churns while
  // the model serves: new items appear (grow) and dead items must stop
  // being predicted (retire). Only retriever-backed (hashed) layers
  // support the lifecycle; the defaults refuse so dense baselines cannot
  // silently mis-grow.
  /// Appends `n` fresh output units (weights, bias, optimizer state,
  /// quantized mirrors, retrieval index). Returns the global id of the
  /// first appended unit. Caller holds the writer role — no concurrent
  /// forwards or table readers (Network::begin_write).
  virtual Index add_units(Index n) {
    (void)n;
    SLIDE_CHECK(false, "add_units: this layer kind does not support growth");
    return 0;
  }
  /// Tombstones `ids` out of retrieval, top-k, and softmax normalization
  /// WITHOUT compacting rows: surviving unit ids are stable, and a later
  /// add-style re-insert can resurrect a retired id. Writer role required.
  virtual void retire_units(std::span<const Index> ids) {
    (void)ids;
    SLIDE_CHECK(false,
                "retire_units: this layer kind does not support retirement");
  }
  /// Currently tombstoned unit count / ids (checkpoint v5, diagnostics).
  virtual Index retired_count() const noexcept { return 0; }
  virtual std::vector<Index> retired_unit_ids() const { return {}; }
  /// Units appended by add_units since construction (checkpoint v5 records
  /// this so a loader can re-grow a config-sized layer to the file's size).
  virtual Index appended_units() const noexcept { return 0; }

  // ---- Retrieval subsystem hooks (src/retrieval/) ----
  /// Candidate-generation backend of a hashed layer (kLsh for everything
  /// else — dense and random-sampled layers have no retriever).
  virtual retrieval::RetrieverKind retriever_kind() const noexcept {
    return retrieval::RetrieverKind::kLsh;
  }
  /// Adaptive-retrieval counters (see RetrievalStats); zeroes for layers
  /// without the policy.
  virtual RetrievalStats retrieval_stats() const { return {}; }
  /// Serializes the retriever's index state (checkpoint v4 aux block).
  /// Layers whose retriever has no serialized state write nothing.
  virtual void save_retriever_state(std::ostream& out) const { (void)out; }
  /// Restores an aux block written by save_retriever_state. `bytes` is the
  /// block length; implementations must consume exactly that many bytes or
  /// skip them. Returns true if the index is usable without a rebuild.
  virtual bool load_retriever_state(std::istream& in, std::uint64_t bytes) {
    in.ignore(static_cast<std::streamsize>(bytes));
    return false;
  }
};

// ---------------------------------------------------------------------------

class EmbeddingLayer {
 public:
  EmbeddingLayer(Index input_dim, Index units, float init_stddev,
                 int batch_slots, int max_threads, const AdamConfig& adam,
                 std::uint64_t seed,
                 Precision precision = Precision::kFP32,
                 ParamInit init = ParamInit::random());

  Index input_dim() const noexcept { return input_dim_; }
  Index units() const noexcept { return units_; }
  Precision inference_precision() const noexcept { return precision_; }

  /// Computes ReLU(W^T x + b) for the slot; zeroes the slot's error buffer.
  /// Always reads the fp32 master weights (training path).
  void forward(int slot, const SparseVector& x);

  /// Dense single-sample forward into a caller buffer (inference path).
  /// Scores through the bf16 mirror when the layer is quantized.
  void forward_inference(const SparseVector& x, float* out) const;

  /// Consumes the error accumulated in the slot by upper layers: applies
  /// ReLU', accumulates weight/bias gradients, marks touched columns.
  void backward(int slot, const SparseVector& x, int tid);

  /// Applies lazy Adam to all touched columns (+ the bias row) and clears
  /// gradients and touch marks. Single caller at a time.
  void apply_updates(float lr, ThreadPool* pool);

  ActiveSet& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }
  const ActiveSet& slot(int s) const {
    return slots_[static_cast<std::size_t>(s)];
  }

  /// Serializes gradient accumulation behind a mutex (HOGWILD ablation).
  void set_use_locks(bool locks) noexcept { use_locks_ = locks; }

  float* weight_column(Index input_index) noexcept {
    return weights_.data() + static_cast<std::size_t>(input_index) * units_;
  }
  const float* weight_column(Index input_index) const noexcept {
    return weights_.data() + static_cast<std::size_t>(input_index) * units_;
  }
  /// Accumulated (pre-apply) gradient column — diagnostics/tests.
  const float* gradient_column(Index input_index) const noexcept {
    return grads_.data() + static_cast<std::size_t>(input_index) * units_;
  }
  float bias(Index unit) const noexcept { return bias_[unit]; }
  float bias_gradient(Index unit) const noexcept { return bias_grad_[unit]; }

  /// Whole-parameter views (serialization / checkpointing).
  std::span<float> weights_span() noexcept {
    return {weights_.data(), weights_.size()};
  }
  std::span<const float> weights_span() const noexcept {
    return {weights_.data(), weights_.size()};
  }
  std::span<float> bias_span() noexcept { return {bias_.data(), bias_.size()}; }
  std::span<const float> bias_span() const noexcept {
    return {bias_.data(), bias_.size()};
  }

  std::size_t num_parameters() const noexcept {
    return static_cast<std::size_t>(input_dim_) * units_ + units_;
  }

  /// Re-quantizes the bf16 mirror from the masters (no-op at fp32); see
  /// Layer::refresh_inference_mirror for the writer-role contract.
  void refresh_inference_mirror() noexcept;
  std::size_t inference_weight_bytes() const noexcept;
  LayerMemory memory() const noexcept;

 private:
  /// fp32 forward through the master weights (shared by training and the
  /// unquantized inference path).
  void forward_master(const SparseVector& x, float* out) const;

  bool bf16_inference() const noexcept {
    return precision_ == Precision::kBF16 && !weights_bf16_.empty();
  }
  bool f16_inference() const noexcept {
    return precision_ == Precision::kFP16 && !weights_f16_.empty();
  }
  bool i8_inference() const noexcept {
    return precision_ == Precision::kInt8 && !weights_i8_.empty();
  }

  Index input_dim_;
  Index units_;
  Precision precision_;

  HugeArray weights_;  // [input_dim x units], input-major
  HugeArray grads_;
  AlignedVector<float> bias_;
  AlignedVector<float> bias_grad_;
  // Quantized inference mirrors, same input-major layout as weights_; only
  // the one matching precision_ is ever allocated. Hugepage-backed: the
  // serving path streams these rows, the TLB-bound pattern of paper
  // Table 4. i8_scales_ holds the per-input-row symmetric scale.
  HugeArrayT<simd::Bf16> weights_bf16_;
  HugeArrayT<simd::Fp16> weights_f16_;
  HugeArrayT<simd::I8> weights_i8_;
  AlignedVector<float> i8_scales_;  // [input_dim]
  Adam adam_;  // layout: weights then bias

  std::vector<ActiveSet> slots_;

  std::unique_ptr<std::atomic<std::uint8_t>[]> column_touched_;
  std::vector<std::vector<Index>> touched_lists_;  // per thread
  std::vector<Index> apply_scratch_;  // merged touched list (apply_updates)
  bool use_locks_ = false;
  std::mutex accum_mutex_;
};

// ---------------------------------------------------------------------------

class SampledLayer : public Layer {
 public:
  struct Config {
    Index units = 0;
    Index fan_in = 0;
    Activation activation = Activation::kSoftmax;
    bool hashed = true;
    /// Static uniform sampling (Sampled Softmax baseline); see LayerSpec.
    bool random_sampled = false;
    HashFamilyConfig family;
    HashTable::Config table;
    SamplingConfig sampling;
    RebuildSchedule rebuild;
    /// Candidate-generation backend (see LayerSpec::retriever). kLsh is
    /// bit-identical to the pre-subsystem layer.
    retrieval::RetrieverKind retriever = retrieval::RetrieverKind::kLsh;
    retrieval::HnswConfig hnsw;
    MaintenancePolicy maintenance = MaintenancePolicy::kSync;
    bool fill_random_to_target = true;
    bool incremental_rehash = false;
    float init_stddev = 0.0f;  // 0 -> 2/sqrt(fan_in)
    AdamConfig adam;
    /// Inference-scoring precision (network-wide knob; see config.h).
    Precision precision = Precision::kFP32;
    std::uint64_t seed = 31;
  };

  SampledLayer(const Config& config, int batch_slots, int max_threads,
               ParamInit init = ParamInit::random());

  LayerKind kind() const noexcept override {
    if (config_.hashed) return LayerKind::kSampled;
    return config_.random_sampled ? LayerKind::kRandomSampled
                                  : LayerKind::kDense;
  }
  Index units() const noexcept override { return units_; }
  Index fan_in() const noexcept override { return fan_in_; }
  bool hashed() const noexcept { return config_.hashed; }
  Activation activation() const noexcept override {
    return config_.activation;
  }
  const Config& config() const noexcept { return config_; }

  /// Selects the active set for the slot (forced ids first, then LSH
  /// sampling, then random fill) and computes activations from the previous
  /// layer's active set. Softmax layers defer normalization to
  /// compute_softmax_ce_deltas / the caller. Zeroes the slot's error buffer.
  /// `tid` indexes the per-thread phase timers.
  void forward(int slot, const ActiveSet& prev, std::span<const Index> forced,
               Rng& rng, VisitedSet& visited, int tid) override;

  /// Single-sample inference forward into caller buffers. When `exact` is
  /// set, scores *all* units (ids_out is filled with 0..units-1).
  void forward_inference(std::span<const Index> prev_ids,
                         std::span<const float> prev_act, bool exact,
                         Rng& rng, VisitedSet& visited,
                         std::vector<Index>& ids_out,
                         std::vector<float>& act_out) const override;

  /// Softmax + cross-entropy over the slot's active neurons with the given
  /// true labels (which must be the first entries of the active set, i.e.
  /// the `forced` ids of forward()). Fills err with deltas scaled by
  /// inv_batch; returns the sample loss.
  float compute_softmax_ce_deltas(int slot, std::span<const Index> labels,
                                  float inv_batch) override;

  /// Hidden-layer path: err *= ReLU'(act), in place.
  void compute_relu_deltas(int slot) override;

  /// Propagates err to prev.err and accumulates weight/bias gradients for
  /// the slot's active neurons; marks them touched.
  void backward(int slot, ActiveSet& prev, int tid) override;

  /// Lazy Adam over touched neurons; keeps the Simhash memo in sync when
  /// incremental rehash is on. Single caller at a time.
  void apply_updates(float lr, ThreadPool* pool) override;

  /// Fires a maintenance event when the schedule (paper §4.2) is due;
  /// returns true if one fired. What the event does depends on
  /// config().maintenance: kSync rebuilds in place on the calling thread
  /// (the caller guarantees no concurrent table readers); the async
  /// policies schedule the work on the layer's background maintenance
  /// thread and return immediately — trainer threads keep sampling from
  /// the active table group throughout (see lsh/table_group.h).
  bool maybe_rebuild(long iteration, ThreadPool* pool) override;
  /// Synchronous full rebuild of the active group. Quiesces background
  /// maintenance first, so it is safe on any policy (checkpoint loads,
  /// rebuild_all). Caller guarantees no concurrent table readers.
  void rebuild_tables(ThreadPool* pool) override;
  /// Completed full rebuilds (sync + async; excludes the initial build).
  long rebuild_count() const noexcept override {
    return rebuild_count_.load(std::memory_order_acquire);
  }

  /// Blocks until no background maintenance task is queued or running
  /// (rethrows the first task error, which should never happen).
  void quiesce_maintenance() const override;
  /// Schedules a final delta drain for any queued dirty neurons (bypassing
  /// the rebuild schedule) and waits for the worker to go idle.
  void flush_maintenance() override;

  // ---- Dynamic label lifecycle ----
  /// Appends `n` units: copy-grows the weight/grad arrays (HugeArray
  /// reallocation), zero-extends bias and optimizer moments (Adam::grow),
  /// re-quantizes the mirrors, and re-targets the retriever at the grown
  /// rows (resize_universe + insert per new id; backends without delta
  /// support escalate to a full rebuild). New rows draw from an Rng seeded
  /// by (layer seed, growth base), so the same growth sequence reproduces
  /// identical rows at any shard count. Writer role required.
  Index add_units(Index n) override;
  /// Tombstones `ids` in the retriever mask (the single source of truth the
  /// forward paths and checkpointing read back). Rows are not compacted.
  void retire_units(std::span<const Index> ids) override;
  Index retired_count() const noexcept override;
  std::vector<Index> retired_unit_ids() const override;
  Index appended_units() const noexcept override { return appended_units_; }

  MaintenancePolicy maintenance_policy() const noexcept {
    return config_.maintenance;
  }
  /// Neurons re-inserted by delta maintenance so far (diagnostics).
  long delta_reinserted() const noexcept override {
    return delta_reinserted_.load(std::memory_order_acquire);
  }
  /// Dirty neurons currently queued for the next delta re-insert.
  std::size_t dirty_pending() const;

  ActiveSet& slot(int s) override {
    return slots_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& slot(int s) const override {
    return slots_[static_cast<std::size_t>(s)];
  }

  void set_use_locks(bool locks) noexcept override { use_locks_ = locks; }

  float* weight_row(Index unit) noexcept {
    return weights_.data() + static_cast<std::size_t>(unit) * fan_in_;
  }
  const float* weight_row(Index unit) const noexcept {
    return weights_.data() + static_cast<std::size_t>(unit) * fan_in_;
  }
  /// Accumulated (pre-apply) gradient row — diagnostics/tests.
  const float* gradient_row(Index unit) const noexcept {
    return grads_.data() + static_cast<std::size_t>(unit) * fan_in_;
  }
  float bias(Index unit) const noexcept { return bias_[unit]; }
  float bias_gradient(Index unit) const noexcept { return bias_grad_[unit]; }

  /// Whole-parameter views (serialization / checkpointing).
  std::span<float> weights_span() noexcept override {
    return {weights_.data(), weights_.size()};
  }
  std::span<const float> weights_span() const noexcept override {
    return {weights_.data(), weights_.size()};
  }
  std::span<float> bias_span() noexcept override {
    return {bias_.data(), bias_.size()};
  }
  std::span<const float> bias_span() const noexcept override {
    return {bias_.data(), bias_.size()};
  }

  /// Marks the incremental-rehash memo stale (weights changed externally,
  /// e.g. by a checkpoint load); the next rebuild re-projects from weights.
  void invalidate_memo() noexcept { memo_initialized_ = false; }
  void on_weights_loaded() noexcept override {
    awaiting_checkpoint_ = false;
    invalidate_memo();
    refresh_inference_mirror();
  }

  std::size_t num_parameters() const noexcept override {
    return static_cast<std::size_t>(units_) * fan_in_ + units_;
  }

  Precision inference_precision() const noexcept override {
    return config_.precision;
  }
  void refresh_inference_mirror() noexcept override;
  std::size_t inference_weight_bytes() const noexcept override;
  LayerMemory memory() const noexcept override;

  /// The layer's (double-buffered) tables; null for unhashed layers and
  /// for non-LSH retrievers. Query helpers and diagnostics delegate to the
  /// active group — see MaintainedTables for what is safe under concurrent
  /// maintenance.
  const MaintainedTables* tables() const noexcept { return tables_; }

  /// The layer's candidate retriever; null for unhashed layers.
  const retrieval::Retriever* retriever() const noexcept {
    return retriever_.get();
  }
  retrieval::RetrieverKind retriever_kind() const noexcept override {
    return config_.retriever;
  }
  RetrievalStats retrieval_stats() const override;
  void save_retriever_state(std::ostream& out) const override;
  bool load_retriever_state(std::istream& in, std::uint64_t bytes) override;

  /// Average active fraction over forwards since the last reset (diagnostic;
  /// the paper reports ~0.5% active neurons in the output layer).
  double average_active_fraction() const override;
  void reset_active_stats();

  /// Per-thread time spent in LSH sampling vs activation math since the
  /// last reset (drives the Figure 6 / Table 2 instrumentation).
  double sampling_seconds() const override;
  double compute_seconds() const override;
  void reset_phase_timers();

 private:
  void select_active(int slot, const ActiveSet& prev,
                     std::span<const Index> forced, Rng& rng,
                     VisitedSet& visited, int tid);
  void compute_activations(ActiveSet& set, const ActiveSet& prev) const;
  float activation_of(Index unit, std::span<const Index> prev_ids,
                      std::span<const float> prev_act) const;
  /// Mirror-reading twins of activation_of (quantized inference scoring).
  float activation_of_bf16(Index unit, std::span<const Index> prev_ids,
                           std::span<const float> prev_act) const;
  float activation_of_f16(Index unit, std::span<const Index> prev_ids,
                          std::span<const float> prev_act) const;
  /// Int8 scoring: against a dense prev the caller provides the u8-quantized
  /// activations (qx, one quantize_act_u8 per query) and their scale;
  /// against a sparse prev qx is unused (fp32 values x widened s8 weights).
  float activation_of_i8(Index unit, std::span<const Index> prev_ids,
                         std::span<const float> prev_act, const simd::U8* qx,
                         float act_scale) const;
  /// Scores `ids` against the previous active set into out[0..ids.size())
  /// through whichever precision tier is active, prefetching the candidate
  /// rows kPrefetchDistance ahead (the rows are LSH-sampled, i.e. scattered
  /// — exactly the access pattern the software prefetch pays for). Shared
  /// by forward_inference and escalate_to_exact.
  void score_rows(std::span<const Index> ids, std::span<const Index> prev_ids,
                  std::span<const float> prev_act, float* out) const;
  /// Adaptive-policy escalation: scores every unit into act_out (ids_out
  /// becomes 0..units-1), and records the escaped query's candidate recall
  /// against the exact top-k (the candidates are the ids stamped in
  /// `visited`). See SamplingConfig::escalation_floor.
  void escalate_to_exact(std::span<const Index> prev_ids,
                         std::span<const float> prev_act,
                         const VisitedSet& visited,
                         std::vector<Index>& ids_out,
                         std::vector<float>& act_out) const;
  bool bf16_inference() const noexcept {
    return config_.precision == Precision::kBF16 && !weights_bf16_.empty();
  }
  bool f16_inference() const noexcept {
    return config_.precision == Precision::kFP16 && !weights_f16_.empty();
  }
  bool i8_inference() const noexcept {
    return config_.precision == Precision::kInt8 && !weights_i8_.empty();
  }
  /// Row base pointer of whichever storage the inference path reads —
  /// feeds the candidate-row software prefetch in the scoring loop.
  const void* inference_row(Index unit) const noexcept {
    const std::size_t off = static_cast<std::size_t>(unit) * fan_in_;
    if (i8_inference()) return weights_i8_.data() + off;
    if (f16_inference()) return weights_f16_.data() + off;
    if (bf16_inference()) return weights_bf16_.data() + off;
    return weights_.data() + off;
  }

  /// Clears `group` and re-hashes every neuron into it (memoized Simhash
  /// projections when incremental rehash is on). Shared by the sync
  /// in-place path and the async shadow-build path.
  void build_group(LshTableGroup& group, ThreadPool* pool);
  /// Enqueues an async full rebuild (shadow build + publish) unless one is
  /// already pending.
  void schedule_full_rebuild();
  /// Enqueues an async delta re-insert unless one is already pending.
  void schedule_delta_reinsert();
  /// Atomically takes the queued dirty units into `ids` and re-arms their
  /// flags so later updates re-queue them.
  void drain_dirty(std::vector<Index>& ids);
  /// Worker-thread body: drains the dirty queue and re-inserts those
  /// neurons into the live active group under their current keys.
  void run_delta_reinsert();

  Config config_;
  Index units_;
  Index fan_in_;

  HugeArray weights_;  // [units x fan_in], neuron-major
  HugeArray grads_;
  AlignedVector<float> bias_;
  AlignedVector<float> bias_grad_;
  // Quantized inference mirrors, same neuron-major layout as weights_;
  // only the one matching config_.precision is ever allocated (hugepage-
  // backed — see EmbeddingLayer). i8_scales_ is the per-neuron-row scale.
  HugeArrayT<simd::Bf16> weights_bf16_;
  HugeArrayT<simd::Fp16> weights_f16_;
  HugeArrayT<simd::I8> weights_i8_;
  AlignedVector<float> i8_scales_;  // [units]
  Adam adam_;  // layout: weights then bias

  std::vector<ActiveSet> slots_;

  /// Candidate generation (src/retrieval/): owns the index. For kLsh,
  /// `tables_` aliases the LshRetriever's MaintainedTables so the memoized
  /// rebuild / delta-reinsert machinery below drives them directly; for the
  /// other backends `tables_` is null and maintenance dispatches through
  /// the Retriever interface.
  std::unique_ptr<retrieval::Retriever> retriever_;
  MaintainedTables* tables_ = nullptr;
  const Simhash* simhash_ = nullptr;  // set when family is Simhash
  HugeArray projection_memo_;         // [units x K*L] when incremental

  std::unique_ptr<std::atomic<std::uint8_t>[]> touched_;
  std::vector<std::vector<Index>> touched_lists_;
  std::vector<Index> apply_scratch_;  // merged touched list (apply_updates)
  bool use_locks_ = false;
  std::mutex accum_mutex_;

  // Rebuild schedule state (single maintenance-driving thread: the
  // trainer's maybe_rebuild caller).
  long next_rebuild_ = 0;
  long schedule_events_ = 0;  // maintenance events fired (drives the decay)
  std::atomic<long> rebuild_count_{0};
  std::atomic<bool> memo_initialized_{false};

  // Async maintenance state. The dirty queue collects the DISTINCT units
  // touched by apply_updates since the last drain (async_delta only): the
  // per-unit flag keeps a unit queued at most once, so the escalation
  // check in maybe_rebuild compares true dirty coverage, not a
  // duplicate-inflated count.
  mutable std::mutex dirty_mutex_;
  std::vector<Index> dirty_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_flag_;
  std::atomic<long> delta_reinserted_{0};
  std::atomic<bool> full_pending_{false};
  std::atomic<bool> delta_pending_{false};

  // Diagnostics.
  std::atomic<std::uint64_t> active_sum_{0};
  std::atomic<std::uint64_t> active_events_{0};
  // Adaptive-retrieval counters (escalation_floor > 0 only); mutable:
  // bumped on the const inference path.
  mutable std::atomic<long> escalations_{0};
  mutable std::atomic<long> escalation_overlap_{0};
  mutable std::atomic<long> escalation_oracle_{0};
  struct alignas(kCacheLineSize) PaddedDouble {
    std::atomic<double> value{0.0};
  };
  std::vector<PaddedDouble> sampling_time_;
  std::vector<PaddedDouble> compute_time_;

  std::uint64_t seed_;
  /// Units appended by add_units since construction (checkpoint v5).
  Index appended_units_ = 0;
  /// Set by a ParamInit::checkpoint() construction until the checkpoint's
  /// weights arrive (on_weights_loaded): the weights, mirrors and index are
  /// placeholders meanwhile, and add_units leaves them so too. The load
  /// builds or restores the index after the weights.
  bool awaiting_checkpoint_ = false;

  // Declared last: its destructor joins the maintenance thread before any
  // state that thread touches (weights, tables, memo) is torn down.
  std::unique_ptr<BackgroundWorker> worker_;
};

// ---------------------------------------------------------------------------

/// A fully dense stack layer: every unit computes on every input. This is
/// the honest baseline path (full softmax when it is the output layer) and
/// the shape of ReLU mid-stack layers in deep configurations.
class DenseLayer final : public SampledLayer {
 public:
  DenseLayer(Index units, Index fan_in, Activation activation,
             float init_stddev, const AdamConfig& adam, std::uint64_t seed,
             int batch_slots, int max_threads,
             Precision precision = Precision::kFP32,
             ParamInit init = ParamInit::random());
};

/// Static uniform sampling (the Sampled Softmax baseline of paper §5.1):
/// actives = forced labels + uniformly random classes up to `num_sampled`.
/// Unlike the LSH path the choice is input-independent — that is the point
/// of the paper's Figure 7 comparison.
class RandomSampledLayer final : public SampledLayer {
 public:
  RandomSampledLayer(Index units, Index fan_in, Index num_sampled,
                     Activation activation, float init_stddev,
                     const AdamConfig& adam, std::uint64_t seed,
                     int batch_slots, int max_threads,
                     Precision precision = Precision::kFP32,
                     ParamInit init = ParamInit::random());
};

/// Builds the concrete Layer for a LayerSpec (DenseLayer, SampledLayer, or
/// RandomSampledLayer) — the single construction point used by Network.
/// `precision` is the network-wide inference precision (config.h).
/// Distributed layers ignore `init`: their workers build their own shards.
std::unique_ptr<Layer> make_layer(const LayerSpec& spec, Index fan_in,
                                  const AdamConfig& adam, std::uint64_t seed,
                                  int batch_slots, int max_threads,
                                  Precision precision = Precision::kFP32,
                                  ParamInit init = ParamInit::random());

}  // namespace slide
