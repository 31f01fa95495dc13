#include "core/layer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/serialize.h"
#include "core/sharded_layer.h"
#include "dist/remote_shard.h"
#include "retrieval/exact_retriever.h"
#include "retrieval/hnsw_retriever.h"
#include "retrieval/lsh_retriever.h"
#include "simd/kernels.h"
#include "sys/prefetch.h"
#include "sys/timer.h"

namespace slide {

namespace {

void init_normal(float* w, std::size_t n, float stddev, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) w[i] = stddev * rng.normal();
}

/// Under async_delta, every k-th maintenance event runs a full rebuild
/// instead of a delta pass, flushing the stale bucket entries delta passes
/// leave behind (see SampledLayer::run_delta_reinsert).
constexpr long kDeltaHygienePeriod = 10;

// Weight-element-generic kernel selectors: the fp32 master path and the
// bf16 mirror path share one loop body below, differing only in the weight
// pointer type these resolve on.
inline void axpy_any(float alpha, const float* x, float* y,
                     std::size_t n) noexcept {
  simd::axpy(alpha, x, y, n);
}
inline void axpy_any(float alpha, const simd::Bf16* x, float* y,
                     std::size_t n) noexcept {
  simd::axpy_bf16(alpha, x, y, n);
}
inline float dot_any(const float* w, const float* x, std::size_t n) noexcept {
  return simd::dot(w, x, n);
}
inline float dot_any(const simd::Bf16* w, const float* x,
                     std::size_t n) noexcept {
  return simd::dot_bf16(w, x, n);
}
inline float sparse_dot_any(const Index* idx, const float* val,
                            std::size_t nnz, const float* w) noexcept {
  return simd::sparse_dot(idx, val, nnz, w);
}
inline float sparse_dot_any(const Index* idx, const float* val,
                            std::size_t nnz, const simd::Bf16* w) noexcept {
  return simd::sparse_dot_bf16(idx, val, nnz, w);
}

/// The embedding forward body shared by the fp32 master path and the bf16
/// mirror path: out = ReLU(W^T x + b) with W input-major [input_dim x
/// units].
template <typename W>
void embedding_forward(const AlignedVector<float>& bias, const W* weights,
                       Index units, const SparseVector& x, float* out,
                       [[maybe_unused]] Index input_dim) {
  std::copy(bias.begin(), bias.end(), out);
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    SLIDE_ASSERT(idx[i] < input_dim);
    if (i + kPrefetchDistance < idx.size()) {
      prefetch_read(weights + static_cast<std::size_t>(
                                  idx[i + kPrefetchDistance]) *
                                  units);
    }
    axpy_any(val[i], weights + static_cast<std::size_t>(idx[i]) * units, out,
             units);
  }
  simd::relu(out, units);
}

// Fp16 and Bf16 share the storage type (std::uint16_t), so the fp16 mirror
// cannot ride the axpy_any overload set — it gets an explicit twin.
void embedding_forward_f16(const AlignedVector<float>& bias,
                           const simd::Fp16* weights, Index units,
                           const SparseVector& x, float* out,
                           [[maybe_unused]] Index input_dim) {
  std::copy(bias.begin(), bias.end(), out);
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    SLIDE_ASSERT(idx[i] < input_dim);
    if (i + kPrefetchDistance < idx.size()) {
      prefetch_read(weights + static_cast<std::size_t>(
                                  idx[i + kPrefetchDistance]) *
                                  units);
    }
    simd::axpy_f16(val[i], weights + static_cast<std::size_t>(idx[i]) * units,
                   out, units);
  }
  simd::relu(out, units);
}

/// Int8 embedding forward: each active input feature contributes one
/// s8 row; its per-row scale folds into the axpy alpha together with the
/// feature value, so accumulation stays fp32.
void embedding_forward_i8(const AlignedVector<float>& bias,
                          const simd::I8* weights, const float* row_scales,
                          Index units, const SparseVector& x, float* out,
                          [[maybe_unused]] Index input_dim) {
  std::copy(bias.begin(), bias.end(), out);
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    SLIDE_ASSERT(idx[i] < input_dim);
    if (i + kPrefetchDistance < idx.size()) {
      prefetch_read(weights + static_cast<std::size_t>(
                                  idx[i + kPrefetchDistance]) *
                                  units);
    }
    const float alpha = val[i] * row_scales[idx[i]];
    if (alpha == 0.0f) continue;  // zero row (scale 0) or zero feature
    simd::axpy_i8(alpha, weights + static_cast<std::size_t>(idx[i]) * units,
                  out, units);
  }
  simd::relu(out, units);
}

/// Bytes of one quantized mirror actually backed by THP (all-or-nothing
/// per allocation: HugeBuffer records whether the kernel accepted the
/// madvise for the whole range).
template <typename T>
std::size_t thp_bytes(const HugeArrayT<T>& mirror) noexcept {
  return mirror.uses_thp() ? mirror.size() * sizeof(T) : 0;
}

/// One unit's pre-activation against the previous layer's active set,
/// generic over the weight element type (fp32 masters / bf16 mirror).
template <typename W>
float score_unit(float bias, const W* w, std::span<const Index> prev_ids,
                 std::span<const float> prev_act) noexcept {
  if (prev_ids.empty()) return bias + dot_any(w, prev_act.data(), prev_act.size());
  return bias + sparse_dot_any(prev_ids.data(), prev_act.data(),
                               prev_ids.size(), w);
}

SampledLayer::Config dense_layer_config(Index units, Index fan_in,
                                        Activation activation,
                                        float init_stddev,
                                        const AdamConfig& adam,
                                        std::uint64_t seed,
                                        Precision precision) {
  SampledLayer::Config cfg;
  cfg.units = units;
  cfg.fan_in = fan_in;
  cfg.activation = activation;
  cfg.hashed = false;
  cfg.random_sampled = false;
  cfg.init_stddev = init_stddev;
  cfg.adam = adam;
  cfg.precision = precision;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDense:
      return "dense";
    case LayerKind::kSampled:
      return "sampled";
    case LayerKind::kRandomSampled:
      return "random_sampled";
    case LayerKind::kSharded:
      return "sharded";
  }
  return "?";
}

void Layer::forward_inference_topk(std::span<const Index> prev_ids,
                                   std::span<const float> prev_act, int k,
                                   bool exact, Rng& rng, VisitedSet& visited,
                                   TopKScratch& scratch,
                                   std::vector<Index>& out) const {
  forward_inference(prev_ids, prev_act, exact, rng, visited, scratch.ids,
                    scratch.act);
  std::vector<std::size_t>& order = scratch.order;
  const std::vector<float>& act = scratch.act;
  order.resize(act.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t take =
      std::min<std::size_t>(static_cast<std::size_t>(k), order.size());
  // Ties break toward the earlier candidate position (the lower unit id in
  // exact mode), matching predict_top1's first-max rule.
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(take),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return act[a] > act[b] || (act[a] == act[b] && a < b);
                    });
  out.clear();
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(scratch.ids.empty() ? static_cast<Index>(order[i])
                                      : scratch.ids[order[i]]);
  }
}

// ===========================================================================
// EmbeddingLayer
// ===========================================================================

EmbeddingLayer::EmbeddingLayer(Index input_dim, Index units,
                               float init_stddev, int batch_slots,
                               int max_threads, const AdamConfig& adam,
                               std::uint64_t seed, Precision precision,
                               ParamInit init)
    : input_dim_(input_dim),
      units_(units),
      precision_(precision),
      weights_(static_cast<std::size_t>(input_dim) * units),
      grads_(static_cast<std::size_t>(input_dim) * units),
      bias_(units, 0.0f),
      bias_grad_(units, 0.0f),
      adam_(adam, static_cast<std::size_t>(input_dim) * units + units) {
  SLIDE_CHECK(input_dim_ > 0 && units_ > 0,
              "EmbeddingLayer: dimensions must be positive");
  SLIDE_CHECK(batch_slots > 0 && max_threads > 0,
              "EmbeddingLayer: slots/threads must be positive");
  if (!init.from_checkpoint()) {
    Rng rng(seed);
    init_normal(weights_.data(), weights_.size(),
                init_stddev > 0.0f ? init_stddev : 0.5f, rng);
  }

  slots_.resize(static_cast<std::size_t>(batch_slots));
  for (auto& s : slots_) {
    s.dense_width = units_;
    s.act.assign(units_, 0.0f);
    s.err.assign(units_, 0.0f);
  }
  // C++20 value-initializes atomics: the array starts zeroed.
  column_touched_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(input_dim_);
  touched_lists_.resize(static_cast<std::size_t>(max_threads));

  // Allocate the quantized mirror up front so later refreshes are noexcept
  // (re-quantize in place, no reallocation). Exactly one mirror exists,
  // matching the precision; all are hugepage-backed (HugeArrayT).
  switch (precision_) {
    case Precision::kFP32:
      break;
    case Precision::kBF16:
      weights_bf16_.resize(weights_.size());
      break;
    case Precision::kFP16:
      weights_f16_.resize(weights_.size());
      break;
    case Precision::kInt8:
      weights_i8_.resize(weights_.size());
      i8_scales_.assign(static_cast<std::size_t>(input_dim_), 0.0f);
      break;
  }
  if (!init.from_checkpoint()) refresh_inference_mirror();
}

void EmbeddingLayer::refresh_inference_mirror() noexcept {
  switch (precision_) {
    case Precision::kFP32:
      return;
    case Precision::kBF16:
      simd::quantize_bf16(weights_.data(), weights_bf16_.data(),
                          weights_.size());
      return;
    case Precision::kFP16:
      simd::quantize_f16(weights_.data(), weights_f16_.data(),
                         weights_.size());
      return;
    case Precision::kInt8:
      // Per-input-row symmetric quantization (rows are units_-long here:
      // the layout is input-major).
      for (Index r = 0; r < input_dim_; ++r) {
        const std::size_t off = static_cast<std::size_t>(r) * units_;
        i8_scales_[r] = simd::quantize_i8(weights_.data() + off,
                                          weights_i8_.data() + off, units_);
      }
      return;
  }
}

std::size_t EmbeddingLayer::inference_weight_bytes() const noexcept {
  const std::size_t bias_bytes = bias_.size() * sizeof(float);
  if (bf16_inference())
    return weights_bf16_.size() * sizeof(simd::Bf16) + bias_bytes;
  if (f16_inference())
    return weights_f16_.size() * sizeof(simd::Fp16) + bias_bytes;
  if (i8_inference())
    return weights_i8_.size() * sizeof(simd::I8) +
           i8_scales_.size() * sizeof(float) + bias_bytes;
  return weights_.size() * sizeof(float) + bias_bytes;
}

LayerMemory EmbeddingLayer::memory() const noexcept {
  LayerMemory m;
  m.master_bytes = (weights_.size() + bias_.size()) * sizeof(float);
  m.mirror_bytes = weights_bf16_.size() * sizeof(simd::Bf16) +
                   weights_f16_.size() * sizeof(simd::Fp16) +
                   weights_i8_.size() * sizeof(simd::I8) +
                   i8_scales_.size() * sizeof(float);
  m.mirror_hugepage_bytes = thp_bytes(weights_bf16_) + thp_bytes(weights_f16_) +
                            thp_bytes(weights_i8_);
  m.optimizer_bytes = (grads_.size() + bias_grad_.size()) * sizeof(float) +
                      2 * adam_.num_params() * sizeof(float);
  return m;
}

void EmbeddingLayer::forward(int slot, const SparseVector& x) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  forward_master(x, s.act.data());  // training always reads fp32 masters
  std::fill(s.err.begin(), s.err.end(), 0.0f);
}

void EmbeddingLayer::forward_master(const SparseVector& x,
                                    float* out) const {
  embedding_forward(bias_, weights_.data(), units_, x, out, input_dim_);
}

void EmbeddingLayer::forward_inference(const SparseVector& x,
                                       float* out) const {
  if (bf16_inference()) {
    embedding_forward(bias_, weights_bf16_.data(), units_, x, out,
                      input_dim_);
  } else if (f16_inference()) {
    embedding_forward_f16(bias_, weights_f16_.data(), units_, x, out,
                          input_dim_);
  } else if (i8_inference()) {
    embedding_forward_i8(bias_, weights_i8_.data(), i8_scales_.data(), units_,
                         x, out, input_dim_);
  } else {
    forward_master(x, out);
  }
}

void EmbeddingLayer::backward(int slot, const SparseVector& x, int tid) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  // ReLU': activations are post-ReLU, so act > 0 <=> pre-activation > 0.
  for (Index j = 0; j < units_; ++j) {
    if (s.act[j] <= 0.0f) s.err[j] = 0.0f;
  }

  std::unique_lock<std::mutex> lock;
  if (use_locks_) lock = std::unique_lock(accum_mutex_);

  // Bias gradient (racy accumulate across slots — HOGWILD).
  simd::axpy(1.0f, s.err.data(), bias_grad_.data(), units_);

  const auto idx = x.indices();
  const auto val = x.values();
  auto& touched = touched_lists_[static_cast<std::size_t>(tid)];
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const Index c = idx[i];
    float* g = grads_.data() + static_cast<std::size_t>(c) * units_;
    if (i + kPrefetchDistance < idx.size()) {
      prefetch_write(grads_.data() +
                     static_cast<std::size_t>(idx[i + kPrefetchDistance]) *
                         units_);
    }
    simd::axpy(val[i], s.err.data(), g, units_);
    if (column_touched_[c].exchange(1, std::memory_order_relaxed) == 0)
      touched.push_back(c);
  }
}

void EmbeddingLayer::apply_updates(float lr, ThreadPool* pool) {
  adam_.step_begin();

  // The bias row is touched by every sample; update it densely.
  const std::size_t bias_base = static_cast<std::size_t>(input_dim_) * units_;
  adam_.update_span(bias_.data(), bias_grad_.data(), bias_base, units_, lr);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0f);

  // Note: must NOT be thread_local — the lambda below runs on pool workers,
  // and thread_locals are not captured (each worker would see its own,
  // empty, instance).
  std::vector<Index>& cols = apply_scratch_;
  cols.clear();
  for (auto& list : touched_lists_) {
    cols.insert(cols.end(), list.begin(), list.end());
    list.clear();
  }

  auto apply_column = [&](std::size_t k, int) {
    const Index c = cols[k];
    float* w = weight_column(c);
    float* g = grads_.data() + static_cast<std::size_t>(c) * units_;
    adam_.update_span(w, g, static_cast<std::size_t>(c) * units_, units_, lr);
    std::fill(g, g + units_, 0.0f);
    column_touched_[c].store(0, std::memory_order_relaxed);
  };
  if (pool != nullptr && pool->num_threads() > 1 && cols.size() > 64) {
    pool->parallel_for(cols.size(), apply_column);
  } else {
    for (std::size_t k = 0; k < cols.size(); ++k) apply_column(k, 0);
  }
}

// ===========================================================================
// SampledLayer
// ===========================================================================

SampledLayer::SampledLayer(const Config& config, int batch_slots,
                           int max_threads, ParamInit init)
    : config_(config),
      units_(config.units),
      fan_in_(config.fan_in),
      weights_(static_cast<std::size_t>(config.units) * config.fan_in),
      grads_(static_cast<std::size_t>(config.units) * config.fan_in),
      bias_(config.units, 0.0f),
      bias_grad_(config.units, 0.0f),
      adam_(config.adam,
            static_cast<std::size_t>(config.units) * config.fan_in +
                config.units),
      seed_(config.seed),
      awaiting_checkpoint_(init.from_checkpoint()) {
  SLIDE_CHECK(units_ > 0 && fan_in_ > 0,
              "SampledLayer: dimensions must be positive");
  SLIDE_CHECK(batch_slots > 0 && max_threads > 0,
              "SampledLayer: slots/threads must be positive");
  SLIDE_CHECK(!(config_.hashed && config_.random_sampled),
              "SampledLayer: hashed and random_sampled are exclusive");

  if (!awaiting_checkpoint_) {
    Rng rng(config.seed);
    const float stddev = config.init_stddev > 0.0f
                             ? config.init_stddev
                             : 2.0f / std::sqrt(static_cast<float>(fan_in_));
    init_normal(weights_.data(), weights_.size(), stddev, rng);
  }

  slots_.resize(static_cast<std::size_t>(batch_slots));
  touched_ = std::make_unique<std::atomic<std::uint8_t>[]>(units_);
  touched_lists_.resize(static_cast<std::size_t>(max_threads));
  sampling_time_ = std::vector<PaddedDouble>(
      static_cast<std::size_t>(max_threads));
  compute_time_ = std::vector<PaddedDouble>(
      static_cast<std::size_t>(max_threads));

  if (config_.hashed) {
    HashFamilyConfig family = config_.family;
    family.dim = fan_in_;
    if (config_.incremental_rehash) {
      SLIDE_CHECK(family.kind == HashFamilyKind::kSimhash,
                  "incremental_rehash requires the Simhash family");
      SLIDE_CHECK(config_.retriever == retrieval::RetrieverKind::kLsh,
                  "incremental_rehash requires the LSH retriever");
    }
    const retrieval::RowView rows{weights_.data(), fan_in_, units_};
    switch (config_.retriever) {
      case retrieval::RetrieverKind::kLsh: {
        // The retriever owns the tables; the layer keeps a raw alias so
        // the memo-aware rebuild / delta-reinsert machinery below drives
        // them directly (bit-identical to the pre-subsystem layer).
        auto lsh = std::make_unique<retrieval::LshRetriever>(
            make_hash_family(family), config_.table, config_.sampling, rows,
            config.seed + 1);
        tables_ = &lsh->tables();
        retriever_ = std::move(lsh);
        break;
      }
      case retrieval::RetrieverKind::kExact:
        retriever_ = std::make_unique<retrieval::ExactRetriever>(rows);
        break;
      case retrieval::RetrieverKind::kHnsw:
        retriever_ = std::make_unique<retrieval::HnswRetriever>(
            rows, config_.hnsw, config.seed + 1);
        break;
    }
    if (tables_ != nullptr) {
      simhash_ = dynamic_cast<const Simhash*>(&tables_->family());
      if (config_.incremental_rehash) {
        SLIDE_ASSERT(simhash_ != nullptr);
        projection_memo_ = HugeArray(
            static_cast<std::size_t>(units_) *
            static_cast<std::size_t>(simhash_->num_projections()));
      }
    }
    // The worker object is free until its first task spawns the thread, so
    // async layers can construct it eagerly (no lazy-init race to manage).
    if (config_.maintenance != MaintenancePolicy::kSync)
      worker_ = std::make_unique<BackgroundWorker>();
    if (config_.maintenance == MaintenancePolicy::kAsyncDelta)
      dirty_flag_ = std::make_unique<std::atomic<std::uint8_t>[]>(units_);
    next_rebuild_ = config_.rebuild.initial_period;
    // A layer awaiting its checkpoint gets its index from the load.
    if (!awaiting_checkpoint_) {
      if (tables_ != nullptr) {
        build_group(tables_->active_group(), nullptr);  // initial build (§3.1)
      } else {
        retriever_->rebuild(nullptr);  // initial index build
      }
    }
  }

  // Allocate the quantized mirror up front so later refreshes are noexcept
  // (re-quantize in place, no reallocation).
  switch (config_.precision) {
    case Precision::kFP32:
      break;
    case Precision::kBF16:
      weights_bf16_.resize(weights_.size());
      break;
    case Precision::kFP16:
      weights_f16_.resize(weights_.size());
      break;
    case Precision::kInt8:
      weights_i8_.resize(weights_.size());
      i8_scales_.assign(static_cast<std::size_t>(units_), 0.0f);
      break;
  }
  if (!awaiting_checkpoint_) refresh_inference_mirror();
}

void SampledLayer::refresh_inference_mirror() noexcept {
  switch (config_.precision) {
    case Precision::kFP32:
      return;
    case Precision::kBF16:
      simd::quantize_bf16(weights_.data(), weights_bf16_.data(),
                          weights_.size());
      return;
    case Precision::kFP16:
      simd::quantize_f16(weights_.data(), weights_f16_.data(),
                         weights_.size());
      return;
    case Precision::kInt8:
      // Per-neuron-row symmetric quantization (rows are fan_in_-long;
      // neuron-major layout). Row-local and deterministic, so reloading the
      // same masters under any shard partition reproduces identical scales.
      for (Index u = 0; u < units_; ++u) {
        const std::size_t off =
            static_cast<std::size_t>(u) * static_cast<std::size_t>(fan_in_);
        i8_scales_[u] = simd::quantize_i8(weights_.data() + off,
                                          weights_i8_.data() + off,
                                          static_cast<std::size_t>(fan_in_));
      }
      return;
  }
}

std::size_t SampledLayer::inference_weight_bytes() const noexcept {
  const std::size_t bias_bytes = bias_.size() * sizeof(float);
  if (bf16_inference())
    return weights_bf16_.size() * sizeof(simd::Bf16) + bias_bytes;
  if (f16_inference())
    return weights_f16_.size() * sizeof(simd::Fp16) + bias_bytes;
  if (i8_inference())
    return weights_i8_.size() * sizeof(simd::I8) +
           i8_scales_.size() * sizeof(float) + bias_bytes;
  return weights_.size() * sizeof(float) + bias_bytes;
}

LayerMemory SampledLayer::memory() const noexcept {
  LayerMemory m;
  m.master_bytes = (weights_.size() + bias_.size()) * sizeof(float);
  m.mirror_bytes = weights_bf16_.size() * sizeof(simd::Bf16) +
                   weights_f16_.size() * sizeof(simd::Fp16) +
                   weights_i8_.size() * sizeof(simd::I8) +
                   i8_scales_.size() * sizeof(float);
  m.mirror_hugepage_bytes = thp_bytes(weights_bf16_) + thp_bytes(weights_f16_) +
                            thp_bytes(weights_i8_);
  m.optimizer_bytes = (grads_.size() + bias_grad_.size()) * sizeof(float) +
                      2 * adam_.num_params() * sizeof(float);
  m.retriever_bytes =
      retriever_ != nullptr ? retriever_->memory_bytes() : 0;
  return m;
}

float SampledLayer::activation_of_bf16(
    Index unit, std::span<const Index> prev_ids,
    std::span<const float> prev_act) const {
  const simd::Bf16* w =
      weights_bf16_.data() + static_cast<std::size_t>(unit) * fan_in_;
  return score_unit(bias_[unit], w, prev_ids, prev_act);
}

float SampledLayer::activation_of_f16(
    Index unit, std::span<const Index> prev_ids,
    std::span<const float> prev_act) const {
  // Fp16 shares Bf16's storage type (std::uint16_t), so score_unit's
  // overload set cannot dispatch on it — call the f16 kernels directly.
  const simd::Fp16* w =
      weights_f16_.data() + static_cast<std::size_t>(unit) * fan_in_;
  if (prev_ids.empty())
    return bias_[unit] + simd::dot_f16(w, prev_act.data(), prev_act.size());
  return bias_[unit] + simd::sparse_dot_f16(prev_ids.data(), prev_act.data(),
                                            prev_ids.size(), w);
}

float SampledLayer::activation_of_i8(Index unit,
                                     std::span<const Index> prev_ids,
                                     std::span<const float> prev_act,
                                     const simd::U8* qx,
                                     float act_scale) const {
  const simd::I8* w =
      weights_i8_.data() + static_cast<std::size_t>(unit) * fan_in_;
  const float sw = i8_scales_[unit];
  if (sw == 0.0f) return bias_[unit];  // all-zero weight row
  if (prev_ids.empty()) {
    // Dense prev: integer dot against the caller's u8-quantized
    // activations, score recovered as sw * sx * dot (simd/int8.h).
    if (act_scale == 0.0f) return bias_[unit];  // all-zero activations
    return bias_[unit] +
           sw * act_scale *
               static_cast<float>(simd::dot_i8(w, qx, prev_act.size()));
  }
  // Sparse prev: fp32 values against widened s8 weights (a byte gather has
  // no SIMD win at SLIDE's active-set sparsity).
  return bias_[unit] + sw * simd::sparse_dot_i8(prev_ids.data(),
                                                prev_act.data(),
                                                prev_ids.size(), w);
}

float SampledLayer::activation_of(Index unit,
                                  std::span<const Index> prev_ids,
                                  std::span<const float> prev_act) const {
  return score_unit(bias_[unit], weight_row(unit), prev_ids, prev_act);
}

void SampledLayer::score_rows(std::span<const Index> ids,
                              std::span<const Index> prev_ids,
                              std::span<const float> prev_act,
                              float* out) const {
  const std::size_t n = ids.size();
  if (i8_inference()) {
    const simd::U8* qx = nullptr;
    float sx = 0.0f;
    if (prev_ids.empty()) {
      // One activation quantization per query, amortized over every
      // candidate row scored below.
      thread_local std::vector<simd::U8> qx_scratch;
      qx_scratch.resize(prev_act.size());
      sx = simd::quantize_act_u8(prev_act.data(), qx_scratch.data(),
                                 prev_act.size());
      qx = qx_scratch.data();
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n)
        prefetch_read(inference_row(ids[i + kPrefetchDistance]));
      out[i] = activation_of_i8(ids[i], prev_ids, prev_act, qx, sx);
    }
    return;
  }
  if (f16_inference()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n)
        prefetch_read(inference_row(ids[i + kPrefetchDistance]));
      out[i] = activation_of_f16(ids[i], prev_ids, prev_act);
    }
    return;
  }
  if (bf16_inference()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n)
        prefetch_read(inference_row(ids[i + kPrefetchDistance]));
      out[i] = activation_of_bf16(ids[i], prev_ids, prev_act);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n)
      prefetch_read(inference_row(ids[i + kPrefetchDistance]));
    out[i] = activation_of(ids[i], prev_ids, prev_act);
  }
}

void SampledLayer::select_active(int slot, const ActiveSet& prev,
                                 std::span<const Index> forced, Rng& rng,
                                 VisitedSet& visited, int tid) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  s.ids.clear();
  const Index target = std::min<Index>(config_.sampling.target, units_);

  visited.begin_epoch();
  for (Index f : forced) {
    SLIDE_ASSERT(f < units_);
    if (visited.insert(f)) s.ids.push_back(f);
  }

  // Tombstone gate: false on the no-churn path, so the loops below stay
  // bit-identical (and consume the same RNG stream) when nothing was ever
  // retired.
  const bool tombstoned =
      retriever_ != nullptr && retriever_->has_removed();

  if (target >= units_) {
    // Degenerate setting: everything (live) is active.
    for (Index u = 0; u < units_; ++u) {
      if (tombstoned && retriever_->is_removed(u)) continue;
      if (visited.insert(u)) s.ids.push_back(u);
    }
    return;
  }

  WallTimer timer;
  // Candidate generation through the retriever (fresh_epoch = false: the
  // forced labels above are pre-stamped so they are never re-retrieved).
  // For the LSH backend this is the historical key → pin → buckets →
  // sample_neurons sequence, bit for bit.
  retriever_->retrieve(prev.ids,
                       std::span<const float>(prev.act.data(), prev.size()),
                       target, rng, visited, s.ids,
                       /*fresh_epoch=*/false);

  if (config_.fill_random_to_target && s.ids.size() < target) {
    // Uniform random top-up (the reference implementation's fill-in). The
    // attempt cap guards against the coupon-collector tail when target is
    // close to the layer width.
    long attempts = 20L * static_cast<long>(target);
    while (s.ids.size() < target && attempts-- > 0) {
      const Index id = rng.uniform(units_);
      if (tombstoned && retriever_->is_removed(id)) continue;
      if (visited.insert(id)) s.ids.push_back(id);
    }
  }
  auto& acc = sampling_time_[static_cast<std::size_t>(tid)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

void SampledLayer::compute_activations(ActiveSet& s,
                                       const ActiveSet& prev) const {
  const std::span<const Index> prev_ids = prev.ids;
  const std::span<const float> prev_act(prev.act.data(), prev.size());
  if (s.dense()) {
    s.act.resize(units_);
    s.err.assign(units_, 0.0f);
    for (Index u = 0; u < units_; ++u)
      s.act[u] = activation_of(u, prev_ids, prev_act);
    if (config_.activation == Activation::kReLU)
      simd::relu(s.act.data(), units_);
    return;
  }
  const std::size_t n = s.ids.size();
  s.act.resize(n);
  s.err.assign(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n)
      prefetch_read(weight_row(s.ids[i + kPrefetchDistance]));
    s.act[i] = activation_of(s.ids[i], prev_ids, prev_act);
  }
  if (config_.activation == Activation::kReLU)
    simd::relu(s.act.data(), n);
}

void SampledLayer::forward(int slot, const ActiveSet& prev,
                           std::span<const Index> forced, Rng& rng,
                           VisitedSet& visited, int tid) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  if (config_.hashed) {
    select_active(slot, prev, forced, rng, visited, tid);
    active_sum_.fetch_add(s.ids.size(), std::memory_order_relaxed);
    active_events_.fetch_add(1, std::memory_order_relaxed);
  } else if (config_.random_sampled) {
    // Sampled-Softmax baseline: labels + static uniform classes. Unlike the
    // LSH path the choice is input-independent (that is the point of the
    // paper's Figure 7 comparison).
    s.ids.clear();
    visited.begin_epoch();
    for (Index f : forced) {
      if (visited.insert(f)) s.ids.push_back(f);
    }
    const Index target = std::min<Index>(config_.sampling.target, units_);
    long attempts = 20L * static_cast<long>(target);
    while (s.ids.size() < target && attempts-- > 0) {
      const Index id = rng.uniform(units_);
      if (visited.insert(id)) s.ids.push_back(id);
    }
    active_sum_.fetch_add(s.ids.size(), std::memory_order_relaxed);
    active_events_.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.ids.clear();  // dense mode
    s.dense_width = units_;
  }
  WallTimer timer;
  compute_activations(s, prev);
  auto& acc = compute_time_[static_cast<std::size_t>(tid)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

float SampledLayer::compute_softmax_ce_deltas(int slot,
                                              std::span<const Index> labels,
                                              float inv_batch) {
  SLIDE_CHECK(config_.activation == Activation::kSoftmax,
              "softmax deltas on a non-softmax layer");
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = s.size();
  if (n == 0) return 0.0f;

  // Softmax over the *active* neurons only: the normalizing constant is the
  // sum over actives, not over all units (paper §3.1).
  simd::softmax_inplace(s.act.data(), n);

  const float y = labels.empty()
                      ? 0.0f
                      : 1.0f / static_cast<float>(labels.size());
  float loss = 0.0f;
  if (s.dense()) {
    for (std::size_t i = 0; i < n; ++i) s.err[i] = s.act[i] * inv_batch;
    for (Index label : labels) {
      s.err[label] -= y * inv_batch;
      loss -= y * std::log(std::max(s.act[label], 1e-30f));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) s.err[i] = s.act[i] * inv_batch;
    // Training forwards force the labels to the front of the active set.
    for (std::size_t i = 0; i < labels.size(); ++i) {
      SLIDE_ASSERT(i < s.ids.size() && s.ids[i] == labels[i]);
      s.err[i] -= y * inv_batch;
      loss -= y * std::log(std::max(s.act[i], 1e-30f));
    }
  }
  return loss;
}

void SampledLayer::compute_relu_deltas(int slot) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (s.act[i] <= 0.0f) s.err[i] = 0.0f;
  }
}

void SampledLayer::backward(int slot, ActiveSet& prev, int tid) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = s.size();
  WallTimer timer;

  std::unique_lock<std::mutex> lock;
  if (use_locks_) lock = std::unique_lock(accum_mutex_);

  auto& touched = touched_lists_[static_cast<std::size_t>(tid)];
  const std::size_t prev_n = prev.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float delta = s.err[i];
    if (delta == 0.0f) continue;
    const Index u = s.dense() ? static_cast<Index>(i) : s.ids[i];
    bias_grad_[u] += delta;
    const float* w = weight_row(u);
    float* g = grads_.data() + static_cast<std::size_t>(u) * fan_in_;
    if (prev.dense()) {
      // Error to the previous layer and gradient accumulation are both
      // contiguous fan_in-length AXPYs (SIMD fast path).
      simd::axpy(delta, w, prev.err.data(), prev_n);
      simd::axpy(delta, prev.act.data(), g, prev_n);
    } else {
      for (std::size_t p = 0; p < prev_n; ++p) {
        const Index j = prev.ids[p];
        prev.err[p] += delta * w[j];
        g[j] += delta * prev.act[p];
      }
    }
    if (touched_[u].exchange(1, std::memory_order_relaxed) == 0)
      touched.push_back(u);
  }
  auto& acc = compute_time_[static_cast<std::size_t>(tid)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

void SampledLayer::apply_updates(float lr, ThreadPool* pool) {
  adam_.step_begin();

  // Member scratch, not thread_local: the lambda runs on pool workers and
  // thread_locals are not captured across threads.
  std::vector<Index>& units = apply_scratch_;
  units.clear();
  for (auto& list : touched_lists_) {
    units.insert(units.end(), list.begin(), list.end());
    list.clear();
  }

  const std::size_t bias_base = static_cast<std::size_t>(units_) * fan_in_;
  const bool memo = config_.incremental_rehash && simhash_ != nullptr;

  auto apply_unit = [&](std::size_t k, int) {
    const Index u = units[k];
    float* w = weight_row(u);
    float* g = grads_.data() + static_cast<std::size_t>(u) * fan_in_;
    thread_local std::vector<float> old_row;
    if (memo) old_row.assign(w, w + fan_in_);

    adam_.update_span(w, g, static_cast<std::size_t>(u) * fan_in_, fan_in_,
                      lr);
    std::fill(g, g + fan_in_, 0.0f);
    adam_.update_at(&bias_[u], bias_grad_[u], bias_base + u, lr);
    bias_grad_[u] = 0.0f;
    touched_[u].store(0, std::memory_order_relaxed);

    if (memo) {
      // Paper §4.2 heuristic 3: propagate only the changed coordinates into
      // the memoized projection values.
      float* memo_row = projection_memo_.data() +
                        static_cast<std::size_t>(u) *
                            static_cast<std::size_t>(
                                simhash_->num_projections());
      for (Index d = 0; d < fan_in_; ++d) {
        const float delta = w[d] - old_row[d];
        if (delta != 0.0f) simhash_->update_projections(d, delta, memo_row);
      }
    }
  };

  if (pool != nullptr && pool->num_threads() > 1 && units.size() > 16) {
    pool->parallel_for(units.size(), apply_unit);
  } else {
    for (std::size_t k = 0; k < units.size(); ++k) apply_unit(k, 0);
  }

  // Feed the delta maintenance queue: these units' weight rows (and memo
  // projections) just moved, so their table entries are stale until the
  // next maintenance event re-inserts them (async_delta only). The flag
  // keeps each unit queued once across batches.
  if (config_.hashed &&
      config_.maintenance == MaintenancePolicy::kAsyncDelta &&
      config_.rebuild.enabled && !units.empty() &&
      retriever_->supports_delta()) {
    std::lock_guard lock(dirty_mutex_);
    for (Index u : units) {
      if (dirty_flag_[u].exchange(1, std::memory_order_relaxed) == 0)
        dirty_.push_back(u);
    }
  }
}

bool SampledLayer::maybe_rebuild(long iteration, ThreadPool* pool) {
  if (!config_.hashed || !config_.rebuild.enabled) return false;
  if (iteration < next_rebuild_) return false;

  ++schedule_events_;
  switch (config_.maintenance) {
    case MaintenancePolicy::kSync:
      // In-place rebuild on the calling thread: the trainer's contract says
      // no table reader is active between batches. Non-LSH retrievers
      // rebuild through the generic hook (shadow build + publish, so
      // "in place" is still reader-safe).
      if (tables_ != nullptr) {
        build_group(tables_->active_group(), pool);
      } else {
        retriever_->rebuild(pool);
      }
      rebuild_count_.fetch_add(1, std::memory_order_acq_rel);
      break;
    case MaintenancePolicy::kAsyncFull:
      schedule_full_rebuild();
      break;
    case MaintenancePolicy::kAsyncDelta: {
      if (!retriever_->supports_delta()) {
        // Backend cannot refresh single ids (HNSW, exact): every delta
        // event escalates to a full rebuild.
        schedule_full_rebuild();
        break;
      }
      std::size_t dirty_size;
      {
        std::lock_guard lock(dirty_mutex_);
        dirty_size = dirty_.size();
      }
      // Delta passes leave the moved neurons' stale bucket entries behind;
      // escalate to a full rebuild when the dirty set covers most of the
      // layer (a delta would cost nearly as much anyway) and periodically
      // for hygiene, so staleness cannot accumulate without bound.
      const bool hygiene = schedule_events_ % kDeltaHygienePeriod == 0;
      if (hygiene || 2 * dirty_size >= static_cast<std::size_t>(units_)) {
        schedule_full_rebuild();
      } else {
        schedule_delta_reinsert();
      }
      break;
    }
  }
  // Exponential back-off between maintenance events (paper §4.2 heuristic
  // 1), counted in events fired — identical to the pre-async schedule for
  // the sync policy.
  const double gap = static_cast<double>(config_.rebuild.initial_period) *
                     std::exp(config_.rebuild.decay *
                              static_cast<double>(schedule_events_));
  next_rebuild_ =
      iteration + std::max<long>(1, static_cast<long>(std::llround(gap)));
  return true;
}

void SampledLayer::rebuild_tables(ThreadPool* pool) {
  if (!config_.hashed) return;
  // Serialize against the background worker: the maintenance side of
  // MaintainedTables allows exactly one caller at a time.
  quiesce_maintenance();
  if (tables_ != nullptr) {
    build_group(tables_->active_group(), pool);
  } else {
    retriever_->rebuild(pool);
  }
}

void SampledLayer::build_group(LshTableGroup& group, ThreadPool* pool) {
  const bool memo = config_.incremental_rehash && simhash_ != nullptr;
  if (!memo) {
    group.build_from_rows(weights_.data(), fan_in_, units_, pool);
    return;
  }

  // Incremental mode: (re)fill the memo from the weights on the first
  // build; afterwards the memo is kept in sync by apply_updates, so keys
  // come straight from the memoized projections — O(K*L) per neuron instead
  // of O(K*L*d/3).
  const int num_proj = simhash_->num_projections();
  const bool have_memo = memo_initialized_.load(std::memory_order_acquire);
  group.build(
      units_,
      [&](Index u, std::span<std::uint32_t> keys) {
        float* memo_row = projection_memo_.data() +
                          static_cast<std::size_t>(u) *
                              static_cast<std::size_t>(num_proj);
        if (!have_memo) simhash_->project_dense(weight_row(u), memo_row);
        simhash_->keys_from_projections(memo_row, keys);
      },
      seed_ + 77, pool);
  memo_initialized_.store(true, std::memory_order_release);
}

void SampledLayer::schedule_full_rebuild() {
  // At most one queued full rebuild: if the worker is still on the
  // previous one, this event's request coalesces into it rather than
  // stacking up. Under a cadence faster than a rebuild takes, the layer
  // therefore degrades table freshness instead of growing a backlog —
  // the same graceful staleness the paper's decay schedule trades on (the
  // completed-rebuild count is visible via rebuild_count()).
  if (full_pending_.exchange(true, std::memory_order_acq_rel)) return;
  worker_->submit([this] {
    // Units queued so far are covered by this build (it hashes current
    // weights); drop them so the next delta pass is not redundant. Units
    // dirtied after this point re-queue via their re-armed flags.
    if (dirty_flag_ != nullptr) {
      thread_local std::vector<Index> discarded;
      drain_dirty(discarded);
    }
    if (tables_ != nullptr) {
      build_group(tables_->shadow_group(), nullptr);
      tables_->publish_shadow();
    } else {
      retriever_->rebuild(nullptr);
    }
    rebuild_count_.fetch_add(1, std::memory_order_acq_rel);
    full_pending_.store(false, std::memory_order_release);
  });
}

void SampledLayer::schedule_delta_reinsert() {
  if (delta_pending_.exchange(true, std::memory_order_acq_rel)) return;
  worker_->submit([this] {
    run_delta_reinsert();
    delta_pending_.store(false, std::memory_order_release);
  });
}

void SampledLayer::drain_dirty(std::vector<Index>& ids) {
  ids.clear();
  {
    std::lock_guard lock(dirty_mutex_);
    ids.swap(dirty_);
  }
  // Re-arm immediately, before the caller hashes: an update landing after
  // this point re-queues the unit, so the window where a moved row could
  // go un-requeued is only the hash-read itself (healed by the next touch
  // or hygiene rebuild). dirty_flag_ exists iff the policy is async_delta;
  // under async_full the queue is always empty and the loop never runs.
  for (Index u : ids) dirty_flag_[u].store(0, std::memory_order_relaxed);
}

void SampledLayer::run_delta_reinsert() {
  std::vector<Index> ids;
  drain_dirty(ids);
  if (ids.empty()) return;
  // Distinct by construction (the dirty flag); sorted for a deterministic
  // insertion order.
  std::sort(ids.begin(), ids.end());

  // Hash the batch first (reading rows that trainers may be moving), then
  // insert it into a copy of the active group and publish that copy:
  // readers keep sampling the active group untouched. The moved neurons'
  // old bucket entries stay behind as stale-but-valid samples until the
  // next full rebuild — the same staleness the paper's between-rebuild
  // windows already accept.
  const bool memo = config_.incremental_rehash && simhash_ != nullptr &&
                    memo_initialized_.load(std::memory_order_acquire);
  const int num_proj = memo ? simhash_->num_projections() : 0;
  const std::size_t l = static_cast<std::size_t>(tables_->l());
  std::vector<std::uint32_t> keys(ids.size() * l);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::span<std::uint32_t> row_keys{keys.data() + i * l, l};
    if (memo) {
      const float* memo_row =
          projection_memo_.data() +
          static_cast<std::size_t>(ids[i]) * static_cast<std::size_t>(num_proj);
      simhash_->keys_from_projections(memo_row, row_keys);
    } else {
      tables_->query_keys_dense(weight_row(ids[i]), row_keys);
    }
  }
  Rng rng(seed_ + 0x5EEDull +
          static_cast<std::uint64_t>(
              delta_reinserted_.load(std::memory_order_relaxed)));
  LshTableGroup& shadow = tables_->shadow_group();
  shadow.copy_from(tables_->active());
  shadow.insert(ids, keys, rng);
  tables_->publish_shadow();
  delta_reinserted_.fetch_add(static_cast<long>(ids.size()),
                              std::memory_order_acq_rel);
}

void SampledLayer::quiesce_maintenance() const {
  if (worker_ != nullptr) worker_->wait_idle();
}

void SampledLayer::flush_maintenance() {
  if (worker_ == nullptr) return;
  if (config_.maintenance == MaintenancePolicy::kAsyncDelta &&
      dirty_pending() > 0) {
    // Unconditional submit (no delta_pending_ gate): a pending task may
    // already have swapped the queue out, and FIFO ordering guarantees
    // this drain runs after it — picking up everything left behind.
    worker_->submit([this] { run_delta_reinsert(); });
  }
  worker_->wait_idle();
}

std::size_t SampledLayer::dirty_pending() const {
  std::lock_guard lock(dirty_mutex_);
  return dirty_.size();
}

Index SampledLayer::add_units(Index n) {
  SLIDE_CHECK(config_.hashed,
              "add_units: only hashed (retriever-backed) layers grow");
  SLIDE_CHECK(n > 0, "add_units: unit count must be positive");
  // The maintenance thread reads weights_ and the retriever; park it before
  // the reallocation pulls the storage out from under it.
  quiesce_maintenance();

  const Index old_units = units_;
  const Index new_units = old_units + n;
  const std::size_t old_w = static_cast<std::size_t>(old_units) * fan_in_;
  const std::size_t new_w = static_cast<std::size_t>(new_units) * fan_in_;

  // HugeArray::resize replaces the storage zeroed — copy-grow instead.
  auto copy_grow = [&](HugeArray& arr) {
    HugeArray grown(new_w);
    std::memcpy(grown.data(), arr.data(), old_w * sizeof(float));
    arr = std::move(grown);
  };
  copy_grow(weights_);
  copy_grow(grads_);

  bias_.resize(static_cast<std::size_t>(new_units), 0.0f);
  bias_grad_.resize(static_cast<std::size_t>(new_units), 0.0f);
  adam_.grow(old_w, new_w, static_cast<std::size_t>(old_units),
             static_cast<std::size_t>(new_units));

  // Per-unit atomic flag arrays: reallocate and carry the old flags over
  // (a unit queued dirty before the growth stays queued exactly once).
  auto grow_flags = [&](std::unique_ptr<std::atomic<std::uint8_t>[]>& arr) {
    if (arr == nullptr) return;
    auto grown =
        std::make_unique<std::atomic<std::uint8_t>[]>(new_units);
    for (Index u = 0; u < old_units; ++u)
      grown[u].store(arr[u].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    arr = std::move(grown);
  };
  grow_flags(touched_);
  grow_flags(dirty_flag_);

  // Quantized mirrors re-quantize wholesale below, so a plain (zeroing)
  // resize is fine here.
  if (!weights_bf16_.empty()) weights_bf16_.resize(new_w);
  if (!weights_f16_.empty()) weights_f16_.resize(new_w);
  if (!weights_i8_.empty()) {
    weights_i8_.resize(new_w);
    i8_scales_.resize(static_cast<std::size_t>(new_units), 0.0f);
  }

  // The incremental-rehash memo is sized [units x projections]; reallocate
  // and let the next rebuild re-project everything from the grown weights.
  if (!projection_memo_.empty() && simhash_ != nullptr) {
    projection_memo_ = HugeArray(
        static_cast<std::size_t>(new_units) *
        static_cast<std::size_t>(simhash_->num_projections()));
    memo_initialized_.store(false, std::memory_order_release);
  }

  units_ = new_units;
  config_.units = new_units;
  appended_units_ += n;
  // Re-target the retrieval index at the reallocated rows. A layer still
  // awaiting its checkpoint takes the new rows, its mirrors and its index
  // from the load that is growing it.
  retriever_->resize_universe(
      retrieval::RowView{weights_.data(), fan_in_, new_units});
  if (awaiting_checkpoint_) return old_units;

  // New rows draw from an Rng keyed on (layer seed, growth base): the same
  // growth sequence reproduces identical rows regardless of when in the
  // serving session it runs.
  Rng rng(seed_ + 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(old_units));
  const float stddev = config_.init_stddev > 0.0f
                           ? config_.init_stddev
                           : 2.0f / std::sqrt(static_cast<float>(fan_in_));
  init_normal(weights_.data() + old_w, new_w - old_w, stddev, rng);
  refresh_inference_mirror();

  // Bring the appended ids live. Delta-capable backends (LSH) insert
  // directly into the active tables — and additionally ride the
  // dirty-delta queue so the next maintenance pass re-keys them from their
  // trained weights; the rest (HNSW) escalate to a full rebuild, exactly
  // like their delta maintenance path does.
  if (retriever_->supports_delta()) {
    // Appended ids start live (resize_universe), so one batched reinsert
    // indexes them all.
    std::vector<Index> appended(n);
    std::iota(appended.begin(), appended.end(), old_units);
    retriever_->reinsert(appended);
    if (config_.maintenance == MaintenancePolicy::kAsyncDelta &&
        config_.rebuild.enabled && dirty_flag_ != nullptr) {
      std::lock_guard lock(dirty_mutex_);
      for (Index u = old_units; u < new_units; ++u) {
        if (dirty_flag_[u].exchange(1, std::memory_order_relaxed) == 0)
          dirty_.push_back(u);
      }
    }
  } else {
    retriever_->rebuild(nullptr);
  }
  return old_units;
}

void SampledLayer::retire_units(std::span<const Index> ids) {
  SLIDE_CHECK(config_.hashed,
              "retire_units: only hashed (retriever-backed) layers retire");
  for (Index id : ids) {
    SLIDE_CHECK(id < units_, "retire_units: unit id out of range");
    retriever_->remove(id);
  }
}

Index SampledLayer::retired_count() const noexcept {
  return retriever_ != nullptr ? retriever_->removed_count() : 0;
}

std::vector<Index> SampledLayer::retired_unit_ids() const {
  std::vector<Index> ids;
  if (retriever_ != nullptr) retriever_->append_removed_ids(ids);
  return ids;
}

void SampledLayer::forward_inference(std::span<const Index> prev_ids,
                                     std::span<const float> prev_act,
                                     bool exact, Rng& rng,
                                     VisitedSet& visited,
                                     std::vector<Index>& ids_out,
                                     std::vector<float>& act_out) const {
  ids_out.clear();
  bool scored = false;  // escalation fills act_out itself
  const bool tombstoned =
      retriever_ != nullptr && retriever_->has_removed();
  if (exact || !config_.hashed) {
    if (tombstoned) {
      // Exact mode honors the tombstones too: a retired label must not
      // resurface through the oracle scan (or the softmax normalizer).
      ids_out.reserve(static_cast<std::size_t>(units_));
      for (Index u = 0; u < units_; ++u) {
        if (!retriever_->is_removed(u)) ids_out.push_back(u);
      }
    } else {
      ids_out.resize(units_);
      std::iota(ids_out.begin(), ids_out.end(), Index{0});
    }
  } else {
    Index target = std::min<Index>(config_.sampling.target, units_);
    // The configured candidate budget caps the sampling target.
    const Index budget = config_.sampling.inference_budget;
    if (budget > 0) target = std::min(target, budget);
    retriever_->retrieve(prev_ids, prev_act, target, rng, visited, ids_out);
    const Index floor =
        std::min<Index>(config_.sampling.escalation_floor, units_);
    if (floor > 0 && ids_out.size() < static_cast<std::size_t>(floor)) {
      // Adaptive recall floor (SamplingConfig::escalation_floor): too few
      // candidates to trust the sample — escalate this query to an exact
      // scan instead of padding with random ids, and measure how much the
      // candidate set would have missed (overlap with the exact top-k).
      escalate_to_exact(prev_ids, prev_act, visited, ids_out, act_out);
      scored = true;
    } else if (config_.fill_random_to_target && ids_out.size() < target) {
      long attempts = 20L * static_cast<long>(target);
      while (ids_out.size() < target && attempts-- > 0) {
        const Index id = rng.uniform(units_);
        if (tombstoned && retriever_->is_removed(id)) continue;
        if (visited.insert(id)) ids_out.push_back(id);
      }
    }
  }
  if (!scored) {
    act_out.resize(ids_out.size());
    score_rows(ids_out, prev_ids, prev_act, act_out.data());
  }
  if (config_.activation == Activation::kReLU)
    simd::relu(act_out.data(), act_out.size());
}

void SampledLayer::escalate_to_exact(std::span<const Index> prev_ids,
                                     std::span<const float> prev_act,
                                     const VisitedSet& visited,
                                     std::vector<Index>& ids_out,
                                     std::vector<float>& act_out) const {
  const bool tombstoned =
      retriever_ != nullptr && retriever_->has_removed();
  if (tombstoned) {
    ids_out.clear();
    ids_out.reserve(static_cast<std::size_t>(units_));
    for (Index u = 0; u < units_; ++u) {
      if (!retriever_->is_removed(u)) ids_out.push_back(u);
    }
  } else {
    ids_out.resize(static_cast<std::size_t>(units_));
    std::iota(ids_out.begin(), ids_out.end(), Index{0});
  }
  act_out.resize(ids_out.size());
  score_rows(ids_out, prev_ids, prev_act, act_out.data());

  // Recall accounting: how many of the exact top-k did the (undersized)
  // candidate set cover? The candidates are exactly the ids stamped in
  // `visited` this epoch (the retrieve() post-condition). Indices below are
  // positions into ids_out/act_out; with no tombstones position == id, so
  // the tie-break matches the historical by-id rule bit for bit (and with
  // tombstones, ascending position still means ascending id).
  const Index k = std::min<Index>(10, static_cast<Index>(ids_out.size()));
  thread_local std::vector<Index> order;
  order.resize(ids_out.size());
  std::iota(order.begin(), order.end(), Index{0});
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](Index a, Index b) {
                      return act_out[a] > act_out[b] ||
                             (act_out[a] == act_out[b] && a < b);
                    });
  long overlap = 0;
  for (Index i = 0; i < k; ++i) {
    if (visited.contains(ids_out[order[static_cast<std::size_t>(i)]]))
      ++overlap;
  }
  escalations_.fetch_add(1, std::memory_order_relaxed);
  escalation_overlap_.fetch_add(overlap, std::memory_order_relaxed);
  escalation_oracle_.fetch_add(k, std::memory_order_relaxed);
}

RetrievalStats SampledLayer::retrieval_stats() const {
  RetrievalStats s;
  s.adaptive = config_.hashed && config_.sampling.escalation_floor > 0;
  s.escalations = escalations_.load(std::memory_order_relaxed);
  s.overlap = escalation_overlap_.load(std::memory_order_relaxed);
  s.oracle = escalation_oracle_.load(std::memory_order_relaxed);
  return s;
}

void SampledLayer::save_retriever_state(std::ostream& out) const {
  if (retriever_ != nullptr && retriever_->has_serialized_state())
    retriever_->save_state(out);
}

bool SampledLayer::load_retriever_state(std::istream& in,
                                        std::uint64_t bytes) {
  if (retriever_ == nullptr || !retriever_->has_serialized_state()) {
    in.ignore(static_cast<std::streamsize>(bytes));
    return false;
  }
  return retriever_->load_state(in);
}

double SampledLayer::average_active_fraction() const {
  const std::uint64_t events = active_events_.load();
  if (events == 0 || units_ == 0) return config_.hashed ? 0.0 : 1.0;
  return static_cast<double>(active_sum_.load()) /
         (static_cast<double>(events) * static_cast<double>(units_));
}

void SampledLayer::reset_active_stats() {
  active_sum_.store(0);
  active_events_.store(0);
}

double SampledLayer::sampling_seconds() const {
  double total = 0.0;
  for (const auto& t : sampling_time_) total += t.value.load();
  return total;
}

double SampledLayer::compute_seconds() const {
  double total = 0.0;
  for (const auto& t : compute_time_) total += t.value.load();
  return total;
}

void SampledLayer::reset_phase_timers() {
  for (auto& t : sampling_time_) t.value.store(0.0);
  for (auto& t : compute_time_) t.value.store(0.0);
}

// ===========================================================================
// DenseLayer / RandomSampledLayer / make_layer
// ===========================================================================

DenseLayer::DenseLayer(Index units, Index fan_in, Activation activation,
                       float init_stddev, const AdamConfig& adam,
                       std::uint64_t seed, int batch_slots, int max_threads,
                       Precision precision, ParamInit init)
    : SampledLayer(dense_layer_config(units, fan_in, activation, init_stddev,
                                      adam, seed, precision),
                   batch_slots, max_threads, init) {}

RandomSampledLayer::RandomSampledLayer(Index units, Index fan_in,
                                       Index num_sampled,
                                       Activation activation,
                                       float init_stddev,
                                       const AdamConfig& adam,
                                       std::uint64_t seed, int batch_slots,
                                       int max_threads, Precision precision,
                                       ParamInit init)
    : SampledLayer(
          [&] {
            SampledLayer::Config cfg = dense_layer_config(
                units, fan_in, activation, init_stddev, adam, seed,
                precision);
            cfg.random_sampled = true;
            cfg.sampling.target = num_sampled;
            return cfg;
          }(),
          batch_slots, max_threads, init) {
  SLIDE_CHECK(num_sampled > 0,
              "RandomSampledLayer: num_sampled must be positive");
}

std::unique_ptr<Layer> make_layer(const LayerSpec& spec, Index fan_in,
                                  const AdamConfig& adam, std::uint64_t seed,
                                  int batch_slots, int max_threads,
                                  Precision precision, ParamInit init) {
  SLIDE_CHECK(!(spec.hashed && spec.random_sampled),
              "make_layer: hashed and random_sampled are exclusive");
  SLIDE_CHECK(spec.shards == 0 || spec.hashed,
              "make_layer: shards requires an LSH-sampled (hashed) layer");
  SLIDE_CHECK(spec.endpoints.empty() || spec.hashed,
              "make_layer: distributed endpoints require an LSH-sampled "
              "(hashed) layer");
  SLIDE_CHECK(spec.endpoints.empty() || spec.shards == 0,
              "make_layer: endpoints and shards are exclusive");
  SLIDE_CHECK(spec.retriever == retrieval::RetrieverKind::kLsh || spec.hashed,
              "make_layer: a non-LSH retriever requires a hashed layer");
  if (spec.hashed) {
    SampledLayer::Config cfg;
    cfg.units = spec.units;
    cfg.fan_in = fan_in;
    cfg.activation = spec.activation;
    cfg.hashed = true;
    cfg.family = spec.family;
    cfg.table = spec.table;
    cfg.sampling = spec.sampling;
    cfg.rebuild = spec.rebuild;
    cfg.retriever = spec.retriever;
    cfg.hnsw = spec.hnsw;
    cfg.maintenance = spec.maintenance;
    cfg.fill_random_to_target = spec.fill_random_to_target;
    cfg.incremental_rehash = spec.incremental_rehash;
    cfg.init_stddev = spec.init_stddev;
    cfg.adam = adam;
    cfg.precision = precision;
    cfg.seed = seed;
    if (!spec.endpoints.empty()) {
      return std::make_unique<ShardedSampledLayer>(
          cfg, static_cast<int>(spec.endpoints.size()), batch_slots,
          [&](const SampledLayer::Config& shard_config, int s, int count,
              Index row_offset) {
            dist::InitShardMsg init;
            init.shard_index = s;
            init.num_shards = count;
            init.row_offset = row_offset;
            init.global_units = cfg.units;
            init.batch_slots = batch_slots;
            init.config = shard_config;
            if (!spec.shard_checkpoint_base.empty())
              init.checkpoint_path =
                  shard_file_path(spec.shard_checkpoint_base, s, count);
            return std::make_unique<dist::RemoteShard>(
                spec.endpoints[static_cast<std::size_t>(s)], init,
                spec.wire_bf16);
          });
    }
    if (spec.shards >= 1) {
      return std::make_unique<ShardedSampledLayer>(
          cfg, spec.shards, batch_slots, max_threads, init);
    }
    return std::make_unique<SampledLayer>(cfg, batch_slots, max_threads,
                                          init);
  }
  if (spec.random_sampled) {
    return std::make_unique<RandomSampledLayer>(
        spec.units, fan_in, spec.sampling.target, spec.activation,
        spec.init_stddev, adam, seed, batch_slots, max_threads, precision,
        init);
  }
  return std::make_unique<DenseLayer>(spec.units, fan_in, spec.activation,
                                      spec.init_stddev, adam, seed,
                                      batch_slots, max_threads, precision,
                                      init);
}

}  // namespace slide
