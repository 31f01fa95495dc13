// One output-layer shard living in a worker process, as a Layer.
//
// ShardedSampledLayer (core/sharded_layer.h) drives its shards through the
// Layer hooks; a RemoteShard answers each hook with one RPC to the
// ShardWorker (dist/worker.h) that owns the shard's SampledLayer — its
// weight block, MaintainedTables, dirty-delta queue, and Adam state. The
// routing, merge, softmax, top-k heap, and aggregation all stay in the
// sharded layer, so a network built with .distributed(endpoints) is the
// same layer as .shards(endpoints.size()) with a different transport, and
// only the sparse active sets cross the wire (Distributed SLIDE,
// arXiv:2201.12667). dist/protocol.h states the bit-exactness contract.
//
// Coordinator-side state is what a Layer must answer without a round trip:
//   * slot(s): the shard-local active set of the slot's last forward — the
//     sharded layer merges it and scatters the merged deltas back into it,
//     exactly as for a local shard;
//   * weights_span()/bias_span(): a checkpoint cache of the worker's
//     parameters, pulled at construction and by flush_maintenance(), and
//     pushed back to the worker by on_weights_loaded() — so core/serialize
//     saves and loads a distributed network unchanged;
//   * the retired ids and appended count, mirrored from add/retire calls.
//
// Failure model: an unhealthy worker (RPC timeout exhausted, transport
// gone) is skipped by forward_inference — the shard contributes no
// candidates and the layer keeps answering from the others ("degraded
// mode", counted by unhealthy_shards()). Training RPC failures propagate:
// silently dropping one shard's gradients would corrupt the model.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/layer.h"
#include "dist/client.h"

namespace slide::dist {

class RemoteShard final : public Layer {
 public:
  /// Dials `endpoint`, handshakes, initializes the worker with `init`
  /// (kInitShard), and pulls its initial weights into the checkpoint cache.
  RemoteShard(const std::string& endpoint, const InitShardMsg& init,
              bool wire_bf16, const ClientConfig& client = {});
  /// Shuts the worker down (best effort) and closes the client.
  ~RemoteShard() override;
  RemoteShard(const RemoteShard&) = delete;
  RemoteShard& operator=(const RemoteShard&) = delete;

  // ---- Identity ----
  LayerKind kind() const noexcept override { return LayerKind::kSampled; }
  Index units() const noexcept override { return config_.units; }
  Index fan_in() const noexcept override { return config_.fan_in; }
  Activation activation() const noexcept override {
    return config_.activation;
  }

  // ---- Training hooks (failures propagate) ----
  void forward(int slot, const ActiveSet& prev, std::span<const Index> forced,
               Rng& rng, VisitedSet& visited, int tid) override;
  /// Loss deltas run on the sharded layer's merged set, never on a shard.
  float compute_softmax_ce_deltas(int slot, std::span<const Index> labels,
                                  float inv_batch) override;
  void compute_relu_deltas(int slot) override;
  void backward(int slot, ActiveSet& prev, int tid) override;
  void apply_updates(float lr, ThreadPool* pool) override;

  // ---- LSH lifecycle (the worker runs its own schedule) ----
  bool maybe_rebuild(long iteration, ThreadPool* pool) override;
  void rebuild_tables(ThreadPool* pool) override;
  void quiesce_maintenance() const override;
  /// Drains worker-side maintenance, then refreshes the checkpoint cache:
  /// after this, save_weights serializes the worker's current parameters.
  void flush_maintenance() override;

  // ---- Dynamic label lifecycle ----
  Index add_units(Index n) override;
  void retire_units(std::span<const Index> ids) override;
  Index retired_count() const noexcept override {
    return static_cast<Index>(retired_.size());
  }
  std::vector<Index> retired_unit_ids() const override {
    return {retired_.begin(), retired_.end()};
  }
  Index appended_units() const noexcept override { return appended_units_; }

  // ---- Inference hooks (degraded mode: an unhealthy worker is skipped) ----
  void forward_inference(std::span<const Index> prev_ids,
                         std::span<const float> prev_act, bool exact,
                         Rng& rng, VisitedSet& visited,
                         std::vector<Index>& ids_out,
                         std::vector<float>& act_out) const override;

  ActiveSet& slot(int s) override {
    return slots_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& slot(int s) const override {
    return slots_[static_cast<std::size_t>(s)];
  }

  // ---- Serialize hooks: the checkpoint cache ----
  std::span<float> weights_span() noexcept override {
    return {cache_w_.data(), cache_w_.size()};
  }
  std::span<const float> weights_span() const noexcept override {
    return {cache_w_.data(), cache_w_.size()};
  }
  std::span<float> bias_span() noexcept override {
    return {cache_b_.data(), cache_b_.size()};
  }
  std::span<const float> bias_span() const noexcept override {
    return {cache_b_.data(), cache_b_.size()};
  }
  /// Pushes the cache (just rewritten by load_weights) into the worker.
  /// noexcept per the Layer contract: an RPC failure marks the shard
  /// unhealthy and surfaces on its next use.
  void on_weights_loaded() noexcept override;
  std::size_t num_parameters() const noexcept override {
    return static_cast<std::size_t>(units()) * fan_in() + units();
  }

  // ---- Quantized inference ----
  Precision inference_precision() const noexcept override {
    return config_.precision;
  }
  void refresh_inference_mirror() noexcept override;
  std::size_t inference_weight_bytes() const noexcept override;
  /// Coordinator-resident bytes only (the checkpoint cache); the shard
  /// weights, mirrors, and Adam state live in the worker process.
  LayerMemory memory() const noexcept override;

  void set_use_locks(bool locks) noexcept override;
  retrieval::RetrieverKind retriever_kind() const noexcept override {
    return config_.retriever;
  }

  /// Worker diagnostics (kStats); 0 while the worker is unhealthy.
  double average_active_fraction() const override;
  double sampling_seconds() const override;
  double compute_seconds() const override;
  long rebuild_count() const override;
  long delta_reinserted() const override;

  // ---- Remote-only surface ----
  /// Re-pulls the worker's current weights into the checkpoint cache.
  void refresh_checkpoint_cache();
  /// Tells the worker to write its per-shard checkpoint file
  /// shard_file_path(base, shard, num_shards) on ITS filesystem — the
  /// cluster restart path (NetworkBuilder::shard_checkpoint); no weight
  /// bytes cross the wire.
  void checkpoint(const std::string& base);
  bool healthy() const noexcept { return client_.healthy(); }
  WireCounters wire_counters() const noexcept { return client_.counters(); }
  /// Sends kShutdown (best effort) and closes the client; the destructor
  /// calls this, explicit for callers that stop their workers afterwards.
  void shutdown_worker() noexcept;

 private:
  /// The worker's kStats diagnostics; zeroes while it is unhealthy.
  StatsResp stats_or_zero() const noexcept;

  SampledLayer::Config config_;  // this shard's (derived) config
  std::int32_t shard_index_;
  std::int32_t num_shards_;
  Index row_offset_;
  bool wire_bf16_;
  /// Mutable: const hooks (quiesce, stats, inference) still do RPC.
  mutable ShardClient client_;

  std::vector<ActiveSet> slots_;  // shard-local, per batch slot
  std::vector<float> cache_w_;
  std::vector<float> cache_b_;
  std::set<Index> retired_;  // shard-local ids
  Index appended_units_ = 0;
};

/// The remote shards of `layer` in shard order: those of a
/// ShardedSampledLayer built by NetworkBuilder::distributed, none for any
/// other layer.
std::vector<RemoteShard*> remote_shards(Layer& layer);
std::vector<const RemoteShard*> remote_shards(const Layer& layer);

/// Summed wire traffic of `layer`'s remote shards.
WireCounters wire_counters(const Layer& layer);
/// Remote shards of `layer` currently marked unhealthy (degraded mode).
int unhealthy_shards(const Layer& layer);

}  // namespace slide::dist
