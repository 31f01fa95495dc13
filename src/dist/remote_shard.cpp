#include "dist/remote_shard.h"

#include <algorithm>
#include <utility>

#include "core/serialize.h"
#include "core/sharded_layer.h"

namespace slide::dist {

namespace {

/// WireActiveSet from the inference-path spans (empty prev_ids = dense set
/// indexed by unit, the Layer::forward_inference convention).
WireActiveSet capture_spans(std::span<const Index> prev_ids,
                            std::span<const float> prev_act) {
  WireActiveSet w;
  if (prev_ids.empty()) {
    w.dense_width = static_cast<Index>(prev_act.size());
    for (std::size_t i = 0; i < prev_act.size(); ++i) {
      if (prev_act[i] != 0.0f) {
        w.ids.push_back(static_cast<Index>(i));
        w.act.push_back(prev_act[i]);
      }
    }
  } else {
    w.ids.assign(prev_ids.begin(), prev_ids.end());
    w.act.assign(prev_act.begin(), prev_act.begin() + prev_ids.size());
  }
  return w;
}

}  // namespace

RemoteShard::RemoteShard(const std::string& endpoint,
                         const InitShardMsg& init, bool wire_bf16,
                         const ClientConfig& client)
    : config_(init.config),
      shard_index_(init.shard_index),
      num_shards_(init.num_shards),
      row_offset_(init.row_offset),
      wire_bf16_(wire_bf16),
      client_(endpoint, client) {
  client_.connect();
  client_.call(init.to_frame(), MsgType::kAck);
  slots_.resize(static_cast<std::size_t>(init.batch_slots));
  refresh_checkpoint_cache();
}

RemoteShard::~RemoteShard() { shutdown_worker(); }

// ---------------------------------------------------------------------------
// Training path
// ---------------------------------------------------------------------------

void RemoteShard::forward(int slot, const ActiveSet& prev,
                          std::span<const Index> forced, Rng& rng,
                          VisitedSet& /*visited*/, int /*tid*/) {
  // The worker selects and scores exactly as a local shard would: the prev
  // active set ships sparse, and the RNG state round-trips so the worker
  // consumes the stream the local shard would have. The worker keeps its
  // own VisitedSet (forward begins a fresh epoch either way).
  ForwardMsg msg;
  msg.slot = slot;
  msg.rng = rng.state();
  msg.forced_local.assign(forced.begin(), forced.end());
  msg.prev = WireActiveSet::capture(prev);
  const ForwardResp resp = ForwardResp::from_frame(
      client_.call(msg.to_frame(wire_bf16_), MsgType::kForwardResp));
  SLIDE_CHECK(resp.ids.size() == resp.act.size(),
              "remote forward: mismatched id/act runs from shard");
  rng.set_state(resp.rng);
  ActiveSet& out = slots_[static_cast<std::size_t>(slot)];
  out.ids = resp.ids;
  out.act.assign(resp.act.begin(), resp.act.end());
  out.err.assign(resp.ids.size(), 0.0f);
}

float RemoteShard::compute_softmax_ce_deltas(int /*slot*/,
                                             std::span<const Index> /*labels*/,
                                             float /*inv_batch*/) {
  SLIDE_CHECK(false, "RemoteShard: loss deltas run on the merged active set");
  return 0.0f;
}

void RemoteShard::compute_relu_deltas(int /*slot*/) {
  SLIDE_CHECK(false, "RemoteShard: loss deltas run on the merged active set");
}

void RemoteShard::backward(int slot, ActiveSet& prev, int /*tid*/) {
  // One step of the sharded layer's sequential fold: the request carries
  // this shard's deltas plus the CURRENT prev.err, the worker accumulates
  // its contributions in the local shard's loop order, and the response
  // replaces prev.err — the FP rounding order of the in-process loop.
  const ActiveSet& own = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = own.size();
  if (n == 0) return;
  const std::size_t pn = prev.size();
  BackwardMsg msg;
  msg.slot = slot;
  msg.err.assign(own.err.begin(),
                 own.err.begin() + static_cast<std::ptrdiff_t>(n));
  msg.prev_err.assign(prev.err.begin(),
                      prev.err.begin() + static_cast<std::ptrdiff_t>(pn));
  const BackwardResp resp = BackwardResp::from_frame(
      client_.call(msg.to_frame(wire_bf16_), MsgType::kBackwardResp));
  SLIDE_CHECK(resp.prev_err.size() == pn,
              "remote backward: prev_err size changed in flight");
  std::copy(resp.prev_err.begin(), resp.prev_err.end(), prev.err.begin());
}

void RemoteShard::apply_updates(float lr, ThreadPool* /*pool*/) {
  client_.call(ApplyUpdatesMsg{lr}.to_frame(), MsgType::kAck);
}

// ---------------------------------------------------------------------------
// LSH lifecycle and dynamic labels
// ---------------------------------------------------------------------------

bool RemoteShard::maybe_rebuild(long iteration, ThreadPool* /*pool*/) {
  return MaybeRebuildResp::from_frame(
             client_.call(MaybeRebuildMsg{iteration}.to_frame(),
                          MsgType::kMaybeRebuildResp))
      .fired;
}

void RemoteShard::rebuild_tables(ThreadPool* /*pool*/) {
  client_.call(make_frame(MsgType::kRebuildTables), MsgType::kAck);
}

void RemoteShard::quiesce_maintenance() const {
  client_.call(make_frame(MsgType::kQuiesce), MsgType::kAck);
}

void RemoteShard::flush_maintenance() {
  client_.call(make_frame(MsgType::kFlushMaintenance), MsgType::kAck);
  refresh_checkpoint_cache();
}

Index RemoteShard::add_units(Index n) {
  SLIDE_CHECK(n > 0, "add_units: unit count must be positive");
  client_.call(AddUnitsMsg{n}.to_frame(), MsgType::kAck);
  const Index first = config_.units;
  config_.units += n;
  appended_units_ += n;
  // The grown rows read zero until the next refresh_checkpoint_cache().
  cache_w_.resize(static_cast<std::size_t>(config_.units) * config_.fan_in);
  cache_b_.resize(config_.units);
  return first;
}

void RemoteShard::retire_units(std::span<const Index> ids) {
  RetireUnitsMsg msg;
  msg.local_ids.assign(ids.begin(), ids.end());
  client_.call(msg.to_frame(), MsgType::kAck);
  retired_.insert(ids.begin(), ids.end());
}

// ---------------------------------------------------------------------------
// Inference path (degraded mode: an unhealthy worker is skipped)
// ---------------------------------------------------------------------------

void RemoteShard::forward_inference(std::span<const Index> prev_ids,
                                    std::span<const float> prev_act,
                                    bool exact, Rng& rng,
                                    VisitedSet& /*visited*/,
                                    std::vector<Index>& ids_out,
                                    std::vector<float>& act_out) const {
  ids_out.clear();
  act_out.clear();
  if (!client_.healthy()) return;
  QueryTopkMsg msg;
  msg.rng = rng.state();
  msg.exact = exact;
  msg.prev = capture_spans(prev_ids, prev_act);
  Frame rf;
  try {
    rf = client_.call(msg.to_frame(wire_bf16_), MsgType::kQueryTopkResp);
  } catch (const TransportError&) {
    return;  // degraded mode: the other shards still answer
  }
  QueryTopkResp resp = QueryTopkResp::from_frame(rf);
  rng.set_state(resp.rng);
  ids_out = std::move(resp.ids);
  act_out = std::move(resp.act);
}

// ---------------------------------------------------------------------------
// Checkpointing and misc hooks
// ---------------------------------------------------------------------------

void RemoteShard::refresh_checkpoint_cache() {
  FetchShardResp resp = FetchShardResp::from_frame(client_.call(
      make_frame(MsgType::kFetchShard), MsgType::kFetchShardResp));
  SLIDE_CHECK(resp.row_offset == row_offset_ && resp.fan_in == fan_in(),
              "fetch_shard: worker topology does not match coordinator");
  cache_w_ = std::move(resp.weights);
  cache_b_ = std::move(resp.bias);
}

void RemoteShard::checkpoint(const std::string& base) {
  CheckpointShardMsg msg;
  msg.path = shard_file_path(base, shard_index_, num_shards_);
  client_.call(msg.to_frame(), MsgType::kAck);
}

void RemoteShard::on_weights_loaded() noexcept {
  SetShardWeightsMsg msg;
  msg.weights = cache_w_;
  msg.bias = cache_b_;
  try {
    client_.call(msg.to_frame(), MsgType::kAck);
  } catch (const Error&) {
    // The client marked itself unhealthy; the shard's next use fails.
  }
}

void RemoteShard::refresh_inference_mirror() noexcept {
  try {
    client_.call(make_frame(MsgType::kRefreshMirror), MsgType::kAck);
  } catch (const Error&) {
  }
}

void RemoteShard::set_use_locks(bool locks) noexcept {
  try {
    client_.call(SetUseLocksMsg{locks}.to_frame(), MsgType::kAck);
  } catch (const Error&) {
  }
}

std::size_t RemoteShard::inference_weight_bytes() const noexcept {
  const std::size_t rows = units();
  const std::size_t weights = rows * fan_in();
  const std::size_t bias_bytes = rows * sizeof(float);
  switch (config_.precision) {
    case Precision::kBF16:
    case Precision::kFP16:
      return weights * 2 + bias_bytes;
    case Precision::kInt8:
      // s8 weights + one fp32 scale per neuron row (simd/int8.h).
      return weights + rows * sizeof(float) + bias_bytes;
    case Precision::kFP32:
      break;
  }
  return weights * sizeof(float) + bias_bytes;
}

LayerMemory RemoteShard::memory() const noexcept {
  LayerMemory m;
  m.master_bytes = (cache_w_.size() + cache_b_.size()) * sizeof(float);
  return m;
}

StatsResp RemoteShard::stats_or_zero() const noexcept {
  if (!client_.healthy()) return {};
  try {
    return StatsResp::from_frame(
        client_.call(make_frame(MsgType::kStats), MsgType::kStatsResp));
  } catch (const Error&) {
    return {};
  }
}

double RemoteShard::average_active_fraction() const {
  return stats_or_zero().active_fraction;
}

double RemoteShard::sampling_seconds() const {
  return stats_or_zero().sampling_seconds;
}

double RemoteShard::compute_seconds() const {
  return stats_or_zero().compute_seconds;
}

long RemoteShard::rebuild_count() const {
  return static_cast<long>(stats_or_zero().rebuild_count);
}

long RemoteShard::delta_reinserted() const {
  return static_cast<long>(stats_or_zero().delta_reinserted);
}

void RemoteShard::shutdown_worker() noexcept { client_.shutdown_worker(); }

// ---------------------------------------------------------------------------
// Sharded-layer helpers
// ---------------------------------------------------------------------------

std::vector<const RemoteShard*> remote_shards(const Layer& layer) {
  std::vector<const RemoteShard*> out;
  const auto* sharded = dynamic_cast<const ShardedSampledLayer*>(&layer);
  if (sharded == nullptr) return out;
  for (int s = 0; s < sharded->shards(); ++s) {
    if (const auto* r = dynamic_cast<const RemoteShard*>(&sharded->shard(s)))
      out.push_back(r);
  }
  return out;
}

std::vector<RemoteShard*> remote_shards(Layer& layer) {
  std::vector<RemoteShard*> out;
  for (const RemoteShard* r : remote_shards(std::as_const(layer)))
    out.push_back(const_cast<RemoteShard*>(r));
  return out;
}

WireCounters wire_counters(const Layer& layer) {
  WireCounters total{};
  for (const RemoteShard* r : remote_shards(layer)) {
    const WireCounters wc = r->wire_counters();
    total.bytes_sent += wc.bytes_sent;
    total.bytes_received += wc.bytes_received;
    total.frames_sent += wc.frames_sent;
    total.frames_received += wc.frames_received;
  }
  return total;
}

int unhealthy_shards(const Layer& layer) {
  const auto remotes = remote_shards(layer);
  return static_cast<int>(std::count_if(
      remotes.begin(), remotes.end(),
      [](const RemoteShard* r) { return !r->healthy(); }));
}

}  // namespace slide::dist
