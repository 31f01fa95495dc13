#include "dist/worker.h"

#include <algorithm>

#include "core/serialize.h"

namespace slide::dist {

ShardWorker::ShardWorker(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  SLIDE_CHECK(transport_ != nullptr, "ShardWorker: null transport");
}

ShardWorker::~ShardWorker() = default;

SampledLayer& ShardWorker::layer_checked() {
  SLIDE_CHECK(layer_ != nullptr, "worker: no shard initialized (InitShard "
                                 "must precede this RPC)");
  return *layer_;
}

const SampledLayer& ShardWorker::layer_checked() const {
  SLIDE_CHECK(layer_ != nullptr, "worker: no shard initialized (InitShard "
                                 "must precede this RPC)");
  return *layer_;
}

ShardWorker::ExitReason ShardWorker::serve() {
  while (true) {
    Frame request;
    try {
      request = transport_->recv(/*timeout_ms=*/-1);
    } catch (const TransportClosed&) {
      return ExitReason::kPeerClosed;
    }
    bool shutdown = false;
    Frame response;
    try {
      if (msg_type_of(request) == MsgType::kShutdown) {
        shutdown = true;
        response = make_frame(MsgType::kAck);
      } else {
        response = dispatch(request);
      }
    } catch (const Error& e) {
      // Includes FrameError (corrupt payload): report, keep serving — a
      // single bad request must not take the shard down.
      response = ErrorResp{e.what()}.to_frame();
    }
    try {
      transport_->send(response);
    } catch (const TransportClosed&) {
      return ExitReason::kPeerClosed;
    }
    if (shutdown) return ExitReason::kShutdown;
  }
}

Frame ShardWorker::dispatch(const Frame& request) {
  switch (msg_type_of(request)) {
    case MsgType::kHello: {
      const HelloMsg hello = HelloMsg::from_frame(request);
      SLIDE_CHECK(hello.version == kProtocolVersion,
                  "worker: protocol version mismatch (coordinator " +
                      std::to_string(hello.version) + ", worker " +
                      std::to_string(kProtocolVersion) + ")");
      Frame ok = make_frame(MsgType::kHelloOk);
      PayloadWriter w(ok.payload);
      w.u32(kProtocolVersion);
      return ok;
    }
    case MsgType::kInitShard:
      return handle_init(request);
    case MsgType::kForwardActive:
      return handle_forward(request);
    case MsgType::kBackwardScatter:
      return handle_backward(request);
    case MsgType::kApplyUpdates:
      layer_checked().apply_updates(
          ApplyUpdatesMsg::from_frame(request).lr, nullptr);
      return make_frame(MsgType::kAck);
    case MsgType::kMaybeRebuild: {
      MaybeRebuildResp resp;
      resp.fired = layer_checked().maybe_rebuild(
          MaybeRebuildMsg::from_frame(request).iteration, nullptr);
      return resp.to_frame();
    }
    case MsgType::kRebuildTables:
      layer_checked().rebuild_tables(nullptr);
      return make_frame(MsgType::kAck);
    case MsgType::kQuiesce:
      layer_checked().quiesce_maintenance();
      return make_frame(MsgType::kAck);
    case MsgType::kFlushMaintenance:
      layer_checked().flush_maintenance();
      return make_frame(MsgType::kAck);
    case MsgType::kRefreshMirror:
      layer_checked().refresh_inference_mirror();
      return make_frame(MsgType::kAck);
    case MsgType::kSetUseLocks:
      layer_checked().set_use_locks(
          SetUseLocksMsg::from_frame(request).locks);
      return make_frame(MsgType::kAck);
    case MsgType::kQueryTopk:
      return handle_query_topk(request);
    case MsgType::kCheckpointShard:
      return handle_checkpoint(request);
    case MsgType::kFetchShard:
      return handle_fetch();
    case MsgType::kSetShardWeights: {
      const SetShardWeightsMsg m = SetShardWeightsMsg::from_frame(request);
      SampledLayer& layer = layer_checked();
      SLIDE_CHECK(m.weights.size() == layer.weights_span().size() &&
                      m.bias.size() == layer.bias_span().size(),
                  "worker: pushed weight block does not match the shard "
                  "shape");
      std::copy(m.weights.begin(), m.weights.end(),
                layer.weights_span().data());
      std::copy(m.bias.begin(), m.bias.end(), layer.bias_span().data());
      layer.on_weights_loaded();
      layer.rebuild_tables(nullptr);
      return make_frame(MsgType::kAck);
    }
    case MsgType::kAddUnits: {
      const AddUnitsMsg m = AddUnitsMsg::from_frame(request);
      SampledLayer& layer = layer_checked();
      layer.add_units(m.count);
      // The sampled universe widened; the VisitedSet is capacity-fixed.
      visited_ = std::make_unique<VisitedSet>(layer.units());
      return make_frame(MsgType::kAck);
    }
    case MsgType::kRetireUnits: {
      const RetireUnitsMsg m = RetireUnitsMsg::from_frame(request);
      layer_checked().retire_units(m.local_ids);
      return make_frame(MsgType::kAck);
    }
    case MsgType::kStats:
      return handle_stats();
    default:
      throw FrameError(FrameErrorKind::kBadFormat,
                       std::string("unexpected request ") +
                           to_string(msg_type_of(request)));
  }
}

Frame ShardWorker::handle_init(const Frame& f) {
  const InitShardMsg m = InitShardMsg::from_frame(f);
  SLIDE_CHECK(layer_ == nullptr, "worker: shard already initialized");
  SLIDE_CHECK(m.batch_slots >= 1, "worker: batch_slots must be >= 1");
  shard_index_ = m.shard_index;
  num_shards_ = m.num_shards;
  row_offset_ = m.row_offset;
  global_units_ = m.global_units;
  // max_threads = 1: RPCs arrive sequentially, so one HOGWILD touched list
  // suffices (tid is always 0 below).
  if (m.checkpoint_path.empty()) {
    layer_ = std::make_unique<SampledLayer>(m.config, m.batch_slots,
                                            /*max_threads=*/1);
  } else {
    // Read and check the whole shard file first, then build the layer for
    // it: no random init and no index build of its own, so the rebuild
    // below is the shard's one index build.
    std::vector<float> weights;
    std::vector<float> bias;
    const ShardFileInfo info =
        load_shard_file(m.checkpoint_path, weights, bias);
    SLIDE_CHECK(info.shard_index == static_cast<std::uint32_t>(shard_index_) &&
                    info.num_shards ==
                        static_cast<std::uint32_t>(num_shards_) &&
                    info.row_offset == row_offset_,
                "worker: shard file topology does not match InitShard");
    SLIDE_CHECK(info.rows == m.config.units &&
                    info.fan_in == m.config.fan_in,
                "worker: shard file shape does not match the shard config");
    auto layer = std::make_unique<SampledLayer>(
        m.config, m.batch_slots, /*max_threads=*/1, ParamInit::checkpoint());
    std::copy(weights.begin(), weights.end(), layer->weights_span().data());
    std::copy(bias.begin(), bias.end(), layer->bias_span().data());
    layer->on_weights_loaded();
    layer->rebuild_tables(nullptr);
    layer_ = std::move(layer);
  }
  visited_ = std::make_unique<VisitedSet>(m.config.units);
  prev_slots_.resize(static_cast<std::size_t>(m.batch_slots));
  return make_frame(MsgType::kAck);
}

Frame ShardWorker::handle_forward(const Frame& f) {
  const ForwardMsg m = ForwardMsg::from_frame(f);
  SampledLayer& layer = layer_checked();
  SLIDE_CHECK(m.slot >= 0 &&
                  static_cast<std::size_t>(m.slot) < prev_slots_.size(),
              "worker: forward slot out of range");
  ActiveSet& prev = prev_slots_[static_cast<std::size_t>(m.slot)];
  m.prev.reconstruct(prev);
  rng_.set_state(m.rng);
  layer.forward(m.slot, prev, m.forced_local, rng_, *visited_, /*tid=*/0);

  const ActiveSet& slot = layer.slot(m.slot);
  ForwardResp resp;
  resp.rng = rng_.state();
  const std::size_t n = slot.size();
  resp.ids.assign(slot.ids.begin(), slot.ids.end());
  resp.act.assign(slot.act.begin(),
                  slot.act.begin() + static_cast<std::ptrdiff_t>(n));
  return resp.to_frame(f.bf16_values());
}

Frame ShardWorker::handle_backward(const Frame& f) {
  BackwardMsg m = BackwardMsg::from_frame(f);
  SampledLayer& layer = layer_checked();
  SLIDE_CHECK(m.slot >= 0 &&
                  static_cast<std::size_t>(m.slot) < prev_slots_.size(),
              "worker: backward slot out of range");
  ActiveSet& slot = layer.slot(m.slot);
  SLIDE_CHECK(m.err.size() == slot.size(),
              "worker: err segment does not match the shard's active set");
  ActiveSet& prev = prev_slots_[static_cast<std::size_t>(m.slot)];
  SLIDE_CHECK(m.prev_err.size() == prev.size(),
              "worker: prev_err does not match the cached prev set");
  std::copy(m.err.begin(), m.err.end(), slot.err.begin());
  // The fold: start from the coordinator's current prev.err, accumulate
  // this shard's contributions in the same loop order as in-process,
  // return the result to seed the next shard.
  std::copy(m.prev_err.begin(), m.prev_err.end(), prev.err.begin());
  layer.backward(m.slot, prev, /*tid=*/0);
  BackwardResp resp;
  resp.prev_err.assign(prev.err.begin(),
                       prev.err.begin() +
                           static_cast<std::ptrdiff_t>(prev.size()));
  return resp.to_frame(false);
}

Frame ShardWorker::handle_query_topk(const Frame& f) {
  const QueryTopkMsg m = QueryTopkMsg::from_frame(f);
  const SampledLayer& layer = layer_checked();
  m.prev.reconstruct(query_prev_);
  const std::span<const Index> prev_ids{query_prev_.ids.data(),
                                        query_prev_.ids.size()};
  const std::span<const float> prev_act{query_prev_.act.data(),
                                        query_prev_.act.size()};
  rng_.set_state(m.rng);
  layer.forward_inference(prev_ids, prev_act, m.exact, rng_, *visited_,
                          query_ids_, query_act_);
  QueryTopkResp resp;
  resp.rng = rng_.state();
  resp.ids = query_ids_;
  resp.act = query_act_;
  return resp.to_frame(f.bf16_values());
}

Frame ShardWorker::handle_checkpoint(const Frame& f) {
  const CheckpointShardMsg m = CheckpointShardMsg::from_frame(f);
  const SampledLayer& layer = layer_checked();
  ShardFileInfo info;
  info.shard_index = static_cast<std::uint32_t>(shard_index_);
  info.num_shards = static_cast<std::uint32_t>(num_shards_);
  info.row_offset = row_offset_;
  info.rows = layer.units();
  info.fan_in = layer.fan_in();
  save_shard_file(m.path, info, layer.weights_span(), layer.bias_span());
  return make_frame(MsgType::kAck);
}

Frame ShardWorker::handle_fetch() const {
  const SampledLayer& layer = layer_checked();
  FetchShardResp resp;
  resp.row_offset = row_offset_;
  resp.rows = layer.units();
  resp.fan_in = layer.fan_in();
  const std::span<const float> w = layer.weights_span();
  const std::span<const float> b = layer.bias_span();
  resp.weights.assign(w.begin(), w.end());
  resp.bias.assign(b.begin(), b.end());
  return resp.to_frame();
}

Frame ShardWorker::handle_stats() const {
  const SampledLayer& layer = layer_checked();
  StatsResp resp;
  resp.active_fraction = layer.average_active_fraction();
  resp.sampling_seconds = layer.sampling_seconds();
  resp.compute_seconds = layer.compute_seconds();
  resp.rebuild_count = layer.rebuild_count();
  resp.delta_reinserted = layer.delta_reinserted();
  return resp.to_frame();
}

// ---------------------------------------------------------------------------
// InProcessWorker
// ---------------------------------------------------------------------------

InProcessWorker::InProcessWorker(const std::string& endpoint)
    : listener_(listen_endpoint(endpoint)), endpoint_(listener_->endpoint()) {
  thread_ = std::thread([this] {
    try {
      std::unique_ptr<Transport> transport =
          listener_->accept(/*timeout_ms=*/-1);
      {
        std::lock_guard lock(mutex_);
        active_ = transport.get();
      }
      ShardWorker worker(std::move(transport));
      worker.serve();
      std::lock_guard lock(mutex_);
      active_ = nullptr;
    } catch (const TransportError&) {
      // Listener closed before a coordinator arrived, or the peer vanished
      // mid-handshake — a normal shutdown path for tests.
      std::lock_guard lock(mutex_);
      active_ = nullptr;
    } catch (const Error&) {
      std::lock_guard lock(mutex_);
      active_ = nullptr;
    }
  });
}

InProcessWorker::~InProcessWorker() { stop(); }

void InProcessWorker::stop() {
  // close() only wakes the serve thread (accept or recv fails with
  // TransportClosed); the thread's owners release the sockets: the serve
  // thread its transport, this object its listener.
  if (listener_) listener_->close();
  {
    // Unblock a serve loop still waiting on its coordinator.
    std::lock_guard lock(mutex_);
    if (active_ != nullptr) active_->close();
  }
  if (thread_.joinable()) thread_.join();
}

}  // namespace slide::dist
