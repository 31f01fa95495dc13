#include "serve/snapshot.h"

#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/serialize.h"
#include "sys/thread_pool.h"

namespace slide {

namespace {

std::shared_ptr<ModelSnapshot> make_snapshot(
    std::shared_ptr<const Network> network, std::uint64_t version,
    std::string source) {
  SLIDE_CHECK(network != nullptr, "ModelStore: network must not be null");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->max_units = network->max_sampled_units();
  snap->input_dim = network->input_dim();
  snap->network = std::move(network);
  snap->version = version;
  snap->source = std::move(source);
  return snap;
}

}  // namespace

std::shared_ptr<const Network> ModelStore::network_from_checkpoint(
    const NetworkConfig& config, std::istream& in, int rebuild_threads) {
  if (rebuild_threads <= 0) rebuild_threads = hardware_threads();
  // No random init and no index build: load_weights rejects a stream that
  // does not cover every parameter block, and its trailing rebuild (on the
  // pool) or a restored HNSW graph is the only index the network gets.
  auto network = std::make_shared<Network>(config, rebuild_threads,
                                           ParamInit::checkpoint());
  if (rebuild_threads > 1) {
    ThreadPool pool(rebuild_threads);
    load_weights(*network, in, &pool);
  } else {
    load_weights(*network, in, nullptr);
  }
  return network;
}

ModelStore::ModelStore(std::shared_ptr<const Network> initial,
                       std::string source) {
  current_ = make_snapshot(std::move(initial), next_version_++,
                           std::move(source));
  input_dim_.store(current_->input_dim, std::memory_order_release);
  publish_count_ = 1;
}

std::shared_ptr<ModelStore> ModelStore::from_checkpoint_file(
    const NetworkConfig& config, const std::string& path,
    int rebuild_threads) {
  std::ifstream in(path, std::ios::binary);
  SLIDE_CHECK(in.good(), "ModelStore: cannot open checkpoint " + path);
  return std::make_shared<ModelStore>(
      network_from_checkpoint(config, in, rebuild_threads), path);
}

std::shared_ptr<ModelStore> ModelStore::from_shard_checkpoints(
    NetworkConfig config, const std::string& base,
    const std::string& coordinator_checkpoint) {
  bool any = false;
  for (LayerSpec& spec : config.layers) {
    if (spec.endpoints.empty()) continue;
    spec.shard_checkpoint_base = base;
    any = true;
  }
  SLIDE_CHECK(any,
              "ModelStore::from_shard_checkpoints: no distributed layer in "
              "the config (set LayerSpec::endpoints)");
  // Workers load their own shard files (and rebuild their tables) inside
  // Network construction, via kInitShard's checkpoint_path.
  auto network = std::make_shared<Network>(config, /*max_threads=*/1);
  if (!coordinator_checkpoint.empty())
    load_weights_file(*network, coordinator_checkpoint);
  return std::make_shared<ModelStore>(std::move(network),
                                      base + ".shard*of*");
}

std::shared_ptr<const ModelSnapshot> ModelStore::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t ModelStore::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_->version;
}

std::uint64_t ModelStore::publish(std::shared_ptr<const Network> network,
                                  std::string source) {
  // A snapshot promises fully settled tables: if the network was trained
  // with an async MaintenancePolicy, a background rebuild may still be in
  // flight — let it finish (and publish its table swap) before the serving
  // swap, so every worker that resolves this snapshot sees the same final
  // tables. Reader-safety never depended on this (the table double-buffer
  // handles that); snapshot determinism does.
  if (network != nullptr) network->quiesce_maintenance();
  auto snap = make_snapshot(std::move(network), 0, std::move(source));
  std::lock_guard<std::mutex> lock(mutex_);
  snap->version = next_version_++;
  current_ = std::move(snap);
  input_dim_.store(current_->input_dim, std::memory_order_release);
  ++publish_count_;
  return current_->version;
}

std::uint64_t ModelStore::load_checkpoint(const NetworkConfig& config,
                                          std::istream& in,
                                          const std::string& source,
                                          int rebuild_threads) {
  // Build + load + table rebuild all happen here, before publication —
  // serving traffic never sees a partially-initialized network.
  return publish(network_from_checkpoint(config, in, rebuild_threads),
                 source);
}

std::uint64_t ModelStore::load_checkpoint_file(const NetworkConfig& config,
                                               const std::string& path,
                                               int rebuild_threads) {
  std::ifstream in(path, std::ios::binary);
  SLIDE_CHECK(in.good(), "ModelStore: cannot open checkpoint " + path);
  return load_checkpoint(config, in, path, rebuild_threads);
}

std::future<std::uint64_t> ModelStore::load_checkpoint_file_async(
    NetworkConfig config, std::string path, int rebuild_threads) {
  // The task co-owns the store: dropping the caller's last reference while
  // the load is in flight must not free the store under the loader.
  return std::async(std::launch::async,
                    [self = shared_from_this(), config = std::move(config),
                     path = std::move(path), rebuild_threads] {
                      return self->load_checkpoint_file(config, path,
                                                        rebuild_threads);
                    });
}

std::uint64_t ModelStore::publish_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publish_count_;
}

std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            int rebuild_threads, const std::string& source) {
  return publish_clone(store, trained, trained.precision(), rebuild_threads,
                       source);
}

std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            Precision precision, int rebuild_threads,
                            const std::string& source) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(trained, buffer);
  buffer.seekg(0);
  // The fresh network re-derives its bf16 mirrors from the fp32 parameter
  // blocks during the load, so the override needs nothing but the config.
  NetworkConfig config = trained.config();
  config.precision = precision;
  return store.load_checkpoint(config, buffer, source, rebuild_threads);
}

std::uint64_t publish_clone_sharded(ModelStore& store, const Network& trained,
                                    int shards, int rebuild_threads,
                                    const std::string& source) {
  SLIDE_CHECK(shards >= 0, "publish_clone_sharded: shards must be >= 0");
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(trained, buffer);
  buffer.seekg(0);
  // Retarget every hashed layer at the requested shard count; the v3
  // checkpoint loader scatters the trainer's blocks into the new partition
  // by global row index, so the served weights are exactly the trainer's
  // regardless of either side's sharding.
  NetworkConfig config = trained.config();
  for (LayerSpec& spec : config.layers) {
    if (spec.hashed) spec.shards = shards;
  }
  return store.load_checkpoint(config, buffer, source, rebuild_threads);
}

}  // namespace slide
