// Hot-swappable model snapshots (RCU-style publish/read).
//
// A ModelSnapshot is an immutable, fully-built model: a const Network with
// its hash tables already rebuilt, plus a monotonically increasing version.
// The ModelStore holds the current snapshot behind a shared_ptr; readers
// (engine workers) grab a reference once per micro-batch and keep serving
// on it even if a newer snapshot is published mid-batch — the classic
// read-copy-update shape. Publishing swaps the pointer under a short
// mutex; in-flight requests finish on the old snapshot, which is freed
// when the last reader drops its reference. There is no pause, no
// reader-side locking beyond the pointer copy, and no torn state: a
// snapshot is either fully visible or not yet published.
//
// Checkpoint loads (core/serialize format) construct the fresh Network and
// rebuild its tables *before* the swap, off the serving path — the
// network is built without a random init or an index of its own (see
// ParamInit), so the load's rebuild is the boot's one index build. The
// building block for train-and-serve loops where a trainer periodically
// checkpoints and the server picks the weights up with zero pause
// (cf. the parameter-exchange motivation in "Distributed SLIDE", 2022).
#pragma once

#include <atomic>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "core/network.h"

namespace slide {

struct ModelSnapshot {
  std::shared_ptr<const Network> network;
  std::uint64_t version = 0;
  /// Provenance: checkpoint path, "initial", "published", ...
  std::string source;
  /// Cached network->max_sampled_units(); sizes per-worker scratch.
  Index max_units = 0;
  /// Cached network->input_dim(); validates requests at admission.
  Index input_dim = 0;
};

class ModelStore : public std::enable_shared_from_this<ModelStore> {
 public:
  /// Seeds the store with an already-built network (version 1). The network
  /// must have its hash tables current (e.g. rebuild_all after training).
  explicit ModelStore(std::shared_ptr<const Network> initial,
                      std::string source = "initial");

  /// Boots a store directly from a checkpoint (version 1) — the standalone
  /// server path, with no placeholder network to build and discard.
  static std::shared_ptr<ModelStore> from_checkpoint_file(
      const NetworkConfig& config, const std::string& path,
      int rebuild_threads = 0);

  /// Boots a store whose distributed layers load from per-shard checkpoint
  /// files "<base>.shard<s>of<n>" (core/serialize.h shard files, written by
  /// dist::RemoteShard::checkpoint): each shard worker reads
  /// its OWN file during kInitShard — the wide layer's weights never cross
  /// the wire. A non-empty `coordinator_checkpoint` then restores the other
  /// layers (embedding, dense mid-stack) from a standard core/serialize
  /// checkpoint. The config must have at least one layer with distributed
  /// endpoints.
  static std::shared_ptr<ModelStore> from_shard_checkpoints(
      NetworkConfig config, const std::string& base,
      const std::string& coordinator_checkpoint = "");

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// The current snapshot; never null. Readers hold the returned pointer
  /// for as long as they need the model — publishing never invalidates it.
  std::shared_ptr<const ModelSnapshot> current() const;

  std::uint64_t version() const;

  /// Atomically publishes an already-built network; returns its version.
  std::uint64_t publish(std::shared_ptr<const Network> network,
                        std::string source = "published");

  /// Builds a fresh Network(config) for the load, loads a core/serialize
  /// checkpoint into it, builds its hash tables once (`rebuild_threads`,
  /// 0 = hardware), then publishes. All heavy work happens on the calling thread before the
  /// O(1) swap. The config must match the checkpoint architecture
  /// (slide::Error otherwise, store unchanged).
  std::uint64_t load_checkpoint(const NetworkConfig& config, std::istream& in,
                                const std::string& source = "stream",
                                int rebuild_threads = 0);
  std::uint64_t load_checkpoint_file(const NetworkConfig& config,
                                     const std::string& path,
                                     int rebuild_threads = 0);

  /// load_checkpoint_file on a background thread; the future resolves to
  /// the published version (or rethrows the load error). The task holds a
  /// shared_ptr to the store, so the store outlives the load even if the
  /// caller drops its reference — requires the store to be owned by a
  /// shared_ptr (it always is via make_shared / from_checkpoint_file).
  std::future<std::uint64_t> load_checkpoint_file_async(
      NetworkConfig config, std::string path, int rebuild_threads = 0);

  /// Input dimension of the current snapshot (lock-free; updated at
  /// publish). Admission-time request validation reads this on every
  /// submit, so it must not take the snapshot mutex.
  Index input_dim() const noexcept {
    return input_dim_.load(std::memory_order_acquire);
  }

  /// Total successful publishes (including the seed snapshot).
  std::uint64_t publish_count() const;

 private:
  /// Builds + loads + indexes a serving-ready network off the serving
  /// path; the one place that mints ParamInit::checkpoint().
  static std::shared_ptr<const Network> network_from_checkpoint(
      const NetworkConfig& config, std::istream& in, int rebuild_threads);

  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<Index> input_dim_{0};
  std::uint64_t next_version_ = 1;
  std::uint64_t publish_count_ = 0;
};

/// Convenience for the common train-and-serve handoff: serialize `trained`
/// through an in-memory checkpoint into a fresh network with the same
/// config and publish it. (A direct shared_ptr publish is cheaper when the
/// caller can relinquish ownership; this path clones, so the trainer can
/// keep mutating its own network.)
std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            int rebuild_threads = 0,
                            const std::string& source = "clone");

/// publish_clone with a serving-precision override: the published snapshot
/// scores inference at `precision` regardless of how the trainer's network
/// is configured. Precision::kBF16 emits a quantized snapshot whose
/// scoring path reads half the weight bytes (Network::memory_footprint);
/// the trainer keeps its fp32 masters untouched. The checkpoint-loading
/// boot paths (from_checkpoint_file / load_checkpoint*) get the same knob
/// through NetworkConfig::precision.
std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            Precision precision, int rebuild_threads = 0,
                            const std::string& source = "clone");

/// publish_clone with a shard-count override: every hashed layer of the
/// published snapshot is re-partitioned into `shards` model-parallel LSH
/// shards (core/sharded_layer.h) regardless of how the trainer's network is
/// laid out — the checkpoint-v3 loader reshards the weight blocks by global
/// row index, so the served parameters are bit-identical to the trainer's.
/// `shards` = 0 publishes the monolithic layout; this is how a v2-era
/// monolithic model is re-published as a sharded serving snapshot (and how
/// a sharded trainer publishes a monolithic one).
std::uint64_t publish_clone_sharded(ModelStore& store, const Network& trained,
                                    int shards, int rebuild_threads = 0,
                                    const std::string& source = "reshard");

}  // namespace slide
