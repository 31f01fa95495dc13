// The (K, L) LSH structure of one layer: a hash family plus L hash tables
// (paper §2, Figure 1). Supports parallel (re)builds over neuron weight
// rows and per-query bucket retrieval for the sampling strategies.
//
// Two classes live here:
//   LshTableGroup   — one set of L tables over one (possibly shared) hash
//                     family; the unit of building and querying.
//   MaintainedTables — the double-buffered active/shadow pair behind
//                     asynchronous maintenance (core/layer.h,
//                     MaintenancePolicy): readers pin the active group and
//                     sample from it lock-free while a maintenance thread
//                     builds or updates the shadow group and publishes it
//                     with an atomic index swap.
//
// Every write to a group is one batched insert (insert()): each table
// grows its compact bucket layout once for the whole batch
// (lsh/hash_table.h), then the ids are placed in id-major, table-minor
// order with one Rng. A build is the same batch over every row: the rows
// are hashed once into a scratch key buffer (in parallel over rows when a
// pool is given) and inserted with Rng(seed), so a pooled build equals the
// serial one slot for slot.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "lsh/hash_function.h"
#include "lsh/hash_table.h"
#include "sys/thread_pool.h"

namespace slide {

class LshTableGroup {
 public:
  /// Takes ownership of the hash family. The group creates family->l()
  /// tables with the given per-table configuration.
  LshTableGroup(std::unique_ptr<HashFamily> family,
                const HashTable::Config& table_config,
                std::uint64_t seed = 23);

  /// Shares an externally owned family — the double-buffer constructor:
  /// active and shadow groups must hash identically, so they reference one
  /// family instead of owning two independently seeded ones.
  LshTableGroup(std::shared_ptr<const HashFamily> family,
                const HashTable::Config& table_config,
                std::uint64_t seed = 23);

  int k() const noexcept { return family_->k(); }
  int l() const noexcept { return family_->l(); }
  const HashFamily& family() const noexcept { return *family_; }

  /// Computes the L fingerprint keys of a dense query of family().dim().
  void query_keys_dense(const float* x, std::span<std::uint32_t> keys) const {
    family_->hash_dense(x, keys);
  }
  void query_keys_sparse(const Index* idx, const float* val, std::size_t nnz,
                         std::span<std::uint32_t> keys) const {
    family_->hash_sparse(idx, val, nnz, keys);
  }

  /// Inserts ids[i] into table t's bucket for keys[i * l() + t], for all
  /// i and t (keys id-major). Each table re-lays out at most once; the Rng
  /// is consumed in id-major, table-minor order.
  void insert(std::span<const Index> ids, std::span<const std::uint32_t> keys,
              Rng& rng);

  /// Fills keys (l() of them) for row `id` — the row source of build().
  using RowKeys =
      std::function<void(Index id, std::span<std::uint32_t> keys)>;

  /// Clears all tables and inserts ids [0, count), hashing each row once
  /// with `row_keys` (in parallel over rows when a pool is given) and
  /// placing them with Rng(seed). The one build path: the layer (re)build
  /// of paper §3.1 / §4.2.
  void build(Index count, const RowKeys& row_keys, std::uint64_t seed,
             ThreadPool* pool);

  /// build() over dense vectors: vector i at rows + i*row_stride, hashed by
  /// family(), placed with Rng(seed()).
  void build_from_rows(const float* rows, std::size_t row_stride, Index count,
                       ThreadPool* pool = nullptr);

  /// Makes this group's tables a copy of `other`'s (same family and table
  /// configuration): the starting point of a shadow-published insert.
  void copy_from(const LshTableGroup& other);

  /// Fills out[t] with the bucket of table t for keys[t].
  void buckets(std::span<const std::uint32_t> keys,
               std::vector<std::span<const Index>>& out) const;

  void clear();

  std::size_t memory_bytes() const;
  const HashTable& table(int t) const { return tables_[static_cast<std::size_t>(t)]; }

 private:
  std::shared_ptr<const HashFamily> family_;
  std::vector<HashTable> tables_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------

/// Double-buffered table groups with lock-free reader pinning.
///
/// Readers (trainer threads selecting active neurons, inference forwards)
/// call pin(): it resolves the current active group and holds a per-buffer
/// reader count so the group cannot be rebuilt under them. The maintenance
/// side (exactly ONE caller at a time — either the trainer thread for
/// synchronous policies or the layer's BackgroundWorker for async ones)
/// rebuilds into shadow_group() and makes it visible with publish_shadow(),
/// an atomic index swap. In-flight readers finish on the retired group —
/// shadow_group() waits for their count to drain before reusing the buffer
/// (the RCU grace period), so a reader can never observe a half-built or
/// half-swapped group.
///
/// The shadow buffer is allocated lazily on first use: synchronous-only
/// layers keep the original single-group memory footprint.
///
/// Nothing writes a group that readers can pin: a delta pass beside live
/// readers (async_delta) copies the active group into the shadow group,
/// inserts its batch there and publishes it like a full rebuild. In-place
/// writes to active_group() are for callers that guarantee no concurrent
/// readers.
class MaintainedTables {
 public:
  MaintainedTables(std::unique_ptr<HashFamily> family,
                   const HashTable::Config& table_config,
                   std::uint64_t seed = 23);

  int k() const noexcept { return family_->k(); }
  int l() const noexcept { return family_->l(); }
  const HashFamily& family() const noexcept { return *family_; }

  /// Key computation only touches the (immutable, shared) family — no pin
  /// needed, valid across swaps.
  void query_keys_dense(const float* x, std::span<std::uint32_t> keys) const {
    family_->hash_dense(x, keys);
  }
  void query_keys_sparse(const Index* idx, const float* val, std::size_t nnz,
                         std::span<std::uint32_t> keys) const {
    family_->hash_sparse(idx, val, nnz, keys);
  }

  /// RAII reader pin: the referenced group stays valid (never rebuilt in
  /// place) for the pin's lifetime. Bucket spans obtained through the pin
  /// must not outlive it.
  class Pin {
   public:
    const LshTableGroup& group() const noexcept { return *group_; }
    const LshTableGroup* operator->() const noexcept { return group_; }
    ~Pin() {
      if (owner_ != nullptr)
        owner_->readers_[idx_].count.fetch_sub(1, std::memory_order_seq_cst);
    }
    Pin(Pin&& other) noexcept
        : owner_(other.owner_), idx_(other.idx_), group_(other.group_) {
      other.owner_ = nullptr;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    Pin& operator=(Pin&&) = delete;

   private:
    friend class MaintainedTables;
    Pin(const MaintainedTables* owner, int idx) noexcept
        : owner_(owner),
          idx_(idx),
          group_(owner->groups_[static_cast<std::size_t>(idx)].get()) {}

    const MaintainedTables* owner_;
    int idx_;
    const LshTableGroup* group_;
  };

  /// Pins the active group for reading. Lock-free (one atomic increment /
  /// decrement pair per query — noise next to the K*L hash computations).
  Pin pin() const;

  /// Convenience for diagnostics and single-threaded callers (benches,
  /// tests). The returned spans are NOT protected by a pin once this call
  /// returns — concurrent-maintenance callers must hold their own pin()
  /// and read through it instead.
  void buckets(std::span<const std::uint32_t> keys,
               std::vector<std::span<const Index>>& out) const {
    active().buckets(keys, out);
  }

  // ---- Maintenance side (single caller at a time; see class comment) ----

  /// The active group, mutable: in-place rebuilds and inserts for callers
  /// that guarantee no concurrent readers (the synchronous policy between
  /// batches, label growth with maintenance parked).
  LshTableGroup& active_group() noexcept {
    return *groups_[static_cast<std::size_t>(
        active_idx_.load(std::memory_order_seq_cst))];
  }

  /// The shadow group, ready to build (or copy_from the active group)
  /// into. Allocates it on first use; waits for readers still pinning the
  /// retired buffer.
  LshTableGroup& shadow_group();

  /// Atomically makes the shadow group the active one. The previously
  /// active group becomes the next shadow; in-flight readers finish on it.
  void publish_shadow();

  /// Successful publish_shadow() calls (diagnostics).
  std::uint64_t publish_count() const noexcept {
    return publish_count_.load(std::memory_order_relaxed);
  }

  // ---- Diagnostics (unpinned: only meaningful without concurrent
  //      maintenance, e.g. in benches and tests) ----
  const LshTableGroup& active() const noexcept {
    return *groups_[static_cast<std::size_t>(
        active_idx_.load(std::memory_order_seq_cst))];
  }
  const HashTable& table(int t) const { return active().table(t); }
  std::size_t memory_bytes() const;

 private:
  struct alignas(kCacheLineSize) PaddedCount {
    mutable std::atomic<std::uint32_t> count{0};
  };

  std::shared_ptr<const HashFamily> family_;
  HashTable::Config table_config_;
  std::uint64_t seed_;
  std::unique_ptr<LshTableGroup> groups_[2];  // [shadow] lazily allocated
  std::atomic<int> active_idx_{0};
  PaddedCount readers_[2];
  std::atomic<std::uint64_t> publish_count_{0};
};

}  // namespace slide
