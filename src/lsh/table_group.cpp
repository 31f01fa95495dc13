#include "lsh/table_group.h"

#include <numeric>
#include <thread>

namespace slide {

LshTableGroup::LshTableGroup(std::unique_ptr<HashFamily> family,
                             const HashTable::Config& table_config,
                             std::uint64_t seed)
    : LshTableGroup(std::shared_ptr<const HashFamily>(std::move(family)),
                    table_config, seed) {}

LshTableGroup::LshTableGroup(std::shared_ptr<const HashFamily> family,
                             const HashTable::Config& table_config,
                             std::uint64_t seed)
    : family_(std::move(family)), seed_(seed) {
  SLIDE_CHECK(family_ != nullptr, "LshTableGroup: null hash family");
  tables_.reserve(static_cast<std::size_t>(family_->l()));
  for (int t = 0; t < family_->l(); ++t) tables_.emplace_back(table_config);
}

void LshTableGroup::insert(std::span<const Index> ids,
                           std::span<const std::uint32_t> keys, Rng& rng) {
  const std::size_t l = tables_.size();
  SLIDE_CHECK(keys.size() == ids.size() * l,
              "LshTableGroup::insert: need l() keys per id");
  for (std::size_t t = 0; t < l; ++t)
    tables_[t].reserve(keys.data() + t, ids.size(), l);
  // Id-major, table-minor: the order (and so the Rng stream) of inserting
  // each id into every table in turn.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t* row = keys.data() + i * l;
    for (std::size_t t = 0; t < l; ++t) tables_[t].place(row[t], ids[i], rng);
  }
}

void LshTableGroup::build(Index count, const RowKeys& row_keys,
                          std::uint64_t seed, ThreadPool* pool) {
  clear();
  const std::size_t l = tables_.size();
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(count) * l);
  auto hash_range = [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i)
      row_keys(static_cast<Index>(i), {keys.data() + i * l, l});
  };
  // Hashing is the O(K*L*d) part and parallel over rows ("easily
  // parallelized with multiple threads over different neurons", paper
  // §3.1); placing is O(L) per row and serial, so the Rng stream does not
  // depend on the thread count.
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_range(count, hash_range);
  } else {
    hash_range(0, count, 0);
  }
  std::vector<Index> ids(count);
  std::iota(ids.begin(), ids.end(), Index{0});
  Rng rng(seed);
  insert(ids, keys, rng);
}

void LshTableGroup::build_from_rows(const float* rows, std::size_t row_stride,
                                    Index count, ThreadPool* pool) {
  build(
      count,
      [&](Index i, std::span<std::uint32_t> keys) {
        family_->hash_dense(rows + static_cast<std::size_t>(i) * row_stride,
                            keys);
      },
      seed_, pool);
}

void LshTableGroup::copy_from(const LshTableGroup& other) {
  SLIDE_CHECK(family_ == other.family_,
              "LshTableGroup::copy_from: groups must share one hash family");
  tables_ = other.tables_;
}

void LshTableGroup::buckets(std::span<const std::uint32_t> keys,
                            std::vector<std::span<const Index>>& out) const {
  SLIDE_ASSERT(keys.size() == tables_.size());
  out.resize(tables_.size());
  for (std::size_t t = 0; t < tables_.size(); ++t)
    out[t] = tables_[t].bucket(keys[t]);
}

void LshTableGroup::clear() {
  for (auto& table : tables_) table.clear();
}

std::size_t LshTableGroup::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& table : tables_) total += table.memory_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// MaintainedTables
// ---------------------------------------------------------------------------

MaintainedTables::MaintainedTables(std::unique_ptr<HashFamily> family,
                                   const HashTable::Config& table_config,
                                   std::uint64_t seed)
    : family_(std::move(family)), table_config_(table_config), seed_(seed) {
  SLIDE_CHECK(family_ != nullptr, "MaintainedTables: null hash family");
  groups_[0] = std::make_unique<LshTableGroup>(family_, table_config_, seed_);
}

MaintainedTables::Pin MaintainedTables::pin() const {
  // Increment-then-recheck (the classic double-buffer RCU entry): if the
  // active index moved between the load and the increment, the maintenance
  // side may already have skipped our count — back out and retry. seq_cst
  // everywhere: the publish/drain handshake is a store-load (Dekker)
  // pattern, and rebuilds are far too rare for the fence to matter.
  for (;;) {
    const int i = active_idx_.load(std::memory_order_seq_cst);
    readers_[i].count.fetch_add(1, std::memory_order_seq_cst);
    if (active_idx_.load(std::memory_order_seq_cst) == i) return Pin(this, i);
    readers_[i].count.fetch_sub(1, std::memory_order_seq_cst);
  }
}

LshTableGroup& MaintainedTables::shadow_group() {
  const int s = 1 - active_idx_.load(std::memory_order_seq_cst);
  auto& group = groups_[static_cast<std::size_t>(s)];
  if (group == nullptr) {
    // Same seed as the active buffer: a build produces identical tables
    // whichever buffer it lands in, so sync and async_full policies are
    // bit-equivalent (tested in test_maintenance.cpp).
    group = std::make_unique<LshTableGroup>(family_, table_config_, seed_);
  }
  // RCU grace period: readers that pinned this buffer before it was
  // retired must drain before we overwrite it under them. The wait is
  // microseconds (a pin spans one bucket-sampling pass), while rebuilds
  // are many iterations apart.
  while (readers_[s].count.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  return *group;
}

void MaintainedTables::publish_shadow() {
  const int s = 1 - active_idx_.load(std::memory_order_seq_cst);
  SLIDE_CHECK(groups_[static_cast<std::size_t>(s)] != nullptr,
              "MaintainedTables: publish_shadow without a built shadow");
  active_idx_.store(s, std::memory_order_seq_cst);
  publish_count_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t MaintainedTables::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& group : groups_)
    if (group != nullptr) total += group->memory_bytes();
  return total;
}

}  // namespace slide
