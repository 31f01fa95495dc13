// A single LSH hash table with capped buckets in a compact (CSR) layout.
//
// Buckets store neuron ids only (paper §2: "We only store pointers ...
// storing whole data vectors is very memory inefficient"). Every bucket is
// capped at bucket_size ids, which bounds memory and balances thread load
// during parallel aggregation (paper §3.2). When a bucket is full, one of
// two replacement policies applies (paper §4.2, Table 3):
//   * Reservoir — Vitter's reservoir sampling; keeps every inserted item
//     with equal probability, preserving the adaptive-sampling property.
//   * FIFO — ring overwrite of the oldest entry; cheaper bookkeeping.
//
// Layout: per-bucket u32 offsets into one compact id array, plus a
// per-bucket count of inserts seen. Bucket b holds min(seen, bucket_size)
// ids at ids_[offsets_[b], offsets_[b+1]), so the table stores only the
// ids it keeps — not 2^range_pow × bucket_size slots. Slot i of a bucket
// holds exactly what slot i of a fixed bucket_size-slot bucket would hold
// after the same insert stream.
//
// Inserts are batched and come in two steps so that a group of tables can
// interleave one Rng across them (lsh/table_group.h): reserve() grows every
// bucket the batch addresses to the size the batch will fill, re-laying
// the table out at most once; place() then writes one id into room already
// made. A table has one writer and no concurrent readers while it is being
// written: live readers only ever see tables that MaintainedTables has
// published (table_group.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sys/common.h"
#include "sys/rng.h"

namespace slide {

enum class InsertionPolicy { kReservoir, kFifo };

class HashTable {
 public:
  struct Config {
    /// Number of buckets = 2^range_pow.
    int range_pow = 15;
    /// Bucket capacity (the paper's reference implementation uses 128).
    int bucket_size = 128;
    InsertionPolicy policy = InsertionPolicy::kReservoir;
  };

  explicit HashTable(const Config& config);

  /// Inserts ids[i] into the bucket for keys[i], in order: reserve() then
  /// place() for each id.
  void insert(std::span<const std::uint32_t> keys, std::span<const Index> ids,
              Rng& rng);

  /// Batched insert, step 1: makes room for `count` inserts whose keys are
  /// keys[0], keys[stride], ..., keys[(count - 1) * stride]. Re-lays the
  /// table out (O(num_buckets + stored)) only if some bucket grows.
  void reserve(const std::uint32_t* keys, std::size_t count,
               std::size_t stride);

  /// Batched insert, step 2: inserts id into the bucket for key. The
  /// insert must have been counted by a reserve() call.
  void place(std::uint32_t key, Index id, Rng& rng) {
    const std::uint32_t b = bucket_of(key);
    const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
    Index* slots = ids_.data() + offsets_[b];
    const std::uint32_t n = seen_[b]++;
    if (n < cap) {
      SLIDE_ASSERT(n < offsets_[b + 1] - offsets_[b]);
      slots[n] = id;
      return;
    }
    switch (config_.policy) {
      case InsertionPolicy::kReservoir: {
        // Vitter: the (n+1)-th item replaces a uniform slot with
        // probability cap/(n+1); every item ends up retained with equal
        // probability.
        const std::uint32_t j = rng.uniform(n + 1);
        if (j < cap) slots[j] = id;
        break;
      }
      case InsertionPolicy::kFifo:
        slots[n % cap] = id;
        break;
    }
  }

  /// Returns the ids currently stored in the bucket for `key`.
  std::span<const Index> bucket(std::uint32_t key) const {
    const std::uint32_t b = bucket_of(key);
    return {ids_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
  }

  /// Removes all entries and releases the id array.
  void clear();

  std::size_t num_buckets() const noexcept { return seen_.size(); }
  int bucket_size() const noexcept { return config_.bucket_size; }
  InsertionPolicy policy() const noexcept { return config_.policy; }

  /// Number of ids currently stored across all buckets.
  std::size_t total_stored() const noexcept { return ids_.size(); }
  /// Number of non-empty buckets.
  std::size_t occupied_buckets() const;

  /// Offsets + seen counters + stored ids.
  std::size_t memory_bytes() const noexcept {
    return (offsets_.size() + seen_.size()) * sizeof(std::uint32_t) +
           ids_.size() * sizeof(Index);
  }

 private:
  std::uint32_t bucket_of(std::uint32_t key) const noexcept {
    // Fibonacci multiplicative mixing of the (already mixed) fingerprint;
    // top bits select the bucket.
    return (key * 2654435761u) >> shift_;
  }

  Config config_;
  unsigned shift_;
  std::vector<std::uint32_t> offsets_;  // num_buckets + 1, prefix sums
  std::vector<std::uint32_t> seen_;     // inserts seen per bucket
  std::vector<Index> ids_;              // offsets_.back() stored ids
};

}  // namespace slide
