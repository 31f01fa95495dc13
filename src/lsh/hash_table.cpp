#include "lsh/hash_table.h"

#include <algorithm>
#include <limits>

namespace slide {

HashTable::HashTable(const Config& config) : config_(config) {
  SLIDE_CHECK(config_.range_pow >= 1 && config_.range_pow <= 28,
              "HashTable: range_pow must be in [1, 28]");
  SLIDE_CHECK(config_.bucket_size >= 1,
              "HashTable: bucket_size must be >= 1");
  const std::size_t buckets = std::size_t{1} << config_.range_pow;
  shift_ = 32u - static_cast<unsigned>(config_.range_pow);
  offsets_.assign(buckets + 1, 0);
  seen_.assign(buckets, 0);
}

void HashTable::insert(std::span<const std::uint32_t> keys,
                       std::span<const Index> ids, Rng& rng) {
  SLIDE_CHECK(keys.size() == ids.size(),
              "HashTable::insert: one key per id");
  reserve(keys.data(), keys.size(), 1);
  for (std::size_t i = 0; i < ids.size(); ++i) place(keys[i], ids[i], rng);
}

void HashTable::reserve(const std::uint32_t* keys, std::size_t count,
                        std::size_t stride) {
  const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
  bool grows = false;
  for (std::size_t i = 0; i < count && !grows; ++i)
    grows = seen_[bucket_of(keys[i * stride])] < cap;
  if (!grows) return;  // every addressed bucket is already full

  // next[b + 1] first counts the batch's inserts into bucket b, then
  // becomes the prefix sum of the grown sizes min(seen + batch, cap).
  const std::size_t buckets = seen_.size();
  std::vector<std::uint32_t> next(buckets + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++next[bucket_of(keys[i * stride]) + 1];
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    total += std::min<std::uint64_t>(std::uint64_t{seen_[b]} + next[b + 1],
                                     cap);
    next[b + 1] = static_cast<std::uint32_t>(total);
  }
  SLIDE_CHECK(total <= std::numeric_limits<std::uint32_t>::max(),
              "HashTable: more than 2^32 stored ids");

  // Each bucket keeps its ids at the same positions from its new start.
  std::vector<Index> grown(static_cast<std::size_t>(total));
  for (std::size_t b = 0; b < buckets; ++b) {
    std::copy(ids_.begin() + offsets_[b], ids_.begin() + offsets_[b + 1],
              grown.begin() + next[b]);
  }
  offsets_.swap(next);
  ids_.swap(grown);
}

void HashTable::clear() {
  std::fill(offsets_.begin(), offsets_.end(), 0);
  std::fill(seen_.begin(), seen_.end(), 0);
  std::vector<Index>().swap(ids_);
}

std::size_t HashTable::occupied_buckets() const {
  std::size_t occupied = 0;
  for (std::uint32_t n : seen_) occupied += n > 0 ? 1 : 0;
  return occupied;
}

}  // namespace slide
