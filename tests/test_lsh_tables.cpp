// Hash-table and table-group tests: bucket addressing, both replacement
// policies (including the reservoir's equal-retention property), the
// compact layout against a fixed-slot reference, parallel builds, and
// retrieval quality of the full (K, L) structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "lsh/factory.h"
#include "lsh/hash_table.h"
#include "lsh/table_group.h"
#include "sys/rng.h"

namespace slide {
namespace {

/// A one-id batch through the table's batched insert.
void insert_one(HashTable& table, std::uint32_t key, Index id, Rng& rng) {
  table.insert({&key, 1}, {&id, 1}, rng);
}

TEST(HashTable, InsertThenQueryReturnsId) {
  HashTable table({.range_pow = 8, .bucket_size = 16});
  Rng rng(1);
  insert_one(table, /*key=*/12345u, /*id=*/7, rng);
  const auto bucket = table.bucket(12345u);
  ASSERT_EQ(bucket.size(), 1u);
  EXPECT_EQ(bucket[0], 7u);
}

TEST(HashTable, DistinctKeysUsuallyLandInDistinctBuckets) {
  HashTable table({.range_pow = 12, .bucket_size = 4});
  Rng rng(2);
  for (Index id = 0; id < 64; ++id) insert_one(table, id * 2'654'435'761u, id, rng);
  EXPECT_GT(table.occupied_buckets(), 48u);  // few aliases at 4096 buckets
}

TEST(HashTable, BucketNeverExceedsCapacity) {
  HashTable table({.range_pow = 4, .bucket_size = 8,
                   .policy = InsertionPolicy::kReservoir});
  Rng rng(3);
  for (Index id = 0; id < 1'000; ++id) insert_one(table, 42u, id, rng);
  EXPECT_EQ(table.bucket(42u).size(), 8u);
  EXPECT_EQ(table.total_stored(), 8u);
}

TEST(HashTable, FifoKeepsTheNewestEntries) {
  HashTable table({.range_pow = 4, .bucket_size = 4,
                   .policy = InsertionPolicy::kFifo});
  Rng rng(4);
  for (Index id = 0; id < 10; ++id) insert_one(table, 7u, id, rng);
  const auto bucket = table.bucket(7u);
  std::set<Index> got(bucket.begin(), bucket.end());
  // Ring overwrite: ids 6..9 survive.
  EXPECT_EQ(got, (std::set<Index>{6, 7, 8, 9}));
}

TEST(HashTable, ReservoirRetainsItemsUniformly) {
  // Vitter's property: after inserting N items into capacity C, every item
  // survives with probability C/N. Check per-item retention across trials.
  constexpr int kTrials = 2'000;
  constexpr Index kItems = 20;
  constexpr int kCap = 5;
  std::vector<int> survived(kItems, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    HashTable table({.range_pow = 2, .bucket_size = kCap,
                     .policy = InsertionPolicy::kReservoir});
    Rng rng(static_cast<std::uint64_t>(trial) + 10);
    for (Index id = 0; id < kItems; ++id) insert_one(table, 0u, id, rng);
    for (Index id : table.bucket(0u)) ++survived[id];
  }
  const double expected = static_cast<double>(kCap) / kItems;
  for (Index id = 0; id < kItems; ++id) {
    const double rate = static_cast<double>(survived[id]) / kTrials;
    EXPECT_NEAR(rate, expected, 0.04) << "id=" << id;
  }
}

TEST(HashTable, ClearEmptiesEverything) {
  HashTable table({.range_pow = 6, .bucket_size = 8});
  Rng rng(5);
  for (Index id = 0; id < 100; ++id) insert_one(table, id * 77u, id, rng);
  table.clear();
  EXPECT_EQ(table.total_stored(), 0u);
  EXPECT_EQ(table.occupied_buckets(), 0u);
}

TEST(HashTable, RejectsBadConfig) {
  EXPECT_THROW(HashTable({.range_pow = 0}), Error);
  EXPECT_THROW(HashTable({.range_pow = 29}), Error);
  EXPECT_THROW(HashTable({.range_pow = 8, .bucket_size = 0}), Error);
}

class PolicyParam : public ::testing::TestWithParam<InsertionPolicy> {};

TEST_P(PolicyParam, OverflowKeepsExactlyCapacityEntriesFromTheStream) {
  HashTable table({.range_pow = 3, .bucket_size = 16, .policy = GetParam()});
  Rng rng(6);
  for (Index id = 0; id < 500; ++id) insert_one(table, 99u, id, rng);
  const auto bucket = table.bucket(99u);
  EXPECT_EQ(bucket.size(), 16u);
  std::set<Index> unique(bucket.begin(), bucket.end());
  EXPECT_EQ(unique.size(), 16u);  // all distinct
  for (Index id : bucket) EXPECT_LT(id, 500u);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyParam,
                         ::testing::Values(InsertionPolicy::kReservoir,
                                           InsertionPolicy::kFifo));

// ---------------------------------------------------------------------------
// LshTableGroup
// ---------------------------------------------------------------------------

std::unique_ptr<HashFamily> simhash_family(int k, int l, Index dim,
                                           std::uint64_t seed = 31) {
  HashFamilyConfig cfg;
  cfg.kind = HashFamilyKind::kSimhash;
  cfg.k = k;
  cfg.l = l;
  cfg.dim = dim;
  cfg.seed = seed;
  return make_hash_family(cfg);
}

/// Rows: `count` unit vectors, row i = normalized random vector.
std::vector<float> random_rows(Index count, Index dim, Rng& rng) {
  std::vector<float> rows(static_cast<std::size_t>(count) * dim);
  for (Index r = 0; r < count; ++r) {
    float norm = 0.0f;
    float* row = rows.data() + static_cast<std::size_t>(r) * dim;
    for (Index d = 0; d < dim; ++d) {
      row[d] = rng.normal();
      norm += row[d] * row[d];
    }
    norm = std::sqrt(norm);
    for (Index d = 0; d < dim; ++d) row[d] /= norm;
  }
  return rows;
}

TEST(TableGroup, BuildAndQueryRetrievesSelf) {
  const Index n = 200, dim = 32;
  Rng rng(7);
  const auto rows = random_rows(n, dim, rng);
  LshTableGroup group(simhash_family(4, 16, dim),
                      {.range_pow = 10, .bucket_size = 32});
  group.build_from_rows(rows.data(), dim, n);

  // Querying with a stored vector must find its own id in some bucket.
  int self_hits = 0;
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(group.l()));
  std::vector<std::span<const Index>> buckets;
  for (Index i = 0; i < 50; ++i) {
    group.query_keys_dense(rows.data() + static_cast<std::size_t>(i) * dim,
                           keys);
    group.buckets(keys, buckets);
    bool found = false;
    for (const auto& b : buckets)
      if (std::find(b.begin(), b.end(), i) != b.end()) found = true;
    self_hits += found ? 1 : 0;
  }
  EXPECT_EQ(self_hits, 50);
}

TEST(TableGroup, ParallelBuildMatchesSerialContentApproximately) {
  // K=6 gives 64 addressable fingerprints, so no bucket exceeds the
  // capacity of 64 and both builds must store every insert.
  const Index n = 500, dim = 16;
  Rng rng(8);
  const auto rows = random_rows(n, dim, rng);
  LshTableGroup serial(simhash_family(6, 8, dim),
                       {.range_pow = 9, .bucket_size = 64});
  serial.build_from_rows(rows.data(), dim, n);

  ThreadPool pool(4);
  LshTableGroup parallel(simhash_family(6, 8, dim),
                         {.range_pow = 9, .bucket_size = 64});
  parallel.build_from_rows(rows.data(), dim, n, &pool);

  // Same hash family seeds -> same buckets addressed; contents may be
  // ordered differently but totals must match when no bucket overflows.
  std::size_t serial_total = 0, parallel_total = 0;
  for (int t = 0; t < serial.l(); ++t) {
    serial_total += serial.table(t).total_stored();
    parallel_total += parallel.table(t).total_stored();
  }
  EXPECT_EQ(serial_total, parallel_total);
  EXPECT_EQ(serial_total, static_cast<std::size_t>(n) * serial.l());
}

TEST(TableGroup, NearbyVectorRetrievesNeighborMoreThanRandom) {
  const Index n = 400, dim = 64;
  Rng rng(9);
  auto rows = random_rows(n, dim, rng);
  LshTableGroup group(simhash_family(6, 30, dim),
                      {.range_pow = 11, .bucket_size = 32});
  group.build_from_rows(rows.data(), dim, n);

  std::vector<std::uint32_t> keys(static_cast<std::size_t>(group.l()));
  std::vector<std::span<const Index>> buckets;
  int neighbor_hits = 0, random_hits = 0;
  for (Index trial = 0; trial < 40; ++trial) {
    const Index target = trial * 10 % n;
    // Query = slightly perturbed copy of the target row.
    std::vector<float> q(rows.begin() + static_cast<std::ptrdiff_t>(target) * dim,
                         rows.begin() + static_cast<std::ptrdiff_t>(target + 1) * dim);
    for (auto& v : q) v += 0.05f * rng.normal();
    group.query_keys_dense(q.data(), keys);
    group.buckets(keys, buckets);
    const Index random_id = rng.uniform(n);
    for (const auto& b : buckets) {
      if (std::find(b.begin(), b.end(), target) != b.end()) {
        ++neighbor_hits;
        break;
      }
    }
    for (const auto& b : buckets) {
      if (std::find(b.begin(), b.end(), random_id) != b.end()) {
        ++random_hits;
        break;
      }
    }
  }
  EXPECT_GT(neighbor_hits, random_hits + 10);
}

TEST(TableGroup, ClearThenRebuildRestoresContent) {
  const Index n = 100, dim = 16;
  Rng rng(10);
  const auto rows = random_rows(n, dim, rng);
  LshTableGroup group(simhash_family(3, 6, dim),
                      {.range_pow = 8, .bucket_size = 32});
  group.build_from_rows(rows.data(), dim, n);
  group.clear();
  std::size_t total = 0;
  for (int t = 0; t < group.l(); ++t) total += group.table(t).total_stored();
  EXPECT_EQ(total, 0u);
  group.build_from_rows(rows.data(), dim, n);
  for (int t = 0; t < group.l(); ++t)
    EXPECT_EQ(group.table(t).total_stored(), n);
}

TEST(TableGroup, MemoryAccountingIsExactCsr) {
  LshTableGroup group(simhash_family(3, 10, 16),
                      {.range_pow = 8, .bucket_size = 16});
  // Empty: 10 tables x (257 offsets + 256 seen counters) x 4B, no ids.
  const std::size_t empty = 10u * (257u + 256u) * 4u;
  EXPECT_EQ(group.memory_bytes(), empty);

  auto stored_ids = [&] {
    std::size_t total = 0;
    for (int t = 0; t < group.l(); ++t) total += group.table(t).total_stored();
    return total;
  };
  Rng rng(11);
  const auto few = random_rows(5, 16, rng);
  group.build_from_rows(few.data(), 16, 5);
  EXPECT_EQ(stored_ids(), 50u);
  EXPECT_EQ(group.memory_bytes(), empty + 50u * sizeof(Index));

  // K=3 addresses at most 8 buckets per table, so 400 rows fill at most
  // 8 x 16 ids per table: the footprint follows the stored ids.
  const auto many = random_rows(400, 16, rng);
  group.build_from_rows(many.data(), 16, 400);
  const std::size_t stored = stored_ids();
  EXPECT_GT(stored, 50u);
  EXPECT_LE(stored, 10u * 8u * 16u);
  EXPECT_EQ(group.memory_bytes(), empty + stored * sizeof(Index));

  group.clear();
  EXPECT_EQ(group.memory_bytes(), empty);
}

// ---------------------------------------------------------------------------
// Differential: the compact layout against a fixed-slot reference
// ---------------------------------------------------------------------------

/// The layout the compact table must reproduce: 2^range_pow buckets of
/// bucket_size preallocated slots, one insert at a time.
class FixedSlotTable {
 public:
  explicit FixedSlotTable(const HashTable::Config& config)
      : config_(config),
        shift_(32u - static_cast<unsigned>(config.range_pow)),
        slots_((std::size_t{1} << config.range_pow) *
               static_cast<std::size_t>(config.bucket_size)),
        seen_(std::size_t{1} << config.range_pow, 0) {}

  void insert(std::uint32_t key, Index id, Rng& rng) {
    const std::uint32_t b = bucket_of(key);
    const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
    Index* slots = slots_.data() + static_cast<std::size_t>(b) * cap;
    const std::uint32_t n = seen_[b]++;
    if (n < cap) {
      slots[n] = id;
    } else if (config_.policy == InsertionPolicy::kReservoir) {
      const std::uint32_t j = rng.uniform(n + 1);
      if (j < cap) slots[j] = id;
    } else {
      slots[n % cap] = id;
    }
  }

  std::vector<Index> bucket(std::uint32_t key) const {
    const std::uint32_t b = bucket_of(key);
    const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
    const Index* slots = slots_.data() + static_cast<std::size_t>(b) * cap;
    return {slots, slots + std::min(seen_[b], cap)};
  }

  void clear() { std::fill(seen_.begin(), seen_.end(), 0u); }

 private:
  std::uint32_t bucket_of(std::uint32_t key) const {
    return (key * 2654435761u) >> shift_;
  }

  HashTable::Config config_;
  unsigned shift_;
  std::vector<Index> slots_;
  std::vector<std::uint32_t> seen_;
};

std::vector<Index> contents(std::span<const Index> bucket) {
  return {bucket.begin(), bucket.end()};
}

struct DifferentialCase {
  InsertionPolicy policy;
  int bucket_size;
};

class CompactVsFixed : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(CompactVsFixed, MatchesFixedSlotsPositionByPosition) {
  const HashTable::Config config{.range_pow = 4,
                                 .bucket_size = GetParam().bucket_size,
                                 .policy = GetParam().policy};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    HashTable table(config);
    FixedSlotTable reference(config);
    Rng stream(seed);  // drives the test's choices
    Rng table_rng(seed + 100), reference_rng(seed + 100);
    // A small key pool over 16 buckets: buckets overflow even at 128.
    std::vector<std::uint32_t> pool(24);
    for (auto& key : pool) key = static_cast<std::uint32_t>(stream());
    Index next_id = 0;
    bool relaid_out_after_build = false;

    auto insert_batch = [&](std::size_t n, std::size_t keys_used) {
      std::vector<std::uint32_t> keys(n);
      std::vector<Index> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = pool[stream.uniform(static_cast<std::uint32_t>(keys_used))];
        ids[i] = next_id++;
        reference.insert(keys[i], ids[i], reference_rng);
      }
      const std::size_t before = table.total_stored();
      table.insert(keys, ids, table_rng);
      if (table.total_stored() > before && before > 0)
        relaid_out_after_build = true;
    };
    auto check = [&](int step) {
      std::size_t total = 0;
      for (std::uint32_t b = 0; b < 16; ++b) {
        // 244002641 inverts the table's multiplicative mix mod 2^32, so
        // this key addresses bucket b: every bucket is compared.
        const std::uint32_t key = (b << 28) * 244'002'641u;
        total += table.bucket(key).size();
        ASSERT_EQ(contents(table.bucket(key)), reference.bucket(key))
            << "seed " << seed << " step " << step << " bucket " << b;
      }
      ASSERT_EQ(total, table.total_stored());
    };

    // A build-sized first batch over half the keys, then a stream of small
    // batches that reach the other half (growing fresh buckets, i.e. a
    // re-layout), with a clear() in the middle.
    insert_batch(300, pool.size() / 2);
    check(0);
    for (int step = 1; step <= 60; ++step) {
      if (step == 30) {
        table.clear();
        reference.clear();
        EXPECT_EQ(table.total_stored(), 0u);
      }
      insert_batch(1 + stream.uniform(40), pool.size());
      check(step);
    }
    EXPECT_TRUE(relaid_out_after_build) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, CompactVsFixed,
    ::testing::Values(DifferentialCase{InsertionPolicy::kReservoir, 1},
                      DifferentialCase{InsertionPolicy::kReservoir, 4},
                      DifferentialCase{InsertionPolicy::kReservoir, 128},
                      DifferentialCase{InsertionPolicy::kFifo, 1},
                      DifferentialCase{InsertionPolicy::kFifo, 4},
                      DifferentialCase{InsertionPolicy::kFifo, 128}),
    [](const auto& info) {
      return std::string(info.param.policy == InsertionPolicy::kReservoir
                             ? "Reservoir"
                             : "Fifo") +
             std::to_string(info.param.bucket_size);
    });

TEST(TableGroup, PooledBuildsEqualTheSerialBuildAndTheFixedSlotReplay) {
  // K=3 gives 8 fingerprints per table: with 600 rows and 16-id buckets
  // the reservoir overflows on every table.
  const Index n = 600, dim = 16;
  const int l = 6;
  const HashTable::Config config{.range_pow = 6, .bucket_size = 16};
  Rng rng(12);
  const auto rows = random_rows(n, dim, rng);
  auto family = std::shared_ptr<const HashFamily>(simhash_family(3, l, dim));

  std::vector<std::uint32_t> keys(static_cast<std::size_t>(n) * l);
  for (Index i = 0; i < n; ++i)
    family->hash_dense(rows.data() + static_cast<std::size_t>(i) * dim,
                       {keys.data() + static_cast<std::size_t>(i) * l,
                        static_cast<std::size_t>(l)});
  // The fixed-slot replay: id-major, table-minor, one Rng(seed).
  std::vector<FixedSlotTable> reference(static_cast<std::size_t>(l),
                                        FixedSlotTable(config));
  Rng replay(23);
  for (Index i = 0; i < n; ++i)
    for (int t = 0; t < l; ++t)
      reference[static_cast<std::size_t>(t)].insert(
          keys[static_cast<std::size_t>(i) * l + static_cast<std::size_t>(t)],
          i, replay);

  auto expect_equal_to_reference = [&](const LshTableGroup& group,
                                       const char* what) {
    for (Index i = 0; i < n; ++i) {
      for (int t = 0; t < l; ++t) {
        const std::uint32_t key =
            keys[static_cast<std::size_t>(i) * l + static_cast<std::size_t>(t)];
        ASSERT_EQ(contents(group.table(t).bucket(key)),
                  reference[static_cast<std::size_t>(t)].bucket(key))
            << what << ": row " << i << " table " << t;
      }
    }
  };

  LshTableGroup serial(family, config, /*seed=*/23);
  serial.build_from_rows(rows.data(), dim, n);
  expect_equal_to_reference(serial, "serial");
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    LshTableGroup pooled(family, config, /*seed=*/23);
    pooled.build_from_rows(rows.data(), dim, n, &pool);
    expect_equal_to_reference(pooled, "pooled");
    for (int t = 0; t < l; ++t)
      EXPECT_EQ(pooled.table(t).total_stored(),
                serial.table(t).total_stored());
  }

  // A post-build batch (ids re-inserted under their own keys) through the
  // group's batched insert equals the same inserts replayed one at a time.
  std::vector<Index> batch_ids = {5, 17, 42, 99, 311};
  std::vector<std::uint32_t> batch_keys;
  for (Index id : batch_ids)
    batch_keys.insert(batch_keys.end(),
                      keys.begin() + static_cast<std::ptrdiff_t>(id) * l,
                      keys.begin() + static_cast<std::ptrdiff_t>(id + 1) * l);
  Rng group_rng(99), reference_rng(99);
  serial.insert(batch_ids, batch_keys, group_rng);
  for (std::size_t i = 0; i < batch_ids.size(); ++i)
    for (int t = 0; t < l; ++t)
      reference[static_cast<std::size_t>(t)].insert(
          batch_keys[i * l + static_cast<std::size_t>(t)], batch_ids[i],
          reference_rng);
  expect_equal_to_reference(serial, "after batch");
}

}  // namespace
}  // namespace slide
