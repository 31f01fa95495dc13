// Checkpoint-boot equivalence: a serving store booted from a checkpoint
// (ModelStore::from_checkpoint_file, or publish_clone's in-memory
// checkpoint) builds its network without a random init or an index of its
// own, so the load's rebuild is its one index build. It must still hold,
// bucket for bucket, the tables the saving network holds after
// rebuild_all (or the same HNSW graph), and answer sampled and exact
// predict_topk identically — for Simhash and DWTA, monolithic and
// sharded, HNSW with its graph restored from the aux block, the exact
// retriever, and grown + tombstoned (v5) checkpoints.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/sharded_layer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/snapshot.h"

namespace slide {
namespace {

using retrieval::RetrieverKind;

SyntheticDataset tiny_data() {
  SyntheticConfig cfg;
  cfg.feature_dim = 96;
  cfg.label_dim = 64;
  cfg.num_train = 240;
  cfg.num_test = 40;
  cfg.features_per_label = 8;
  cfg.active_per_label = 5;
  cfg.seed = 417;
  return make_synthetic_xc(cfg);
}

struct BootCase {
  const char* name;
  HashFamilyKind family;
  RetrieverKind retriever;
  int shards;  // 0 = monolithic
  bool churn;  // grow by add_units and tombstone before saving (v5)
};

NetworkConfig case_config(const SyntheticDataset& data, const BootCase& c) {
  HashFamilyConfig family;
  family.kind = c.family;
  family.k = c.family == HashFamilyKind::kDwta ? 3 : 4;
  family.l = 10;
  NetworkBuilder b(data.train.feature_dim());
  b.dense(24).sampled(data.train.label_dim(), family, 12);
  b.table({.range_pow = 8, .bucket_size = 24});
  b.retriever(c.retriever);
  if (c.retriever == RetrieverKind::kHnsw)
    b.hnsw({.m = 6, .ef_construction = 32, .ef_search = 24});
  if (c.shards > 0) b.shards(c.shards);
  b.max_batch(16).seed(2024);
  return b.to_config();
}

/// The output layer's local SampledLayer shards (one for a monolithic
/// layer).
std::vector<const SampledLayer*> output_shards(const Network& net) {
  const Layer& out = net.stack(net.stack_depth() - 1);
  std::vector<const SampledLayer*> shards;
  if (const auto* sharded = dynamic_cast<const ShardedSampledLayer*>(&out)) {
    for (int s = 0; s < sharded->shards(); ++s)
      shards.push_back(dynamic_cast<const SampledLayer*>(&sharded->shard(s)));
  } else {
    shards.push_back(dynamic_cast<const SampledLayer*>(&out));
  }
  for (const SampledLayer* shard : shards) EXPECT_NE(shard, nullptr);
  return shards;
}

/// Every table of every shard holds the same ids in the same slots. Each
/// bucket a row's key addresses is compared, and the per-table stored
/// totals match, so no bucket outside those can hold anything either.
void expect_same_index(const Network& want, const Network& got,
                       const std::string& where) {
  const auto want_shards = output_shards(want);
  const auto got_shards = output_shards(got);
  ASSERT_EQ(want_shards.size(), got_shards.size()) << where;
  for (std::size_t s = 0; s < want_shards.size(); ++s) {
    const SampledLayer& a = *want_shards[s];
    const SampledLayer& b = *got_shards[s];
    ASSERT_EQ(a.units(), b.units()) << where;
    const auto wa = a.weights_span();
    const auto wb = b.weights_span();
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        << where << ": shard " << s << " weights differ";
    EXPECT_EQ(a.retired_unit_ids(), b.retired_unit_ids()) << where;
    if (a.tables() != nullptr) {
      ASSERT_NE(b.tables(), nullptr) << where;
      const MaintainedTables& ta = *a.tables();
      const MaintainedTables& tb = *b.tables();
      const int l = ta.family().l();
      for (int t = 0; t < l; ++t) {
        ASSERT_GT(ta.table(t).total_stored(), 0u) << where;
        EXPECT_EQ(ta.table(t).total_stored(), tb.table(t).total_stored())
            << where << ": shard " << s << " table " << t;
      }
      std::vector<std::uint32_t> keys(static_cast<std::size_t>(l));
      for (Index u = 0; u < a.units(); ++u) {
        ta.family().hash_dense(a.weight_row(u), keys);
        for (int t = 0; t < l; ++t) {
          const auto ba = ta.table(t).bucket(keys[static_cast<std::size_t>(t)]);
          const auto bb = tb.table(t).bucket(keys[static_cast<std::size_t>(t)]);
          ASSERT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin(), bb.end()))
              << where << ": shard " << s << " table " << t << " unit " << u;
        }
      }
    } else {
      // HNSW and exact: the serialized index (the graph; empty for exact).
      std::ostringstream ga(std::ios::binary);
      std::ostringstream gb(std::ios::binary);
      a.save_retriever_state(ga);
      b.save_retriever_state(gb);
      EXPECT_EQ(ga.str(), gb.str()) << where << ": shard " << s;
      if (a.retriever_kind() == RetrieverKind::kHnsw) {
        EXPECT_FALSE(ga.str().empty()) << where;
      }
    }
  }
}

void expect_same_predictions(const Network& want, const Network& got,
                             const Dataset& test, const std::string& where,
                             bool exact_only = false) {
  InferenceContext cw(want, 99);
  InferenceContext cg(got, 99);
  for (std::size_t i = 0; i < test.size(); ++i) {
    for (bool exact : {false, true}) {
      if (exact_only && !exact) continue;
      EXPECT_EQ(want.predict_topk(test[i].features, cw, 5, exact),
                got.predict_topk(test[i].features, cg, 5, exact))
          << where << ": sample " << i << (exact ? " exact" : " sampled");
    }
  }
}

class BootEquivalence : public ::testing::TestWithParam<BootCase> {};

TEST_P(BootEquivalence, BootedStoreMatchesSavingNetworkAfterRebuildAll) {
  const BootCase& c = GetParam();
  const auto data = tiny_data();
  const NetworkConfig cfg = case_config(data, c);
  Network src(cfg, 2);
  TrainerConfig tcfg;
  tcfg.batch_size = 16;
  tcfg.num_threads = 2;
  tcfg.learning_rate = 1e-2f;
  {
    Trainer trainer(src, tcfg);
    trainer.train(data.train, 30);
  }
  if (c.churn) {
    src.add_output_units(7);
    src.retire_output_units(std::vector<Index>{2, 19, 66});
    Trainer trainer(src, tcfg);
    trainer.train(data.train, 5);
  }
  src.rebuild_all(nullptr);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);
  const std::string bytes = buffer.str();
  const std::string path = ::testing::TempDir() + "slide_boot_" + c.name +
                           ".slide";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Boot from the file with the ORIGINAL config: a churned checkpoint
  // re-grows the layer during the load.
  auto booted = ModelStore::from_checkpoint_file(cfg, path,
                                                 /*rebuild_threads=*/2);
  const Network& from_file = *booted->current()->network;
  EXPECT_EQ(from_file.output_dim(), src.output_dim());
  expect_same_index(src, from_file, std::string(c.name) + " file");
  expect_same_predictions(src, from_file, data.test,
                          std::string(c.name) + " file");

  // publish_clone builds from the trainer's live (grown) config. A grown
  // sharded layer is then split evenly instead of growing its last shard,
  // so its shards index different row ranges than the trainer's and only
  // the exact answers can match.
  publish_clone(*booted, src, /*rebuild_threads=*/1);
  const Network& cloned = *booted->current()->network;
  const bool same_partition = !(c.churn && c.shards > 1);
  if (same_partition)
    expect_same_index(src, cloned, std::string(c.name) + " clone");
  expect_same_predictions(src, cloned, data.test,
                          std::string(c.name) + " clone",
                          /*exact_only=*/!same_partition);

  // A truncated file still throws on the checkpoint-boot path, and a
  // failed reload leaves the published snapshot in place.
  const std::string cut = path + ".cut";
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  }
  EXPECT_THROW(ModelStore::from_checkpoint_file(cfg, cut, 2), Error);
  const std::uint64_t version = booted->version();
  EXPECT_THROW(booted->load_checkpoint_file(cfg, cut, 2), Error);
  EXPECT_EQ(booted->version(), version);
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BootEquivalence,
    ::testing::Values(
        BootCase{"simhash_s1", HashFamilyKind::kSimhash, RetrieverKind::kLsh,
                 1, false},
        BootCase{"dwta_s4", HashFamilyKind::kDwta, RetrieverKind::kLsh, 4,
                 false},
        BootCase{"hnsw", HashFamilyKind::kSimhash, RetrieverKind::kHnsw, 0,
                 false},
        BootCase{"hnsw_churned", HashFamilyKind::kSimhash,
                 RetrieverKind::kHnsw, 0, true},
        BootCase{"exact", HashFamilyKind::kSimhash, RetrieverKind::kExact, 0,
                 false},
        BootCase{"simhash_churned_v5", HashFamilyKind::kSimhash,
                 RetrieverKind::kLsh, 0, true},
        BootCase{"dwta_s2_churned_v5", HashFamilyKind::kDwta,
                 RetrieverKind::kLsh, 2, true}),
    [](const ::testing::TestParamInfo<BootCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace slide
