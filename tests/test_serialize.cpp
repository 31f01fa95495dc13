// Checkpointing tests: round-trip fidelity for both network kinds,
// architecture validation, corruption rejection, and table rebuild after
// load.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

SyntheticDataset tiny_data() {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 60;
  cfg.num_train = 400;
  cfg.num_test = 100;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.seed = 91;
  return make_synthetic_xc(cfg);
}

NetworkConfig net_config(const SyntheticDataset& data,
                         std::uint64_t seed = 123) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 10;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family, 16,
                                         8);
  cfg.max_batch_size = 16;
  cfg.layers[0].table.range_pow = 8;
  cfg.seed = seed;
  return cfg;
}

void train_a_bit(Network& net, const Dataset& train, int iters = 40) {
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(train, iters);
}

TEST(Serialize, NetworkRoundTripPreservesAllParameters) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train);

  std::stringstream buffer;
  save_weights(trained, buffer);

  // Different seed -> different initial weights; load must overwrite all.
  Network restored(net_config(data, 999), 2);
  load_weights(restored, buffer);

  const auto tw = trained.embedding().weights_span();
  const auto rw = restored.embedding().weights_span();
  ASSERT_EQ(tw.size(), rw.size());
  for (std::size_t i = 0; i < tw.size(); ++i) ASSERT_EQ(tw[i], rw[i]);
  const auto tow = trained.output_layer().weights_span();
  const auto row = restored.output_layer().weights_span();
  for (std::size_t i = 0; i < tow.size(); ++i) ASSERT_EQ(tow[i], row[i]);
  for (Index u = 0; u < trained.output_layer().units(); ++u)
    ASSERT_EQ(trained.output_layer().bias(u), restored.output_layer().bias(u));
}

TEST(Serialize, RestoredNetworkPredictsIdentically) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train);
  std::stringstream buffer;
  save_weights(trained, buffer);
  Network restored(net_config(data, 999), 2);
  load_weights(restored, buffer);

  InferenceContext ca(trained.max_sampled_units());
  InferenceContext cb(restored.max_sampled_units());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(trained.predict_top1(data.test[i].features, ca, true),
              restored.predict_top1(data.test[i].features, cb, true))
        << i;
  }
  // Sampled inference works too (tables were rebuilt on load).
  ThreadPool pool(2);
  const double acc = evaluate_p_at_1(restored, data.test, pool, {});
  EXPECT_GE(acc, 0.0);
}

TEST(Serialize, FileRoundTrip) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train, 10);
  const std::string path = "/tmp/slide_test_checkpoint.bin";
  save_weights_file(trained, path);
  Network restored(net_config(data, 7), 2);
  ThreadPool pool(2);
  load_weights_file(restored, path, &pool);
  EXPECT_EQ(trained.embedding().weights_span()[0],
            restored.embedding().weights_span()[0]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  std::stringstream buffer;
  save_weights(trained, buffer);

  // Wider hidden layer.
  NetworkConfig other = net_config(data);
  other.hidden_units = 16;
  Network wrong(other, 2);
  EXPECT_THROW(load_weights(wrong, buffer), Error);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  {
    std::stringstream buffer("this is not a checkpoint at all");
    EXPECT_THROW(load_weights(net, buffer), Error);
  }
  {
    std::stringstream buffer;
    save_weights(net, buffer);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);  // truncate
    std::stringstream half(bytes);
    EXPECT_THROW(load_weights(net, half), Error);
  }
}

TEST(Serialize, WritesVersion5WithPrecisionTagAndRejectsFutureVersions) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(net, buffer);
  std::string bytes = buffer.str();

  // Header words: magic, version, kind, input_dim, hidden, num_layers, tag.
  std::uint32_t version = 0, tag = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&tag, bytes.data() + 24, 4);
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(tag, static_cast<std::uint32_t>(Precision::kFP32));

  // A version from the future must be rejected, not misparsed.
  const std::uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, 4);
  std::stringstream tampered(bytes);
  EXPECT_THROW(load_weights(net, tampered), Error);
}

/// The dense full-softmax baseline: a builder dense stack.
Network dense_network(const SyntheticDataset& data, std::uint64_t seed,
                      int depth = 1) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(8);
  for (int i = 1; i < depth; ++i) b.dense(8);
  return b.dense(data.train.label_dim(), Activation::kSoftmax)
      .max_batch(16)
      .seed(seed)
      .build(2);
}

TEST(Serialize, DenseNetworkRoundTrip) {
  const auto data = tiny_data();
  Network a = dense_network(data, 321);
  a.set_use_locks(true);
  train_a_bit(a, data.train, 20);

  std::stringstream buffer;
  save_weights(a, buffer);
  Network b = dense_network(data, 777);
  load_weights(b, buffer);

  InferenceContext ca(a), cb(b);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.predict_top1(data.test[i].features, ca, true),
              b.predict_top1(data.test[i].features, cb, true));
  }
}

TEST(Serialize, KindMismatchRejected) {
  const auto data = tiny_data();
  Network slide_net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(slide_net, buffer);
  const std::string bytes = buffer.str();

  // An unknown kind word (offset 8, after magic and version) is rejected.
  std::string unknown = bytes;
  const std::uint32_t bad_kind = 2;
  std::memcpy(unknown.data() + 8, &bad_kind, 4);
  std::stringstream unknown_in(unknown);
  Network same_shape(net_config(data), 1);
  EXPECT_THROW(load_weights(same_shape, unknown_in), Error);

  // Kind 1 (the legacy dense baseline) only loads into a single-layer stack.
  std::string legacy = bytes;
  const std::uint32_t dense_kind = 1;
  std::memcpy(legacy.data() + 8, &dense_kind, 4);
  std::stringstream legacy_in(legacy);
  Network deeper = dense_network(data, 5, /*depth=*/2);
  EXPECT_THROW(load_weights(deeper, legacy_in), Error);
}

TEST(Serialize, IncrementalMemoInvalidatedOnLoad) {
  // A network with incremental rehash must re-project after a load; the
  // sampled predictions of two identically-loaded networks must agree.
  const auto data = tiny_data();
  NetworkConfig cfg = net_config(data);
  cfg.layers[0].incremental_rehash = true;
  Network trained(cfg, 2);
  train_a_bit(trained, data.train, 20);
  std::stringstream buffer;
  save_weights(trained, buffer);

  Network restored(cfg, 2);
  load_weights(restored, buffer);
  InferenceContext ca(trained.max_sampled_units(), 5);
  InferenceContext cb(restored.max_sampled_units(), 5);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(trained.predict_top1(data.test[i].features, ca, true),
              restored.predict_top1(data.test[i].features, cb, true));
  }
}

}  // namespace
}  // namespace slide
