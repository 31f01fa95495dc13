// Hash-family tests: the LSH property (collision probability increases with
// similarity) for every family, dense/sparse path agreement, incremental
// Simhash updates, DWTA densification, DOPH binarization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "lsh/collision.h"
#include "lsh/doph.h"
#include "lsh/dwta.h"
#include "lsh/factory.h"
#include "lsh/simhash.h"
#include "lsh/wta.h"
#include "sys/rng.h"

namespace slide {
namespace {

std::vector<float> random_unit(Index dim, Rng& rng) {
  std::vector<float> v(dim);
  float norm = 0.0f;
  for (auto& x : v) {
    x = rng.normal();
    norm += x * x;
  }
  norm = std::sqrt(norm);
  for (auto& x : v) x /= norm;
  return v;
}

/// y = cos*x + sin*noise, unit-normalized: controls cosine similarity to x.
std::vector<float> perturb(const std::vector<float>& x, float cosine,
                           Rng& rng) {
  auto noise = random_unit(static_cast<Index>(x.size()), rng);
  const float s = std::sqrt(std::max(0.0f, 1.0f - cosine * cosine));
  std::vector<float> y(x.size());
  float norm = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = cosine * x[i] + s * noise[i];
    norm += y[i] * y[i];
  }
  norm = std::sqrt(norm);
  for (auto& v : y) v /= norm;
  return y;
}

/// Fraction of per-table key matches between two inputs (empirical p^K).
template <typename Family>
double key_match_rate(const Family& family, const float* a, const float* b) {
  std::vector<std::uint32_t> ka(family.l()), kb(family.l());
  family.hash_dense(a, ka);
  family.hash_dense(b, kb);
  int match = 0;
  for (int t = 0; t < family.l(); ++t) match += ka[t] == kb[t] ? 1 : 0;
  return static_cast<double>(match) / family.l();
}

// ---------------------------------------------------------------------------
// Simhash
// ---------------------------------------------------------------------------

TEST(Simhash, IdenticalInputsAlwaysCollide) {
  Simhash h({.k = 4, .l = 20, .dim = 64, .density = 1.0 / 3.0, .seed = 1});
  Rng rng(2);
  const auto x = random_unit(64, rng);
  EXPECT_DOUBLE_EQ(key_match_rate(h, x.data(), x.data()), 1.0);
}

TEST(Simhash, CollisionRateIncreasesWithCosine) {
  Simhash h({.k = 2, .l = 200, .dim = 128, .density = 1.0 / 3.0, .seed = 3});
  Rng rng(4);
  double rate_low = 0.0, rate_mid = 0.0, rate_high = 0.0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const auto x = random_unit(128, rng);
    rate_low += key_match_rate(h, x.data(), perturb(x, 0.1f, rng).data());
    rate_mid += key_match_rate(h, x.data(), perturb(x, 0.6f, rng).data());
    rate_high += key_match_rate(h, x.data(), perturb(x, 0.95f, rng).data());
  }
  EXPECT_LT(rate_low, rate_mid);
  EXPECT_LT(rate_mid, rate_high);
}

TEST(Simhash, EmpiricalCollisionTracksTheory) {
  // For K=1 the per-table match rate should approximate
  // p = 1 - acos(cos)/pi (fingerprint mixing preserves equality).
  Simhash h({.k = 1, .l = 2000, .dim = 256, .density = 1.0, .seed = 5});
  Rng rng(6);
  for (float cosine : {0.3f, 0.7f, 0.9f}) {
    double rate = 0.0;
    const int trials = 10;
    for (int i = 0; i < trials; ++i) {
      const auto x = random_unit(256, rng);
      const auto y = perturb(x, cosine, rng);
      rate += key_match_rate(h, x.data(), y.data());
    }
    rate /= trials;
    EXPECT_NEAR(rate, simhash_collision_probability(cosine), 0.06)
        << "cosine=" << cosine;
  }
}

TEST(Simhash, SparseAndDensePathsAgree) {
  Simhash h({.k = 6, .l = 25, .dim = 300, .density = 1.0 / 3.0, .seed = 7});
  Rng rng(8);
  std::vector<Index> idx;
  std::vector<float> val;
  std::vector<float> dense(300, 0.0f);
  for (int i = 0; i < 20; ++i) {
    const Index d = rng.uniform(300);
    if (dense[d] != 0.0f) continue;
    dense[d] = rng.normal();
    idx.push_back(d);
    val.push_back(dense[d]);
  }
  std::vector<std::uint32_t> kd(h.l()), ks(h.l());
  h.hash_dense(dense.data(), kd);
  h.hash_sparse(idx.data(), val.data(), idx.size(), ks);
  EXPECT_EQ(kd, ks);
}

TEST(Simhash, IncrementalProjectionUpdateMatchesRecompute) {
  Simhash h({.k = 5, .l = 10, .dim = 64, .density = 1.0 / 3.0, .seed = 9});
  Rng rng(10);
  auto x = random_unit(64, rng);
  std::vector<float> dots(static_cast<std::size_t>(h.num_projections()));
  h.project_dense(x.data(), dots.data());

  // Apply 7 coordinate deltas through the incremental path.
  for (int step = 0; step < 7; ++step) {
    const Index d = rng.uniform(64);
    const float delta = rng.normal() * 0.1f;
    x[d] += delta;
    h.update_projections(d, delta, dots.data());
  }
  std::vector<float> fresh(dots.size());
  h.project_dense(x.data(), fresh.data());
  for (std::size_t p = 0; p < dots.size(); ++p)
    ASSERT_NEAR(dots[p], fresh[p], 1e-4f) << p;

  std::vector<std::uint32_t> ka(h.l()), kb(h.l());
  h.keys_from_projections(dots.data(), ka);
  h.keys_from_projections(fresh.data(), kb);
  EXPECT_EQ(ka, kb);
}

TEST(Simhash, ProjectionsAreSparseAtRequestedDensity) {
  Simhash h({.k = 4, .l = 10, .dim = 900, .density = 1.0 / 3.0, .seed = 11});
  double total = 0.0;
  for (int p = 0; p < h.num_projections(); ++p)
    total += static_cast<double>(h.projection_indices(p).size());
  const double avg = total / h.num_projections();
  EXPECT_NEAR(avg / 900.0, 1.0 / 3.0, 0.02);
}

TEST(Simhash, RejectsBadConfig) {
  EXPECT_THROW(Simhash({.k = 0, .l = 10, .dim = 10}), Error);
  EXPECT_THROW(Simhash({.k = 4, .l = 0, .dim = 10}), Error);
  EXPECT_THROW(Simhash({.k = 4, .l = 10, .dim = 0}), Error);
  EXPECT_THROW(Simhash({.k = 4, .l = 10, .dim = 10, .density = 0.0}), Error);
}

// ---------------------------------------------------------------------------
// WTA
// ---------------------------------------------------------------------------

TEST(Wta, DeterministicAndInvariantToPositiveScaling) {
  WtaHash h({.k = 4, .l = 10, .dim = 64, .bin_size = 8, .seed = 12});
  Rng rng(13);
  const auto x = random_unit(64, rng);
  auto scaled = x;
  for (auto& v : scaled) v *= 7.5f;  // WTA depends on ranks only
  std::vector<std::uint32_t> ka(h.l()), kb(h.l());
  h.hash_dense(x.data(), ka);
  h.hash_dense(scaled.data(), kb);
  EXPECT_EQ(ka, kb);
}

TEST(Wta, CodesAreWithinBinRange) {
  WtaHash h({.k = 3, .l = 7, .dim = 40, .bin_size = 5, .seed = 14});
  Rng rng(15);
  const auto x = random_unit(40, rng);
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(h.k() * h.l()));
  h.codes_dense(x.data(), codes.data());
  for (auto c : codes) EXPECT_LT(c, 5u);
}

TEST(Wta, RankSimilarInputsCollideMore) {
  WtaHash h({.k = 2, .l = 100, .dim = 128, .bin_size = 8, .seed = 16});
  Rng rng(17);
  double near = 0.0, far = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto x = random_unit(128, rng);
    near += key_match_rate(h, x.data(), perturb(x, 0.95f, rng).data());
    far += key_match_rate(h, x.data(), perturb(x, 0.05f, rng).data());
  }
  EXPECT_GT(near, far);
}

TEST(Wta, MemoryOptimizedPermutationCount) {
  // Storage must be O(K*L*m), i.e. ceil(K*L/(d/m)) permutations.
  WtaHash h({.k = 6, .l = 50, .dim = 128, .bin_size = 8, .seed = 18});
  EXPECT_EQ(h.num_permutations(), (6 * 50 + (128 / 8) - 1) / (128 / 8));
}

// ---------------------------------------------------------------------------
// DWTA
// ---------------------------------------------------------------------------

TEST(Dwta, SparseMatchesDenseOnSameVector) {
  // hash_dense runs its own kernel (a first-max over each bin's
  // coordinates); it must pick every bin's winner exactly as the sparse
  // scan over all coordinates does. Ties go to the lowest coordinate, and
  // a NaN wins only as its bin's first coordinate. The shapes include a
  // dim that is not a multiple of bin_size (trailing coordinates in no
  // bin) and K*L not a multiple of the bins per permutation (a partly used
  // last permutation), next to the K=8, L=50, d=128 production shape.
  struct Shape {
    int k, l;
    Index dim;
    int bin_size;
  };
  const Shape shapes[] = {
      {4, 20, 200, 8}, {3, 7, 203, 8}, {8, 50, 128, 8},
      {5, 7, 61, 4},   {2, 11, 100, 3}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const Shape& shape : shapes) {
    DwtaHash h({.k = shape.k,
                .l = shape.l,
                .dim = shape.dim,
                .bin_size = shape.bin_size,
                .seed = 19});
    Rng rng(20);
    std::vector<Index> idx(shape.dim);
    std::iota(idx.begin(), idx.end(), Index{0});
    // Value sources: distinct values; a small set with many ties; the
    // same set with ~15% NaNs; every coordinate equal; signed zeros and
    // infinities among ties.
    const std::vector<std::function<float(Index)>> sources = {
        [&](Index) { return rng.normal(); },
        [&](Index) { return static_cast<float>(rng.uniform(3)) - 1.0f; },
        [&](Index) {
          return rng.uniform(100) < 15
                     ? nan
                     : static_cast<float>(rng.uniform(3)) - 1.0f;
        },
        [&](Index) { return 0.25f; },
        [&](Index) {
          const float pick[] = {0.0f, -0.0f, inf, -inf, nan};
          return pick[rng.uniform(5)];
        }};
    for (std::size_t src = 0; src < sources.size(); ++src) {
      std::vector<float> dense(shape.dim);
      for (Index d = 0; d < shape.dim; ++d) dense[d] = sources[src](d);
      std::vector<std::uint32_t> kd(h.l()), ks(h.l());
      h.hash_dense(dense.data(), kd);
      h.hash_sparse(idx.data(), dense.data(), idx.size(), ks);
      EXPECT_EQ(kd, ks) << "k=" << shape.k << " l=" << shape.l
                        << " dim=" << shape.dim
                        << " bin=" << shape.bin_size << " source " << src;
    }
  }
}

TEST(Dwta, DensifiesEmptyBinsForVerySparseInput) {
  DwtaHash h({.k = 6, .l = 30, .dim = 10'000, .bin_size = 8, .seed = 21});
  // 5 nonzeros in 10'000 dims: nearly all bins must be empty pre-repair.
  std::vector<Index> idx = {3, 777, 2'000, 6'000, 9'999};
  std::vector<float> val = {1.0f, 0.5f, 2.0f, 0.1f, 0.7f};
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(h.k() * h.l()));
  const int empty = h.codes_sparse(idx.data(), val.data(), idx.size(),
                                   codes.data());
  EXPECT_GT(empty, h.k() * h.l() / 2);
  // Despite emptiness, keys must be deterministic and complete.
  std::vector<std::uint32_t> k1(h.l()), k2(h.l());
  h.hash_sparse(idx.data(), val.data(), idx.size(), k1);
  h.hash_sparse(idx.data(), val.data(), idx.size(), k2);
  EXPECT_EQ(k1, k2);
}

TEST(Dwta, OverlappingSparseSupportsCollideMore) {
  DwtaHash h({.k = 2, .l = 100, .dim = 5'000, .bin_size = 8, .seed = 22});
  Rng rng(23);
  auto make_sparse = [&](const std::vector<Index>& base, int extra) {
    std::vector<Index> idx = base;
    std::vector<float> val;
    for (int i = 0; i < extra; ++i) idx.push_back(rng.uniform(5'000));
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    for (std::size_t i = 0; i < idx.size(); ++i)
      val.push_back(0.5f + 0.1f * static_cast<float>(idx[i] % 7));
    return std::pair(idx, val);
  };
  std::vector<Index> base;
  for (int i = 0; i < 40; ++i) base.push_back(rng.uniform(5'000));

  double shared_rate = 0.0, disjoint_rate = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    auto [ia, va] = make_sparse(base, 5);
    auto [ib, vb] = make_sparse(base, 5);  // shares the 40 base indices
    std::vector<Index> other;
    for (int i = 0; i < 40; ++i) other.push_back(rng.uniform(5'000));
    auto [ic, vc] = make_sparse(other, 5);
    std::vector<std::uint32_t> ka(h.l()), kb(h.l()), kc(h.l());
    h.hash_sparse(ia.data(), va.data(), ia.size(), ka);
    h.hash_sparse(ib.data(), vb.data(), ib.size(), kb);
    h.hash_sparse(ic.data(), vc.data(), ic.size(), kc);
    int ab = 0, ac = 0;
    for (int t = 0; t < h.l(); ++t) {
      ab += ka[t] == kb[t] ? 1 : 0;
      ac += ka[t] == kc[t] ? 1 : 0;
    }
    shared_rate += ab;
    disjoint_rate += ac;
  }
  EXPECT_GT(shared_rate, disjoint_rate);
}

// ---------------------------------------------------------------------------
// DOPH
// ---------------------------------------------------------------------------

TEST(Doph, IdenticalSetsProduceIdenticalKeys) {
  DophHash h({.k = 3, .l = 20, .dim = 1'000, .binarize_top_k = 16,
              .seed = 24});
  std::vector<Index> set = {1, 50, 200, 999};
  std::vector<std::uint32_t> k1(h.l()), k2(h.l());
  h.hash_set(set, k1);
  h.hash_set(set, k2);
  EXPECT_EQ(k1, k2);
}

TEST(Doph, JaccardSimilarSetsCollideMore) {
  DophHash h({.k = 1, .l = 400, .dim = 10'000, .binarize_top_k = 64,
              .seed = 25});
  Rng rng(26);
  std::vector<Index> base;
  for (int i = 0; i < 60; ++i) base.push_back(rng.uniform(10'000));
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());

  auto mutate = [&](int replace) {
    std::vector<Index> s = base;
    for (int i = 0; i < replace && !s.empty(); ++i)
      s[rng.uniform(static_cast<std::uint32_t>(s.size()))] =
          rng.uniform(10'000);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  std::vector<std::uint32_t> kb(h.l()), knear(h.l()), kfar(h.l());
  h.hash_set(base, kb);
  h.hash_set(mutate(5), knear);
  h.hash_set(mutate(50), kfar);
  int near = 0, far = 0;
  for (int t = 0; t < h.l(); ++t) {
    near += kb[t] == knear[t] ? 1 : 0;
    far += kb[t] == kfar[t] ? 1 : 0;
  }
  EXPECT_GT(near, far);
}

TEST(Doph, BinarizeSelectsTopKIndices) {
  DophHash h({.k = 2, .l = 4, .dim = 10, .binarize_top_k = 3, .seed = 27});
  const std::vector<float> x = {0.1f, 5.0f, 0.2f, 4.0f, 0.0f,
                                3.0f, 0.3f, 0.0f, 0.1f, 0.2f};
  const auto set = h.binarize_dense(x.data());
  EXPECT_EQ(set, (std::vector<Index>{1, 3, 5}));
}

TEST(Doph, SparseInputUsesSupportAsSet) {
  DophHash h({.k = 2, .l = 30, .dim = 1'000, .binarize_top_k = 32,
              .seed = 28});
  std::vector<Index> idx = {5, 100, 900};
  std::vector<float> val = {1.0f, 2.0f, 3.0f};
  std::vector<std::uint32_t> ks(h.l()), kset(h.l());
  h.hash_sparse(idx.data(), val.data(), idx.size(), ks);
  h.hash_set(idx, kset);
  EXPECT_EQ(ks, kset);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(Factory, BuildsEveryKind) {
  for (auto kind : {HashFamilyKind::kSimhash, HashFamilyKind::kWta,
                    HashFamilyKind::kDwta, HashFamilyKind::kDoph}) {
    HashFamilyConfig cfg;
    cfg.kind = kind;
    cfg.k = 3;
    cfg.l = 5;
    cfg.dim = 64;
    const auto family = make_hash_family(cfg);
    ASSERT_NE(family, nullptr);
    EXPECT_EQ(family->k(), 3);
    EXPECT_EQ(family->l(), 5);
    EXPECT_EQ(family->dim(), 64u);
    EXPECT_EQ(family->name(), to_string(kind));
  }
}

}  // namespace
}  // namespace slide
