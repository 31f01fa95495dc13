#include "lsh/dwta.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace slide {

DwtaHash::DwtaHash(const Config& config)
    : k_(config.k),
      l_(config.l),
      dim_(config.dim),
      bin_size_(config.bin_size),
      max_densify_attempts_(config.max_densify_attempts),
      probe_seed_(config.seed * 0x2545F4914F6CDD1Dull + 1) {
  SLIDE_CHECK(k_ >= 1 && l_ >= 1, "DwtaHash: K and L must be >= 1");
  SLIDE_CHECK(bin_size_ >= 2, "DwtaHash: bin_size must be >= 2");
  SLIDE_CHECK(dim_ >= static_cast<Index>(bin_size_),
              "DwtaHash: dim must be >= bin_size");

  bins_per_perm_ = static_cast<int>(dim_) / bin_size_;
  const int total_codes = k_ * l_;
  num_perms_ = (total_codes + bins_per_perm_ - 1) / bins_per_perm_;

  Rng rng(config.seed);
  std::vector<Index> perm(dim_);
  pos_.resize(static_cast<std::size_t>(num_perms_) * dim_);
  const std::size_t table_size =
      static_cast<std::size_t>(total_codes) * static_cast<std::size_t>(bin_size_);
  bin_coords_.resize(table_size);
  bin_slots_.resize(table_size);
  std::vector<std::pair<Index, std::uint32_t>> bin(
      static_cast<std::size_t>(bin_size_));
  for (int p = 0; p < num_perms_; ++p) {
    std::iota(perm.begin(), perm.end(), Index{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    Index* pos = pos_.data() + static_cast<std::size_t>(p) * dim_;
    for (Index q = 0; q < dim_; ++q) pos[perm[q]] = q;
    for (int b = 0; b < bins_per_perm_; ++b) {
      const int c = p * bins_per_perm_ + b;
      if (c >= total_codes) break;
      for (int j = 0; j < bin_size_; ++j) {
        bin[static_cast<std::size_t>(j)] = {
            perm[static_cast<std::size_t>(b * bin_size_ + j)],
            static_cast<std::uint32_t>(j)};
      }
      std::sort(bin.begin(), bin.end());
      const std::size_t base =
          static_cast<std::size_t>(c) * static_cast<std::size_t>(bin_size_);
      for (int j = 0; j < bin_size_; ++j) {
        bin_coords_[base + static_cast<std::size_t>(j)] =
            bin[static_cast<std::size_t>(j)].first;
        bin_slots_[base + static_cast<std::size_t>(j)] =
            bin[static_cast<std::size_t>(j)].second;
      }
    }
  }
}

int DwtaHash::codes_sparse(const Index* idx, const float* val,
                           std::size_t nnz, std::uint32_t* codes) const {
  const int total_codes = k_ * l_;
  thread_local std::vector<float> best;
  thread_local std::vector<std::uint8_t> filled;
  best.assign(static_cast<std::size_t>(total_codes),
              -std::numeric_limits<float>::infinity());
  filled.assign(static_cast<std::size_t>(total_codes), 0);
  std::fill_n(codes, total_codes, 0u);

  const int in_range_positions = bins_per_perm_ * bin_size_;
  for (std::size_t i = 0; i < nnz; ++i) {
    const Index d = idx[i];
    SLIDE_ASSERT(d < dim_);
    const float v = val[i];
    for (int p = 0; p < num_perms_; ++p) {
      const Index q = pos_[static_cast<std::size_t>(p) * dim_ + d];
      if (q >= static_cast<Index>(in_range_positions)) continue;
      const int c = p * bins_per_perm_ + static_cast<int>(q) / bin_size_;
      if (c >= total_codes) continue;
      if (!filled[static_cast<std::size_t>(c)] ||
          v > best[static_cast<std::size_t>(c)]) {
        best[static_cast<std::size_t>(c)] = v;
        filled[static_cast<std::size_t>(c)] = 1;
        codes[c] = static_cast<std::uint32_t>(q) % bin_size_;
      }
    }
  }

  int empty = 0;
  for (int c = 0; c < total_codes; ++c)
    if (!filled[static_cast<std::size_t>(c)]) ++empty;
  // densify() reads the pre-densification fill state, so repaired bins never
  // act as donors and the result does not depend on repair order.
  if (empty > 0) densify(codes, filled.data());
  return empty;
}

void DwtaHash::densify(std::uint32_t* codes,
                       const std::uint8_t* filled) const {
  const int total_codes = k_ * l_;
  for (int c = 0; c < total_codes; ++c) {
    if (filled[c]) continue;
    std::uint32_t code = 0;
    for (int attempt = 1; attempt <= max_densify_attempts_; ++attempt) {
      // Universal probe hash over (bin, attempt).
      std::uint64_t h = probe_seed_;
      h ^= static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<std::uint64_t>(attempt) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
      h *= 0x94D049BB133111EBull;
      h ^= h >> 29;
      const int donor = static_cast<int>(h % static_cast<std::uint64_t>(total_codes));
      if (filled[donor]) {
        code = codes[donor];
        break;
      }
    }
    codes[c] = code;
  }
}

void DwtaHash::keys_from_codes(const std::uint32_t* codes,
                               std::span<std::uint32_t> keys) const {
  SLIDE_ASSERT(static_cast<int>(keys.size()) == l_);
  int c = 0;
  for (int t = 0; t < l_; ++t) {
    detail::FingerprintMixer mixer;
    for (int j = 0; j < k_; ++j, ++c) mixer.add(codes[c]);
    keys[t] = mixer.value();
  }
}

void DwtaHash::hash_sparse(const Index* idx, const float* val,
                           std::size_t nnz,
                           std::span<std::uint32_t> keys) const {
  thread_local std::vector<std::uint32_t> codes;
  codes.resize(static_cast<std::size_t>(k_) * l_);
  codes_sparse(idx, val, nnz, codes.data());
  keys_from_codes(codes.data(), keys);
}

void DwtaHash::hash_dense(const float* x, std::span<std::uint32_t> keys) const {
  SLIDE_ASSERT(static_cast<int>(keys.size()) == l_);
  // A dense vector fills every bin, so nothing needs densifying. The
  // sparse scan visits coordinates in ascending order and takes a new
  // winner only on a strict `>`; scanning each bin's coordinates in the
  // same order with the same comparison picks the same winner, so the
  // lowest coordinate wins a tie and a NaN wins only as the bin's first
  // coordinate.
  const Index* coords = bin_coords_.data();
  const std::uint32_t* slots = bin_slots_.data();
  for (int t = 0; t < l_; ++t) {
    detail::FingerprintMixer mixer;
    for (int j = 0; j < k_; ++j) {
      float best = x[coords[0]];
      std::uint32_t code = slots[0];
      for (int i = 1; i < bin_size_; ++i) {
        const float v = x[coords[i]];
        const bool wins = v > best;
        best = wins ? v : best;
        code = wins ? slots[i] : code;
      }
      mixer.add(code);
      coords += bin_size_;
      slots += bin_size_;
    }
    keys[t] = mixer.value();
  }
}

}  // namespace slide
