// The benchmark's own arithmetic: percentiles with their sample counts,
// the tail-percentile rule, the serving ladder's stop rule, time-to-target
// interpolation, the churn schedule and span self time. Header-only and free of library
// dependencies so tests/selftest.cpp can check every rule in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// One order statistic and the sample it was taken from.
struct Quantile {
  double q = 0.0;
  double value = 0.0;
  std::size_t count = 0;
};

/// Nearest-rank quantile: the smallest value with at least q*n samples at
/// or below it. Empty input gives value 0 with count 0.
inline Quantile quantile(std::vector<double> values, double q) {
  Quantile out{q, 0.0, values.size()};
  if (values.empty()) return out;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  return out;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5).value;
}

/// Arithmetic mean; NaN for empty input.
inline double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Wall time less the vCPU time the hypervisor stole while it ran. The
/// steal is summed over vCPUs, which counts a stall twice when two are
/// stolen at once, so at most half of the wall time is taken off.
inline double net_of_steal(double wall_s, double stolen_s) {
  return std::max(wall_s - std::max(stolen_s, 0.0), 0.5 * wall_s);
}

/// The highest of 0.5, 0.9, 0.99, 0.999, 0.9999 that leaves at least ten
/// samples beyond it (n * (1 - q) >= 10); 0 when even the median does not.
inline double highest_supported_quantile(std::size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  return best;
}

/// One rung of the max-throughput ladder, as measured.
struct LadderStep {
  double rate = 0.0;           // nominal sends per second
  double achieved = 0.0;       // completions during sending, per second
  std::uint64_t sent = 0;      // send attempts (rejected ones included)
  std::uint64_t completed = 0; // correct answers back within the drain window
  double p99_us = 0.0;         // from scheduled send time; fails count as inf
  std::uint64_t backlog_mid = 0;  // outstanding requests half-way through
  std::uint64_t backlog_end = 0;  // outstanding requests when sending stops
};

/// The backlog grows when, between the middle and the end of the sending
/// window, outstanding requests rose by more than a slack: 16 requests,
/// half a percent of the sends, or 10 ms of arrivals at the rung's rate,
/// whichever is largest. A shared host stalls a thread for 10-20 ms now
/// and then; the slack keeps most such stalls from reading as growth.
inline bool backlog_growing(const LadderStep& s) {
  const double slack = std::max({16.0, 0.005 * static_cast<double>(s.sent),
                                 0.01 * s.rate});
  return static_cast<double>(s.backlog_end) >
         static_cast<double>(s.backlog_mid) + slack;
}

/// A rung passes when p99 meets the limit, at least 99.9% of sends came
/// back correct, and the backlog did not grow.
inline bool step_passes(const LadderStep& s, double p99_limit_us) {
  if (s.sent == 0) return false;
  return s.p99_us <= p99_limit_us &&
         static_cast<double>(s.completed) >=
             0.999 * static_cast<double>(s.sent) &&
         !backlog_growing(s);
}

struct LadderResult {
  double max_qps = 0.0;    // achieved rate of the highest passing rung
  int passed = 0;          // rungs passed before the stop
  bool capped = false;     // the top rung passed: the true maximum is higher
  int first_fail = -1;     // index of the rung that stopped the climb
};

/// Walks the rungs in order and stops at the first that fails. A climb
/// that passes every rung up to `top_rate` is capped.
inline LadderResult ladder_result(const std::vector<LadderStep>& steps,
                                  double p99_limit_us, double top_rate) {
  LadderResult r;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!step_passes(steps[i], p99_limit_us)) {
      r.first_fail = static_cast<int>(i);
      return r;
    }
    r.max_qps = steps[i].achieved;
    r.passed = static_cast<int>(i) + 1;
  }
  r.capped = !steps.empty() && steps.back().rate >= top_rate * (1 - 1e-9);
  return r;
}

/// A held-out evaluation at a point of training progress (seconds of
/// training time, evaluation excluded).
struct EvalPoint {
  double at = 0.0;
  double p_at_1 = 0.0;
};

/// Training progress at which P@1 first reaches `target`, interpolated
/// linearly between the evaluation just below and the one that reached it,
/// so the evaluation cadence does not quantize the answer. NaN when the
/// target is never reached.
inline double time_to_target(const std::vector<EvalPoint>& points,
                             double target) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].p_at_1 < target) continue;
    if (i == 0) return points[0].at;
    const EvalPoint& a = points[i - 1];
    const EvalPoint& b = points[i];
    const double frac = (target - a.p_at_1) / (b.p_at_1 - a.p_at_1);
    return a.at + frac * (b.at - a.at);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Whole units due after `elapsed_s` seconds at `per_second` units per
/// second (the online phase's label churn schedule).
inline std::uint64_t units_due(double per_second, double elapsed_s) {
  if (per_second <= 0.0 || elapsed_s <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::floor(per_second * elapsed_s));
}

/// Quantile q of each of `windows` consecutive equal slices of `values`
/// (kept in send order), then the median of those: one stall of the host
/// moves a few windows, not the answer. Falls back to the plain quantile
/// when there are fewer than 100 values per window.
inline double windowed_quantile(const std::vector<double>& values, double q,
                                std::size_t windows) {
  if (windows == 0 || values.size() < 100 * windows)
    return quantile(values, q).value;
  std::vector<double> per_window;
  const std::size_t size = values.size() / windows;
  for (std::size_t w = 0; w < windows; ++w)
    per_window.push_back(
        quantile(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(w * size),
                                     values.begin() + static_cast<std::ptrdiff_t>((w + 1) * size)),
                 q)
            .value);
  return median(std::move(per_window));
}

/// A recorded span, times in nanoseconds. parent 0 = root.
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover. Overlapping
/// children count once; child time outside the parent's interval is
/// ignored.
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Children grouped by parent id, ordered by start time.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent)
      return spans[a].parent < spans[b].parent;
    return spans[a].start_ns < spans[b].start_ns;
  });
  std::vector<std::size_t> by_id(spans.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].id < spans[b].id;
  });
  auto find = [&](std::uint64_t id) -> const SpanRecord* {
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [&](std::size_t i, std::uint64_t v) { return spans[i].id < v; });
    return it != by_id.end() && spans[*it].id == id ? &spans[*it] : nullptr;
  };
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint64_t parent_id = spans[order[i]].parent;
    std::size_t j = i;
    while (j < order.size() && spans[order[j]].parent == parent_id) ++j;
    const SpanRecord* parent = parent_id == 0 ? nullptr : find(parent_id);
    if (parent != nullptr) {
      std::int64_t total = 0;
      std::int64_t run_start = 0, run_end = 0;
      bool open = false;
      for (std::size_t c = i; c < j; ++c) {
        const std::int64_t s = std::max(spans[order[c]].start_ns, parent->start_ns);
        const std::int64_t e = std::min(spans[order[c]].end_ns, parent->end_ns);
        if (e <= s) continue;
        if (open && s <= run_end) {
          run_end = std::max(run_end, e);
        } else {
          if (open) total += run_end - run_start;
          run_start = s;
          run_end = e;
          open = true;
        }
      }
      if (open) total += run_end - run_start;
      covered[static_cast<std::size_t>(parent - spans.data())] = total;
    }
    i = j;
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k)
    self[k] = (spans[k].end_ns - spans[k].start_ns) - covered[k];
  return self;
}

}  // namespace perfbench
