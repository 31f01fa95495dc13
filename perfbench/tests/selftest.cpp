// Checks the benchmark's own arithmetic (src/stats.h). Plain executable:
// prints each failed check and exits non-zero if any failed. run.py runs
// it after every build.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void test_quantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const Quantile p50 = quantile(v, 0.5);
  CHECK(near(p50.value, 50.0));
  CHECK(p50.count == 100);
  CHECK(near(quantile(v, 0.99).value, 99.0));
  CHECK(near(quantile(v, 1.0).value, 100.0));
  CHECK(near(quantile(v, 0.0).value, 1.0));
  CHECK(quantile({}, 0.5).count == 0);
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
}

void test_mean_and_steal() {
  CHECK(near(mean({3.0, 1.0, 2.0, 6.0}), 3.0));
  CHECK(std::isnan(mean({})));
  CHECK(near(net_of_steal(10.0, 2.0), 8.0));
  CHECK(near(net_of_steal(10.0, 0.0), 10.0));
  CHECK(near(net_of_steal(10.0, -1.0), 10.0));  // counter noise never adds time
  CHECK(near(net_of_steal(10.0, 7.0), 5.0));    // at most half is taken off
}

void test_supported_quantile() {
  // The highest percentile with at least ten samples beyond it.
  CHECK(near(highest_supported_quantile(19), 0.0));
  CHECK(near(highest_supported_quantile(20), 0.5));
  CHECK(near(highest_supported_quantile(999), 0.9));
  CHECK(near(highest_supported_quantile(1000), 0.99));
  CHECK(near(highest_supported_quantile(10000), 0.999));
  CHECK(near(highest_supported_quantile(99999), 0.999));
  CHECK(near(highest_supported_quantile(100000), 0.9999));
}

LadderStep rung(double rate, double p99, std::uint64_t sent,
                std::uint64_t completed, std::uint64_t mid, std::uint64_t end) {
  LadderStep s;
  s.rate = rate;
  s.achieved = rate * 0.99;
  s.p99_us = p99;
  s.sent = sent;
  s.completed = completed;
  s.backlog_mid = mid;
  s.backlog_end = end;
  return s;
}

void test_ladder() {
  const double limit = 1000.0;
  CHECK(step_passes(rung(1000, 900, 10000, 10000, 5, 6), limit));
  CHECK(!step_passes(rung(1000, 1100, 10000, 10000, 5, 6), limit));  // limit
  CHECK(!step_passes(rung(1000, 900, 10000, 9989, 5, 6), limit));     // 99.9%
  CHECK(step_passes(rung(1000, 900, 10000, 9990, 5, 6), limit));
  // Backlog: slack is max(16, 0.5% of sends, 10 ms of arrivals).
  CHECK(!backlog_growing(rung(100, 0, 10000, 10000, 10, 60)));
  CHECK(backlog_growing(rung(100, 0, 10000, 10000, 10, 61)));
  CHECK(backlog_growing(rung(100, 0, 1000, 1000, 0, 17)));
  CHECK(!backlog_growing(rung(20000, 0, 1000, 1000, 0, 200)));  // 10 ms
  CHECK(backlog_growing(rung(20000, 0, 1000, 1000, 0, 201)));
  CHECK(!step_passes(rung(100, 900, 1000, 1000, 0, 17), limit));
  CHECK(!step_passes(rung(1000, 0, 0, 0, 0, 0), limit));  // nothing sent

  // Stops at the first failing rung; later passes do not count.
  std::vector<LadderStep> steps = {rung(100, 10, 1000, 1000, 0, 0),
                                   rung(200, 10, 1000, 1000, 0, 0),
                                   rung(400, 5000, 1000, 1000, 0, 0),
                                   rung(800, 10, 1000, 1000, 0, 0)};
  LadderResult r = ladder_result(steps, limit, 800);
  CHECK(r.passed == 2);
  CHECK(r.first_fail == 2);
  CHECK(near(r.max_qps, 200 * 0.99));
  CHECK(!r.capped);
  // Passing the top rung reports the cap.
  steps.resize(2);
  r = ladder_result(steps, limit, 200);
  CHECK(r.capped);
  CHECK(r.first_fail == -1);
  // Stopping below the top without a failure is not a cap.
  CHECK(!ladder_result(steps, limit, 800).capped);
  // A failing first rung gives no maximum.
  r = ladder_result({rung(100, 5000, 1000, 1000, 0, 0)}, limit, 800);
  CHECK(r.passed == 0);
  CHECK(near(r.max_qps, 0.0));
  CHECK(!r.capped);
}

void test_time_to_target() {
  const std::vector<EvalPoint> pts = {{0, 0.0}, {10, 0.4}, {20, 0.6}, {30, 0.7}};
  CHECK(near(time_to_target(pts, 0.5), 15.0));   // half-way from 10 to 20
  CHECK(near(time_to_target(pts, 0.6), 20.0));   // exactly on a point
  CHECK(near(time_to_target(pts, 0.65), 25.0));
  CHECK(near(time_to_target(pts, 0.0), 0.0));
  CHECK(std::isnan(time_to_target(pts, 0.9)));   // never reached
  // The first crossing counts, even if P@1 dips afterwards.
  const std::vector<EvalPoint> dip = {{0, 0.0}, {10, 0.6}, {20, 0.4}, {30, 0.8}};
  CHECK(near(time_to_target(dip, 0.5), 10.0 * 0.5 / 0.6));
}

void test_units_due() {
  // 1% of 24000 labels per minute is 4 units per second.
  const double per_s = 0.01 / 60.0 * 24000;
  CHECK(units_due(per_s, 0.0) == 0);
  CHECK(units_due(per_s, 0.24) == 0);
  CHECK(units_due(per_s, 0.25) == 1);
  CHECK(units_due(per_s, 2.6) == 10);
  CHECK(units_due(per_s, 60.0) == 240);
  // 500 labels: the first unit is due after 12 s.
  CHECK(units_due(0.01 / 60.0 * 500, 11.9) == 0);
  CHECK(units_due(0.01 / 60.0 * 500, 12.1) == 1);
  CHECK(units_due(-1.0, 5.0) == 0);
}

void test_windowed_quantile() {
  // Ten windows of 100; one window is a stall and must not move the median.
  std::vector<double> v;
  for (int w = 0; w < 10; ++w)
    for (int i = 0; i < 100; ++i) v.push_back(w == 3 ? 1e6 : 100.0 + i);
  CHECK(near(windowed_quantile(v, 0.5, 10), 149.0));
  CHECK(quantile(v, 0.95).value > 1e5);  // the plain tail sees the stall
  CHECK(near(windowed_quantile(v, 0.9, 10), 189.0));
  // Too few values per window: the plain quantile.
  const std::vector<double> small = {1, 2, 3, 4, 5};
  CHECK(near(windowed_quantile(small, 0.5, 10), 3.0));
}

void test_self_times() {
  // root [0,100): children a [10,40) and b [30,60) overlap; a has child c
  // [15,25). A span under another parent id is not root's child.
  std::vector<SpanRecord> spans = {
      {"root", 1, 0, 0, 0, 100},   {"a", 2, 1, 0, 10, 40},
      {"b", 3, 1, 0, 30, 60},      {"c", 4, 2, 0, 15, 25},
      {"other", 5, 0, 0, 0, 1000},
  };
  const auto self = self_times(spans);
  CHECK(self[0] == 100 - 50);  // union of [10,40) and [30,60) is 50
  CHECK(self[1] == 30 - 10);
  CHECK(self[2] == 30);
  CHECK(self[3] == 10);
  CHECK(self[4] == 1000);
  // A child running past its parent is clipped to the parent's interval.
  const auto clipped = self_times({{"p", 1, 0, 0, 0, 10}, {"k", 2, 1, 0, 5, 50}});
  CHECK(clipped[0] == 5);
  CHECK(clipped[1] == 45);
}

}  // namespace

int main() {
  test_quantile();
  test_mean_and_steal();
  test_supported_quantile();
  test_ladder();
  test_time_to_target();
  test_units_due();
  test_windowed_quantile();
  test_self_times();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
