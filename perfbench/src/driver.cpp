// Repository benchmark driver: one workload per process.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --workdir <dir>
//
// Every workload runs the same pipeline on its own data and model shape:
//   1. set-up: synthetic data generation + network construction, repeated
//      and the median kept where it is setup_s (train);
//   2. training on 2 threads to a fixed step budget, repeated from scratch
//      in the traced run;
//      exact held-out P@1 is evaluated (off the clock) on a fixed cadence,
//      each repeat's figures are its measured wall times less the vCPU time
//      the hypervisor stole meanwhile, and their means are reported;
//   3. checkpoint save (untimed), then boot of the serving process from
//      that checkpoint (ModelStore::from_checkpoint_file + engine start +
//      first served request), repeated and the median kept where it is
//      setup_s (the serving workloads);
//   4. a fixed-rate open-loop serving phase;
// and, in the traced run only, whose figures are all per-layer:
//   5. a geometric max-throughput ladder;
//   6. an online phase: fixed-rate serving on one engine worker while one
//      updater thread feeds InferenceEngine::update() with label churn and
//      training samples, publishing on a fixed cadence.
// No phase runs more than three busy threads. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics taken from spans recorded around public API calls
// (plus the library's own counters, labelled program-reported), and the
// spans are written to <workdir> at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "slide/slide.h"
#include "simd/backend.h"
#include "stats.h"
#include "trace.h"

using namespace slide;
using perfbench::now_ns;
using perfbench::Span;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool serving;          // setup_s is the serving boot, not data + network
  const char* scale;
  std::function<SyntheticConfig(Scale)> dataset;
  Scale data_scale;
  HashFamilyKind family;
  Index hidden;
  int shards;            // 0 = monolithic output layer
  long steps;            // training step budget of one repeat
  long warmup_steps;     // excluded from core.train_samples_per_s
  double p1_target;      // held-out P@1 target for core.time_to_p1_s
  int train_repeats;     // training runs from scratch in the traced run
  double nominal_qps;    // fixed open-loop rate (phase 4)
  double ladder_start;   // first rung of the ladder (phase 5)
  double ladder_ratio;
  int ladder_rungs;
  double online_qps;     // fixed open-loop rate in the online phase
  double online_share;   // online phase length as a share of --seconds
};

constexpr int kTrainThreads = 2;
constexpr int kBatch = 128;
constexpr int kTopK = 5;
constexpr int kSetupRepeats = 3;  // of the set-up that setup_s times; others run once
constexpr long kEvalEvery = 20;
constexpr std::size_t kEvalSamples = 1000;
constexpr int kSpotChecks = 32;
constexpr int kServeWorkers = 1;
constexpr double kP99LimitUs = 25000;  // latency limit on the ladder
constexpr int kLadderClimbs = 5;       // the median maximum is reported
constexpr int kPublishEvery = 16;      // update() calls per publish
constexpr int kUpdateSamples = 32;     // samples per update() call
constexpr double kChurnPerMinute = 0.01;  // share of labels added (and retired)
constexpr std::size_t kWindows = 10;  // windows of the fixed-rate phase
constexpr std::size_t kTracedRequestEvery = 16;  // request spans kept, 1 in N

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"train", false, "small", delicious_like, Scale::kSmall,
       HashFamilyKind::kSimhash, 128, 0,
       /*steps=*/200, /*warmup=*/20, /*p1_target=*/0.60, /*train_repeats=*/6,
       /*nominal_qps=*/5000, /*ladder_start=*/6000, /*ladder_ratio=*/1.07,
       /*rungs=*/30, /*online_qps=*/4000, /*online_share=*/1.5},
      {"serve_engine", true, "tiny", delicious_like, Scale::kTiny,
       HashFamilyKind::kSimhash, 64, 0,
       /*steps=*/300, /*warmup=*/20, /*p1_target=*/0.45, /*train_repeats=*/24,
       /*nominal_qps=*/20000, /*ladder_start=*/30000, /*ladder_ratio=*/1.07,
       /*rungs=*/28, /*online_qps=*/10000, /*online_share=*/1.0},
      {"online_sharded", true, "small", amazon_like, Scale::kSmall,
       HashFamilyKind::kDwta, 128, 4,
       /*steps=*/100, /*warmup=*/20, /*p1_target=*/0.55, /*train_repeats=*/4,
       /*nominal_qps=*/1500, /*ladder_start=*/2000, /*ladder_ratio=*/1.06,
       /*rungs=*/28, /*online_qps=*/1500, /*online_share=*/2.0},
  };
  return all;
}

// ---------------------------------------------------------------------------
// Host and noise record

struct CpuTicks {
  unsigned long long total = 0, idle = 0, steal = 0;
  static CpuTicks now() {
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    if (in >> cpu && cpu == "cpu") {
      for (auto& x : v) in >> x;
      for (auto x : v) t.total += x;
      t.idle = v[3] + v[4];
      t.steal = v[7];
    }
    return t;
  }
};

struct PhaseRecord {
  const char* name = "";
  int busy_threads = 0;
  double seconds = 0.0;
  double steal_ratio = 0.0;
  double idle_ratio = 0.0;
};

/// Brackets one timed phase: wall time and /proc/stat steal + idle deltas.
class PhaseClock {
 public:
  /// `name` must be a string literal: the span keeps the pointer.
  PhaseClock(std::vector<PhaseRecord>& out, const char* name, int threads)
      : out_(out), name_(name), threads_(threads), start_(CpuTicks::now()),
        span_(name) {}
  ~PhaseClock() {
    const CpuTicks end = CpuTicks::now();
    const double total = static_cast<double>(end.total - start_.total);
    PhaseRecord r{name_, threads_, timer_.seconds(), 0.0, 0.0};
    if (total > 0) {
      r.steal_ratio = static_cast<double>(end.steal - start_.steal) / total;
      r.idle_ratio = static_cast<double>(end.idle - start_.idle) / total;
    }
    out_.push_back(r);
  }
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

 private:
  std::vector<PhaseRecord>& out_;
  const char* name_;
  int threads_;
  CpuTicks start_;
  WallTimer timer_;
  Span span_;
};

/// vCPU time the hypervisor has taken from this host since boot, summed
/// over its vCPUs (/proc/stat steal).
double stolen_seconds() {
  static const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(CpuTicks::now().steal) * tick_s;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double v = 0.0;
  in >> v;
  return v;
}

/// Host speed probe: a fixed floating-point loop that calls no library
/// code, timed at the start, after training and at the end of the run.
/// /proc/stat shows no steal when a neighbour slows this host's vCPUs, yet
/// this loop then runs up to twice as long; the record shows such runs.
double reference_loop_ms() {
  static std::vector<float> a(1 << 16, 1.0f);
  WallTimer t;
  double sum = 0.0;
  for (int k = 0; k < 200; ++k)
    for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * a[(i * 7) & 0xffff];
  const double ms = t.milliseconds();
  if (sum < 0) std::fprintf(stderr, "%g\n", sum);  // keeps the loop
  return ms;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value;
  const char* unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> violations;

  void fail(const std::string& why, std::uint64_t n = 1) {
    failed += n;
    correct = false;
    if (violations.size() < 20) violations.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Open-loop load generation

/// First-served time of each snapshot version (for publish lag).
struct VersionWatch {
  static constexpr std::size_t kMax = 1 << 15;
  VersionWatch() : first_seen(kMax) {}
  std::vector<std::atomic<std::int64_t>> first_seen;
  void saw(std::uint64_t version, std::int64_t t) {
    if (version >= kMax) return;
    std::int64_t expected = 0;
    first_seen[version].compare_exchange_strong(expected, t);
  }
};

/// Per-request state shared with the engine's callbacks; owned jointly so
/// a late callback never writes into freed memory.
struct RequestLog {
  explicit RequestLog(std::size_t n)
      : scheduled(n), done(n), hit(n), bad(n) {}
  std::vector<std::int64_t> scheduled;
  std::vector<std::atomic<std::int64_t>> done;  // 0 = not back yet
  std::vector<std::uint8_t> hit;
  std::vector<std::uint8_t> bad;
  std::atomic<std::uint64_t> completed{0};
};

struct LoadResult {
  double send_seconds = 0.0;
  std::uint64_t sent = 0, accepted = 0, rejected_or_shed = 0;
  std::uint64_t completed = 0, wrong = 0, lost = 0, hits = 0;
  std::uint64_t backlog_mid = 0, backlog_end = 0;
  std::uint64_t completed_by_end = 0;  // back before sending stopped
  std::vector<double> latency_us;  // completed requests, from scheduled time
  std::vector<double> late_us;     // generator lateness per send
  std::vector<double> submit_us;   // time inside submit_callback
  double cpu_seconds = 0.0;
  ServeStats before, after;
};

struct LoadSpec {
  double rate;
  double seconds;
  std::uint64_t abort_backlog;  // stop sending past this many outstanding
  const std::atomic<Index>* label_limit;  // answers must be below this
  VersionWatch* watch = nullptr;
};

LoadResult open_loop(InferenceEngine& engine, const ModelStore& store,
                     const std::vector<const Sample*>& queries,
                     std::size_t& query_cursor, const LoadSpec& spec) {
  LoadResult r;
  const auto n = static_cast<std::size_t>(spec.rate * spec.seconds);
  auto log = std::make_shared<RequestLog>(n);
  r.late_us.reserve(n);
  r.submit_us.reserve(n);
  r.before = engine.stats();
  const double cpu0 = cpu_seconds();
  const auto gap = 1e9 / spec.rate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::size_t i = 0;
  for (; i < n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(gap * static_cast<double>(i));
    std::int64_t now = now_ns();
    while (now < due) {
      cpu_relax();
      now = now_ns();
    }
    r.late_us.push_back(1e-3 * static_cast<double>(now - due));
    log->scheduled[i] = due;
    const Sample* sample = queries[query_cursor++ % queries.size()];
    const std::uint64_t floor = store.version();
    const std::atomic<Index>* label_limit = spec.label_limit;
    VersionWatch* watch = spec.watch;
    auto callback = [log, i, sample, floor, label_limit, watch](Prediction p) {
      const std::int64_t t = now_ns();
      // The limit only grows, so reading it now bounds any snapshot that
      // could have served this request.
      const Index limit = label_limit->load(std::memory_order_acquire);
      bool bad = p.labels.size() != static_cast<std::size_t>(kTopK) ||
                 p.snapshot_version < floor;
      for (Index label : p.labels) bad = bad || label >= limit;
      log->bad[i] = bad ? 1 : 0;
      log->hit[i] = !p.labels.empty() &&
                            std::binary_search(sample->labels.begin(),
                                               sample->labels.end(),
                                               p.labels[0])
                        ? 1
                        : 0;
      if (watch != nullptr) watch->saw(p.snapshot_version, t);
      if (i % kTracedRequestEvery == 0)
        perfbench::record_span("serve.request", log->scheduled[i], t, i + 1);
      log->done[i].store(t, std::memory_order_release);
      log->completed.fetch_add(1, std::memory_order_acq_rel);
    };
    const std::int64_t s0 = now_ns();
    bool ok = false;
    {
      const bool traced = i % kTracedRequestEvery == 0;
      Span span(traced ? "serve.submit" : nullptr, i + 1);
      ok = engine.submit_callback(sample->features, std::move(callback),
                                  {.top_k = kTopK});
    }
    r.submit_us.push_back(1e-3 * static_cast<double>(now_ns() - s0));
    ++r.sent;
    if (ok)
      ++r.accepted;
    else
      ++r.rejected_or_shed;
    const std::uint64_t outstanding =
        r.accepted - log->completed.load(std::memory_order_acquire);
    if (i == n / 2) r.backlog_mid = outstanding;
    if (outstanding > spec.abort_backlog) {
      ++i;
      break;
    }
  }
  r.send_seconds = 1e-9 * static_cast<double>(now_ns() - t0);
  r.completed_by_end = log->completed.load(std::memory_order_acquire);
  r.backlog_end = r.accepted - r.completed_by_end;
  if (i < n / 2 + 1) r.backlog_mid = 0;
  // Drain: every accepted request must come back.
  WallTimer drain;
  while (log->completed.load(std::memory_order_acquire) < r.accepted &&
         drain.seconds() < 5.0)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  r.cpu_seconds = cpu_seconds() - cpu0;
  r.after = engine.stats();
  r.latency_us.reserve(i);
  for (std::size_t j = 0; j < i; ++j) {
    const std::int64_t d = log->done[j].load(std::memory_order_acquire);
    if (d == 0) continue;
    ++r.completed;
    r.wrong += log->bad[j];
    r.hits += log->hit[j];
    r.latency_us.push_back(1e-3 * static_cast<double>(d - log->scheduled[j]));
  }
  r.lost = r.accepted - r.completed;
  return r;
}

/// One ladder rung from a load run. Sends that did not come back correct
/// count as missing the latency limit.
perfbench::LadderStep ladder_step(double rate, const LoadResult& lr) {
  std::vector<double> lat = lr.latency_us;
  for (std::uint64_t k = lr.completed; k < lr.sent; ++k)
    lat.push_back(std::numeric_limits<double>::infinity());
  perfbench::LadderStep step;
  step.rate = rate;
  step.sent = lr.sent;
  step.completed = lr.completed - lr.wrong;
  step.achieved = static_cast<double>(lr.completed_by_end) / lr.send_seconds;
  step.p99_us = perfbench::quantile(lat, 0.99).value;
  step.backlog_mid = lr.backlog_mid;
  step.backlog_end = lr.backlog_end;
  return step;
}

void account(Outcome& out, const LoadResult& r, const char* phase) {
  out.attempted += r.sent;
  if (r.rejected_or_shed > 0)
    out.fail(std::string(phase) + ": rejected or shed sends", r.rejected_or_shed);
  if (r.wrong > 0) out.fail(std::string(phase) + ": malformed answers", r.wrong);
  if (r.lost > 0) out.fail(std::string(phase) + ": callbacks never fired", r.lost);
  const std::uint64_t errors = r.after.errors - r.before.errors;
  if (errors > 0) out.fail(std::string(phase) + ": serving errors", errors);
}

// ---------------------------------------------------------------------------
// Helpers

std::vector<double> durations_us(const std::vector<perfbench::SpanRecord>& spans,
                                 const char* name) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Workload* w = nullptr;
  try {
    args = parse_args(argc, argv);
    for (const auto& candidate : workloads())
      if (args.workload == candidate.name) w = &candidate;
    if (w == nullptr) throw std::runtime_error("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  auto& tracer = perfbench::Tracer::get();
  if (args.trace) tracer.enable(4'000'000);

  const double load_at_start = load_average();
  std::vector<double> reference_ms = {reference_loop_ms()};
  const double T = args.seconds;
  const double nominal_seconds = T;
  const double rung_seconds = 0.025 * T;
  const double online_seconds = w->online_share * T;
  std::vector<PhaseRecord> phases;
  Outcome out;
  std::map<std::string, Metric> e2e, layer;

  // ---- 1. set-up: data + network -----------------------------------------
  // The data and the training run are fixed per workload (only HOGWILD
  // interleaving varies), so the trained model does not change with
  // --seed. The seed drives what is served: the query stream, the engine's
  // sampling RNG and the online updates' samples.
  const SyntheticConfig data_cfg = w->dataset(w->data_scale);
  std::unique_ptr<SyntheticDataset> data;
  std::unique_ptr<Network> net;
  NetworkConfig net_cfg;
  std::vector<double> setup_train_s, generate_s;
  for (int rep = 0; rep < (w->serving ? 1 : kSetupRepeats); ++rep) {
    net.reset();
    data.reset();
    PhaseClock clock(phases, "setup.train", 1);
    WallTimer timer;
    const double stolen0 = stolen_seconds();
    {
      Span span("data.generate");
      data = std::make_unique<SyntheticDataset>(make_synthetic_xc(data_cfg));
    }
    generate_s.push_back(timer.seconds());
    net_cfg = bench::slide_config_for(data->train, w->family, w->hidden, kBatch);
    net_cfg.layers[0].shards = w->shards;
    {
      Span span("core.construct");
      net = std::make_unique<Network>(net_cfg, kTrainThreads);
    }
    setup_train_s.push_back(
        perfbench::net_of_steal(timer.seconds(), stolen_seconds() - stolen0));
  }
  const Dataset& train = data->train;
  const Dataset& test = data->test;

  // ---- 2. training ---------------------------------------------------------
  // Each repeat trains a fresh network on the same data with the same seeds
  // (only HOGWILD interleaving differs) and is charged its measured wall
  // time: every step, rebuild steps included; evaluation excluded; less
  // the vCPU time the hypervisor stole meanwhile. The means over the
  // repeats are reported. In the traced run the last repeat
  // records spans around every call; the others record none.
  std::vector<double> traced_iter_s, plain_iter_s;
  std::vector<double> rep_rate, rep_ttp, rep_wall_rate, rep_stolen_s;
  double train_cpu = 0.0;
  TrainTimeBreakdown bd0, bd1;
  double samp0 = 0, samp1 = 0, comp0 = 0, comp1 = 0;
  double core_util = 0.0, active_fraction = 0.0, eval_s_total = 0.0;
  double last_p1 = 0.0, span_coverage = 0.0;
  int evals_run = 0;
  std::vector<double> rebuild_ms;
  double save_s = 0.0;
  const std::string ckpt = args.workdir + "/ckpt-" + w->name + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(::getpid()) + ".slide";
  // The untraced run trains once, for the checkpoint: its gated metrics do
  // not time training, whose figures moved with the host's speed beyond
  // any bound (README, "Which metrics are gated").
  const int train_repeats = args.trace ? w->train_repeats : 1;
  for (int rep = 0; rep < train_repeats; ++rep) {
    if (rep > 0) net = std::make_unique<Network>(net_cfg, kTrainThreads);
    const bool traced_rep = args.trace && rep + 1 == train_repeats;
    tracer.set_recording(traced_rep);
    std::vector<perfbench::EvalPoint> evals;  // at = training seconds
    double train_wall = 0.0, timed_wall = 0.0;
    std::uint64_t timed_samples = 0;
    TrainerConfig tcfg;
    tcfg.batch_size = kBatch;
    tcfg.num_threads = kTrainThreads;
    tcfg.learning_rate = 1e-3f;
    tcfg.seed = 99;
    Trainer trainer(*net, tcfg);
    Batcher batcher(train, kBatch, true, 1);
    // vCPU time stolen while training steps ran, evaluations excluded.
    double stolen_s = 0.0, steal_mark = 0.0, stolen_before_timed = 0.0;
    auto evaluate = [&]() {
      stolen_s += stolen_seconds() - steal_mark;
      WallTimer t;
      Span span("core.eval");
      const double p = evaluate_p_at_1(
          *net, test, trainer.pool(),
          {.exact = true, .max_samples = kEvalSamples, .seed = 7001});
      eval_s_total += t.seconds();
      ++evals_run;
      steal_mark = stolen_seconds();
      return p;
    };
    std::optional<PhaseClock> clock;
    clock.emplace(phases, "train", kTrainThreads);
    // The loop's own clock, shared with no span: the traced repeat's spans
    // must account for it (see the reconciliation below).
    const std::int64_t loop_start = now_ns();
    const double cpu0 = cpu_seconds();
    steal_mark = stolen_seconds();
    evals.push_back({0.0, evaluate()});
    for (long step = 1; step <= w->steps; ++step) {
      if (step == w->warmup_steps + 1) {
        stolen_before_timed = stolen_s + (stolen_seconds() - steal_mark);
        bd0 = trainer.time_breakdown();
        samp0 = net->output_layer().sampling_seconds();
        comp0 = net->output_layer().compute_seconds();
      }
      WallTimer it;
      float loss = 0.0f;
      std::size_t batch_n = 0;
      {
        Span iteration("train.iteration", static_cast<std::uint64_t>(step));
        std::span<const std::size_t> idx;
        {
          Span span("data.batch");
          idx = batcher.next();
        }
        batch_n = idx.size();
        Span span("core.step");
        try {
          loss = trainer.step(train, idx);
        } catch (const std::exception& e) {
          out.fail(std::string("train: step threw: ") + e.what());
        }
      }
      const double iter_s = it.seconds();
      if (args.trace) (traced_rep ? traced_iter_s : plain_iter_s).push_back(iter_s);
      train_wall += iter_s;
      ++out.attempted;
      if (!std::isfinite(loss)) out.fail("train: non-finite loss");
      if (step > w->warmup_steps) {
        timed_wall += iter_s;
        timed_samples += batch_n;
      }
      // Evaluate on the cadence until the target is reached, then only
      // once more, at the end.
      const bool reached = evals.back().p_at_1 >= w->p1_target;
      if ((!reached && step % kEvalEvery == 0) || step == w->steps) {
        const double p = evaluate();
        evals.push_back({perfbench::net_of_steal(train_wall, stolen_s), p});
      }
    }
    const std::int64_t loop_end = now_ns();
    clock.reset();
    train_cpu = cpu_seconds() - cpu0;
    bd1 = trainer.time_breakdown();
    samp1 = net->output_layer().sampling_seconds();
    comp1 = net->output_layer().compute_seconds();
    core_util = trainer.core_utilization();
    active_fraction = net->output_layer().average_active_fraction();
    last_p1 = evals.back().p_at_1;
    const double ttp = perfbench::time_to_target(evals, w->p1_target);
    if (!std::isfinite(ttp)) out.fail("train: P@1 target never reached");
    rep_ttp.push_back(ttp);
    // The last step evaluates, so stolen_s covers every timed step.
    rep_stolen_s.push_back(stolen_s - stolen_before_timed);
    rep_rate.push_back(static_cast<double>(timed_samples) /
                       perfbench::net_of_steal(timed_wall, rep_stolen_s.back()));
    rep_wall_rate.push_back(static_cast<double>(timed_samples) / timed_wall);
    std::fprintf(stderr, "train repeat %d: %.0f samples/s (%.0f on the wall clock), "
                 "target at %.3f s, final P@1 %.4f\n",
                 rep, rep_rate.back(), rep_wall_rate.back(), ttp, last_p1);
    if (traced_rep) {
      // Reconciliation: the self times of the spans recorded inside the
      // loop must add up to the loop's wall time within 10%.
      const auto spans = tracer.spans();
      const auto self = perfbench::self_times(spans);
      std::int64_t covered = 0;
      for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].start_ns >= loop_start && spans[i].end_ns <= loop_end)
          covered += self[i];
      span_coverage = static_cast<double>(covered) /
                      static_cast<double>(loop_end - loop_start);
      if (std::fabs(span_coverage - 1.0) > 0.1)
        out.fail("trace: training spans cover " + std::to_string(span_coverage) +
                 " of the loop's wall time");
    }
    tracer.set_recording(true);
    if (rep + 1 < train_repeats) continue;
    for (int r = 0; r < (args.trace ? 3 : 0); ++r) {
      WallTimer t;
      Span span("core.rebuild");
      net->rebuild_all(&trainer.pool());
      rebuild_ms.push_back(t.milliseconds());
    }
    WallTimer t;
    {
      Span span("core.checkpoint_save");
      save_weights_file(*net, ckpt);
    }
    save_s = t.seconds();
  }
  net.reset();
  reference_ms.push_back(reference_loop_ms());

  // Queries: seeded shuffles of the whole held-out set, one after another,
  // so each full pass serves every held-out sample once and served P@1
  // does not carry the noise of which samples were drawn.
  std::vector<const Sample*> queries;
  {
    Rng rng(args.seed * 31 + 5);
    std::vector<const Sample*> pass;
    for (std::size_t i = 0; i < test.size(); ++i) pass.push_back(&test[i]);
    while (queries.size() < 8192) {
      for (std::size_t i = pass.size(); i > 1; --i)
        std::swap(pass[i - 1], pass[rng.uniform(static_cast<std::uint32_t>(i))]);
      queries.insert(queries.end(), pass.begin(), pass.end());
    }
  }
  std::size_t cursor = 0;
  std::atomic<Index> label_limit{test.label_dim()};

  // ---- 3. boot from the checkpoint -----------------------------------------
  ServeConfig serve_cfg;  // defaults, apart from the worker count and seed
  serve_cfg.seed = args.seed * 7919 + 0x51CE;
  serve_cfg.num_workers = kServeWorkers;
  const int boot_rebuild_threads = kTrainThreads;
  std::shared_ptr<ModelStore> store;
  std::unique_ptr<InferenceEngine> engine;
  std::vector<double> boot_s;
  for (int rep = 0; rep < (w->serving ? kSetupRepeats : 1); ++rep) {
    engine.reset();
    store.reset();
    PhaseClock clock(phases, "setup.boot", boot_rebuild_threads);
    WallTimer timer;
    const double stolen0 = stolen_seconds();
    {
      Span span("serve.boot");
      store = ModelStore::from_checkpoint_file(net_cfg, ckpt,
                                               boot_rebuild_threads);
      engine = std::make_unique<InferenceEngine>(store, serve_cfg);
      auto first = engine->submit(queries[0]->features, {.top_k = kTopK});
      if (!first.has_value()) throw std::runtime_error("boot request rejected");
      first->get();
    }
    boot_s.push_back(
        perfbench::net_of_steal(timer.seconds(), stolen_seconds() - stolen0));
  }
  ++out.attempted;

  // Exact-mode spot check: the engine's exact answers on a fixed slice must
  // equal the offline predict_topk(exact=true) on the served snapshot.
  const auto snapshot = store->current();
  const Network& served = *snapshot->network;
  {
    InferenceContext ctx(served);
    for (int i = 0; i < kSpotChecks; ++i) {
      const Sample& s = test[static_cast<std::size_t>(i)];
      ++out.attempted;
      auto f = engine->submit(s.features, {.top_k = kTopK, .exact = true});
      const std::vector<Index> expect = served.predict_topk(s.features, ctx, kTopK, true);
      if (!f.has_value() || f->get().labels != expect)
        out.fail("spot check: engine exact answer differs from predict_topk");
    }
  }

  // ---- offline model-layer probes (traced run only) ------------------------
  std::vector<double> predict_us, predict_exact_us;
  double recall_at_5 = 0.0;
  if (args.trace) {
    InferenceContext ctx(served, args.seed);
    std::vector<Index> got;
    const std::size_t nq = std::min<std::size_t>(2000, queries.size());
    for (std::size_t i = 0; i < nq; ++i) {
      const std::int64_t t0 = now_ns();
      {
        Span span("core.predict_topk", i + 1);
        served.predict_topk(queries[i]->features, ctx, kTopK, false, got);
      }
      predict_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
    }
    const std::size_t ne = std::min<std::size_t>(200, nq);
    std::size_t useful = 0;
    std::vector<Index> exact;
    for (std::size_t i = 0; i < ne; ++i) {
      served.predict_topk(queries[i]->features, ctx, kTopK, false, got);
      const std::int64_t t0 = now_ns();
      {
        Span span("core.predict_topk_exact", i + 1);
        served.predict_topk(queries[i]->features, ctx, kTopK, true, exact);
      }
      predict_exact_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
      for (Index g : got)
        useful += std::count(exact.begin(), exact.end(), g) > 0 ? 1 : 0;
    }
    recall_at_5 = static_cast<double>(useful) / static_cast<double>(ne * kTopK);
  }

  // ---- 4. fixed-rate open loop ---------------------------------------------
  LoadResult nominal;
  {
    PhaseClock clock(phases, "serve.nominal", 1 + kServeWorkers);
    nominal = open_loop(*engine, *store, queries, cursor,
                        {w->nominal_qps, nominal_seconds, 4096, &label_limit});
  }
  account(out, nominal, "nominal");
  // Served P@1 over every answer of the fixed-rate phase (one snapshot).
  const double served_p1 =
      static_cast<double>(nominal.hits) /
      static_cast<double>(std::max<std::uint64_t>(1, nominal.completed));

  // ---- end-to-end metrics --------------------------------------------------
  // Users of a serving workload pay for the boot on every start, not for
  // the data and the training that produced the checkpoint. Set-up times
  // are net of hypervisor steal, like the training figures.
  e2e["setup_s"] = {perfbench::median(w->serving ? boot_s : setup_train_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["p_at_1"] = {served_p1, "ratio"};

  // ---- traced run only: ladder, online phase, per-layer metrics ------------
  // These phases feed per-layer metrics only, so the untraced run skips them.
  std::string traced_host;  // host-record fields known only in the traced run
  if (!args.trace) {
    engine->stop();
    std::remove(ckpt.c_str());
  } else {
    // ---- 5. max-throughput ladder ------------------------------------------
    // Several climbs; the median maximum is reported. Within a climb a rung
    // fails only when two attempts in a row miss, so one stall of the host
    // does not end the climb.
    std::vector<perfbench::LadderResult> climbs;
    std::vector<perfbench::LadderStep> rungs;  // of the last climb
    {
      PhaseClock clock(phases, "serve.ladder", 1 + kServeWorkers);
      // One rung: two attempts, the second only when the first fails.
      auto run_rung = [&](int c, int r) {
        const double rate = w->ladder_start * std::pow(w->ladder_ratio, r);
        // Long enough for p99 to have ten samples beyond it.
        const double seconds = std::max(rung_seconds, 1000.0 / rate);
        perfbench::LadderStep step;
        for (int attempt = 0; attempt < 2; ++attempt) {
          const LoadResult lr = open_loop(*engine, *store, queries, cursor,
                                          {rate, seconds, 2048, &label_limit});
          account(out, lr, "ladder");
          step = ladder_step(rate, lr);
          std::fprintf(stderr,
                       "ladder climb %d rung %.0f/s: p99 %.0f us, %llu/%llu "
                       "back, backlog %llu -> %llu\n",
                       c, rate, step.p99_us,
                       static_cast<unsigned long long>(step.completed),
                       static_cast<unsigned long long>(step.sent),
                       static_cast<unsigned long long>(step.backlog_mid),
                       static_cast<unsigned long long>(step.backlog_end));
          if (perfbench::step_passes(step, kP99LimitUs)) break;
        }
        return step;
      };
      const double top_rate =
          w->ladder_start * std::pow(w->ladder_ratio, w->ladder_rungs - 1);
      int first_rung = 0;
      for (int c = 0; c < kLadderClimbs; ++c) {
        // Later climbs start three rungs below the first climb's top, on the
        // same fixed ladder, instead of walking up from the bottom again. If
        // that rung fails, the climb steps down until a rung passes, and
        // records the passing rung followed by the failing one above it.
        rungs.clear();
        std::optional<perfbench::LadderStep> failed_above;
        for (int r = first_rung;;) {
          const perfbench::LadderStep step = run_rung(c, r);
          if (perfbench::step_passes(step, kP99LimitUs)) {
            rungs.push_back(step);
            if (failed_above) {
              rungs.push_back(*failed_above);
              break;
            }
            if (++r == w->ladder_rungs) break;
          } else if (rungs.empty() && r > 0) {
            failed_above = step;
            --r;
          } else {
            rungs.push_back(step);
            break;
          }
        }
        climbs.push_back(perfbench::ladder_result(rungs, kP99LimitUs, top_rate));
        if (c == 0) first_rung = std::max(0, climbs[0].passed - 3);
        std::fprintf(stderr, "ladder climb %d: max %.0f/s after %d rungs%s\n", c,
                     climbs.back().max_qps, climbs.back().passed,
                     climbs.back().capped ? " (capped)" : "");
      }
    }
    std::vector<double> climb_max;
    int capped_climbs = 0;
    for (const auto& c : climbs) {
      climb_max.push_back(c.max_qps);
      capped_climbs += c.capped ? 1 : 0;
    }
    const perfbench::LadderResult& ladder = climbs.back();
    engine->stop();
    const ServeStats read_stats = engine->stats();
    engine.reset();
    store.reset();

    // ---- 6. online updates beside reads ------------------------------------
    auto online_store = ModelStore::from_checkpoint_file(net_cfg, ckpt, 1);
    InferenceEngine online(online_store, serve_cfg);
    auto master = std::make_shared<Network>(net_cfg, 1);
    WallTimer load_timer;
    {
      Span span("core.checkpoint_load");
      load_weights_file(*master, ckpt);
    }
    const double load_s = load_timer.seconds();
    OnlineUpdateConfig ocfg;
    ocfg.learning_rate = 1e-3f;
    ocfg.publish_every = kPublishEvery;
    ocfg.rebuild_threads = 1;
    ocfg.seed = args.seed + 0x0511DE;
    online.enable_online_updates(master, ocfg);

    struct UpdateCall {
      std::int64_t start = 0, end = 0;
      std::uint64_t version = 0;
      bool published = false;
      std::size_t samples = 0;
    };
    std::vector<UpdateCall> calls;
    calls.reserve(1 << 16);
    std::string update_error;
    VersionWatch watch;
    LoadResult online_load;
    std::uint64_t churn_added = 0, churn_retired = 0;
    double online_wall = 0.0;
    {
      PhaseClock clock(phases, "serve.online", 3);
      WallTimer online_timer;
      std::atomic<bool> stop{false};
      // Label churn at kChurnPerMinute of the label space, whatever the
      // publish cycle's length: every call appends the units due by the
      // elapsed time and retires as many of the oldest units appended in
      // an earlier publish cycle, so the live label count stays about flat.
      const double churn_per_s =
          kChurnPerMinute / 60.0 * static_cast<double>(test.label_dim());
      std::thread updater([&] {
        const auto samples = train.samples();
        std::deque<std::pair<Index, long>> pending;  // unit, publish cycle
        std::size_t sc = static_cast<std::size_t>(args.seed) * 977;
        std::uint64_t version = online_store->version();
        try {
          for (long call = 0; !stop.load(std::memory_order_relaxed); ++call) {
            const long cycle = call / kPublishEvery;
            OnlineDelta delta;
            const std::uint64_t due =
                perfbench::units_due(churn_per_s, online_timer.seconds()) - churn_added;
            delta.add_units = static_cast<Index>(due);
            while (delta.retire.size() < due && !pending.empty() &&
                   pending.front().second < cycle) {
              delta.retire.push_back(pending.front().first);
              pending.pop_front();
            }
            for (int k = 0; k < kUpdateSamples; ++k)
              delta.samples.push_back(samples[sc++ % samples.size()]);
            const Index first_new = master->output_dim();
            // Raised before the call: answers may name units it appends.
            label_limit.store(first_new + delta.add_units, std::memory_order_release);
            UpdateCall c;
            c.start = now_ns();
            {
              Span span("serve.update");
              c.version = online.update(delta);
            }
            c.end = now_ns();
            for (Index u = 0; u < delta.add_units; ++u) pending.emplace_back(first_new + u, cycle);
            churn_added += delta.add_units;
            churn_retired += delta.retire.size();
            c.published = c.version != version;
            version = c.version;
            c.samples = delta.samples.size();
            calls.push_back(c);
          }
        } catch (const std::exception& e) {
          update_error = e.what();
        }
      });
      online_load = open_loop(online, *online_store, queries, cursor,
                              {w->online_qps, online_seconds, 4096,
                               &label_limit, &watch});
      stop.store(true);
      updater.join();
      online_wall = online_timer.seconds();
    }
    std::remove(ckpt.c_str());
    account(out, online_load, "online");
    if (!update_error.empty()) out.fail("online: update threw: " + update_error);
    out.attempted += calls.size();
    // Measured churn, in percent of the label space per minute.
    const double churn_pct_per_min =
        100.0 * static_cast<double>(churn_added) /
        static_cast<double>(test.label_dim()) / (online_wall / 60.0);
    // Publish lag: from the start of the publishing update() call to the
    // first response carrying that version or a newer one.
    std::vector<double> lag_ms, publish_ms, update_ms, visible_ms;
    {
      std::vector<std::int64_t> first_ge(VersionWatch::kMax + 1, 0);
      for (std::size_t v = VersionWatch::kMax; v-- > 0;) {
        const std::int64_t t = watch.first_seen[v].load();
        const std::int64_t later = first_ge[v + 1];
        first_ge[v] = t == 0 ? later : (later == 0 ? t : std::min(t, later));
      }
      for (const UpdateCall& c : calls) {
        update_ms.push_back(1e-6 * static_cast<double>(c.end - c.start));
        if (!c.published || c.version >= VersionWatch::kMax) continue;
        publish_ms.push_back(1e-6 * static_cast<double>(c.end - c.start));
        const std::int64_t seen = first_ge[c.version];
        if (seen == 0) continue;  // published after the last response
        lag_ms.push_back(1e-6 * static_cast<double>(seen - c.start));
        visible_ms.push_back(1e-6 * static_cast<double>(seen - c.end));
      }
    }
    online.stop();
    const ServeStats online_stats = online.stats();
    if (lag_ms.empty()) out.fail("online: no publish became visible");

    // Update throughput of the calls that did not publish: samples absorbed
    // per second spent inside those update() calls. Publishing is timed by
    // publish_lag_ms.
    std::size_t update_samples = 0;
    double updater_wall = 0.0;
    for (const UpdateCall& c : calls) {
      if (c.published) continue;
      update_samples += c.samples;
      updater_wall += 1e-9 * static_cast<double>(c.end - c.start);
    }

    // ---- per-layer metrics -------------------------------------------------
    const double per_step = 1.0 / static_cast<double>(w->steps - w->warmup_steps);
    const auto spans = tracer.spans();
    auto p = [&](const char* name, double q) {
      return perfbench::quantile(durations_us(spans, name), q).value;
    };
    const double predict_p50 = perfbench::quantile(predict_us, 0.5).value;
    const double serve_p50 = perfbench::quantile(nominal.latency_us, 0.5).value;
    const double engine_p50 = nominal.after.latency.p50_us;
    // Reconciliation: the engine's own p50 lies between the bare model call
    // and the latency seen from outside. The engine's histogram has four
    // buckets per octave, so its p50 may read up to one bucket (2^0.25)
    // above the exact one.
    const bool serve_ok = engine_p50 >= predict_p50 &&
                          engine_p50 <= serve_p50 * std::pow(2.0, 0.25);
    if (!serve_ok)
      out.fail("trace: engine p50 " + std::to_string(engine_p50) +
               " us is not between predict p50 " + std::to_string(predict_p50) +
               " us and served p50 " + std::to_string(serve_p50) + " us");
    const std::uint64_t nominal_batches = nominal.after.batches - nominal.before.batches;
    // The highest percentile with at least ten samples beyond it.
    const auto tail = perfbench::quantile(
        nominal.latency_us,
        perfbench::highest_supported_quantile(nominal.latency_us.size()));
    const double bytes_per_weight = 4.0;  // fp32 serving precision
    const MemoryFootprint mem = served.memory_footprint();
    double steal_num = 0.0, steal_den = 0.0;
    for (const auto& ph : phases) {
      steal_num += ph.steal_ratio * ph.seconds;
      steal_den += ph.seconds;
    }
    layer["data.generate_s"] = {perfbench::median(generate_s), "s"};
    layer["data.batch_us"] = {p("data.batch", 0.5), "us"};
    layer["core.step_ms_p50"] = {1e-3 * p("core.step", 0.5), "ms"};
    layer["core.step_ms_p99"] = {1e-3 * p("core.step", 0.99), "ms"};
    layer["core.rebuild_ms"] = {perfbench::median(rebuild_ms), "ms"};
    layer["core.checkpoint_save_s"] = {save_s, "s"};
    layer["core.checkpoint_load_s"] = {load_s, "s"};
    layer["core.predict_us_p50"] = {predict_p50, "us"};
    layer["core.predict_us_p99"] = {perfbench::quantile(predict_us, 0.99).value, "us"};
    layer["core.predict_exact_us_p50"] = {perfbench::quantile(predict_exact_us, 0.5).value, "us"};
    layer["core.eval_s"] = {eval_s_total / std::max(1, evals_run), "s"};
    layer["core.p_at_1_exact"] = {last_p1, "ratio"};
    // Training figures: means over the repeats of times net of hypervisor
    // steal, so a neighbour taking this host's vCPUs does not set them.
    layer["core.train_samples_per_s"] = {perfbench::mean(rep_rate), "1/s"};
    layer["core.time_to_p1_s"] = {perfbench::mean(rep_ttp), "s"};
    layer["serve.latency_p90_us"] = {perfbench::windowed_quantile(nominal.latency_us, 0.9, kWindows), "us"};
    layer["serve.latency_p99_us"] = {perfbench::quantile(nominal.latency_us, 0.99).value, "us"};
    layer["retrieval.index_mb"] = {static_cast<double>(mem.retriever_bytes) / (1 << 20), "MB"};
    layer["retrieval.active_fraction"] = {active_fraction, "ratio"};
    layer["retrieval.recall_at_5"] = {recall_at_5, "ratio"};
    layer["lsh.sampling_s_per_step"] = {(samp1 - samp0) * per_step, "s"};
    layer["simd.score_s_per_step"] = {(comp1 - comp0) * per_step, "s"};
    layer["simd.score_bytes_per_query"] = {
        active_fraction * static_cast<double>(served.output_dim()) *
            static_cast<double>(w->hidden) * bytes_per_weight,
        "bytes"};
    layer["optim.update_s_per_step"] = {(bd1.update_seconds - bd0.update_seconds) * per_step, "s"};
    layer["core.sync_rebuild_s_per_step"] = {(bd1.rebuild_seconds - bd0.rebuild_seconds) * per_step, "s"};
    layer["serve.submit_us_p50"] = {perfbench::quantile(nominal.submit_us, 0.5).value, "us"};
    layer["serve.engine_p50_us"] = {engine_p50, "us"};
    layer["serve.p50_us"] = {serve_p50, "us"};
    layer["serve.overhead_ratio"] = {predict_p50 > 0 ? serve_p50 / predict_p50 : 0.0, "ratio"};
    layer["serve.mean_batch"] = {nominal_batches > 0 ? static_cast<double>(nominal.completed) / static_cast<double>(nominal_batches) : 0.0, "count"};
    layer["serve.batches"] = {static_cast<double>(nominal_batches), "count"};
    layer["serve.gen_late_us_p99"] = {perfbench::quantile(nominal.late_us, 0.99).value, "us"};
    layer["serve.gen_late_us_max"] = {perfbench::quantile(nominal.late_us, 1.0).value, "us"};
    layer["serve.latency_tail_us"] = {tail.value, "us"};
    layer["serve.latency_tail_q"] = {tail.q, "ratio"};
    layer["serve.latency_samples"] = {static_cast<double>(tail.count), "count"};
    layer["serve.ladder_rungs_passed"] = {static_cast<double>(ladder.passed), "count"};
    layer["serve.ladder_capped_climbs"] = {static_cast<double>(capped_climbs), "count"};
    layer["serve.backlog_end_last_pass"] = {ladder.passed > 0 ? static_cast<double>(rungs[static_cast<std::size_t>(ladder.passed - 1)].backlog_end) : 0.0, "count"};
    layer["serve.backlog_end_first_fail"] = {ladder.first_fail >= 0 ? static_cast<double>(rungs[static_cast<std::size_t>(ladder.first_fail)].backlog_end) : 0.0, "count"};
    layer["serve.max_qps"] = {perfbench::median(climb_max), "1/s"};
    layer["serve.publish_lag_ms"] = {perfbench::median(lag_ms), "ms"};
    layer["serve.update_samples_per_s"] = {static_cast<double>(update_samples) / updater_wall, "1/s"};
    layer["serve.update_ms_p50"] = {perfbench::median(update_ms), "ms"};
    layer["serve.publish_ms_p50"] = {perfbench::median(publish_ms), "ms"};
    layer["serve.visible_ms_p50"] = {perfbench::median(visible_ms), "ms"};
    layer["serve.publishes"] = {static_cast<double>(publish_ms.size()), "count"};
    layer["serve.swaps_observed"] = {static_cast<double>(online_stats.swaps_observed), "count"};
    layer["serve.churn_pct_per_min"] = {churn_pct_per_min, "%/min"};
    layer["serve.churn_retired"] = {static_cast<double>(churn_retired), "count"};
    const LoadResult* loads[] = {&nominal, &online_load};
    double sent = 0, completed = 0, rejected = 0, wrong = 0, lost = 0;
    for (const LoadResult* l : loads) {
      sent += static_cast<double>(l->sent);
      completed += static_cast<double>(l->completed);
      rejected += static_cast<double>(l->rejected_or_shed);
      wrong += static_cast<double>(l->wrong);
      lost += static_cast<double>(l->lost);
    }
    layer["serve.sent"] = {sent, "count"};
    layer["serve.completed"] = {completed, "count"};
    layer["serve.rejected_or_shed"] = {rejected, "count"};
    layer["serve.shed"] = {static_cast<double>(read_stats.shed_total + online_stats.shed_total), "count"};
    layer["serve.errors"] = {static_cast<double>(read_stats.errors + online_stats.errors), "count"};
    layer["serve.wrong"] = {wrong, "count"};
    layer["serve.lost"] = {lost, "count"};
    layer["sys.core_utilization"] = {core_util, "ratio"};
    layer["sys.cpu_us_per_sample"] = {1e6 * train_cpu / static_cast<double>(w->steps * kBatch), "us"};
    layer["sys.cpu_us_per_request"] = {nominal.completed > 0 ? 1e6 * nominal.cpu_seconds / static_cast<double>(nominal.completed) : 0.0, "us"};
    layer["sys.steal_ratio"] = {steal_den > 0 ? steal_num / steal_den : 0.0, "ratio"};
    layer["sys.weights_mb"] = {static_cast<double>(mem.inference_weight_bytes) / (1 << 20), "MB"};
    // Traced against untraced: median iteration of the traced repeat over
    // the median iteration of the others.
    layer["trace.overhead_ratio"] = {perfbench::median(traced_iter_s) / perfbench::median(plain_iter_s), "ratio"};
    layer["trace.train_span_coverage"] = {span_coverage, "ratio"};
    layer["trace.spans"] = {static_cast<double>(spans.size()), "count"};
    layer["trace.spans_dropped"] = {static_cast<double>(tracer.dropped()), "count"};
    const std::string trace_path = args.workdir + "/trace-" + w->name + ".jsonl";
    if (!tracer.write_jsonl(trace_path))
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n", trace_path.c_str());
    traced_host = ",\"ladder_capped_climbs\":" + std::to_string(capped_climbs) +
                  ",\"ladder_rungs_passed\":" + std::to_string(ladder.passed) +
                  ",\"churn_pct_per_min\":" + json_number(churn_pct_per_min);
  }

  // ---- host and noise record, then the result line -------------------------
  reference_ms.push_back(reference_loop_ms());
  auto json_list = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) s += (s.empty() ? "" : ",") + json_number(x);
    return s;
  };
  std::printf("{\"host\":{\"nproc\":%u,\"simd\":\"%s\",\"workload\":\"%s\","
              "\"scale\":\"%s\",\"seed\":%llu,\"trace\":%d,\"load_avg_start\":%.2f,"
              "\"train_threads\":%d,\"train_repeats\":%d,\"serve_workers\":%d,"
              "\"gen_late_us_p99\":%s,\"gen_late_us_max\":%s,"
              "\"p50_samples\":%zu%s,\"reference_loop_ms\":[%s],"
              "\"train_repeat_rates\":[%s],\"train_repeat_wall_rates\":[%s],"
              "\"train_repeat_ttp_s\":[%s],\"train_repeat_stolen_s\":[%s],\"phases\":[",
              std::thread::hardware_concurrency(),
              simd::to_string(simd::active_level()), w->name, w->scale,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              load_at_start, kTrainThreads, train_repeats, kServeWorkers,
              json_number(perfbench::quantile(nominal.late_us, 0.99).value).c_str(),
              json_number(perfbench::quantile(nominal.late_us, 1.0).value).c_str(),
              nominal.latency_us.size(), traced_host.c_str(),
              json_list(reference_ms).c_str(), json_list(rep_rate).c_str(),
              json_list(rep_wall_rate).c_str(), json_list(rep_ttp).c_str(),
              json_list(rep_stolen_s).c_str());
  for (std::size_t i = 0; i < phases.size(); ++i)
    std::printf("%s{\"name\":\"%s\",\"busy_threads\":%d,\"seconds\":%.4f,"
                "\"steal_ratio\":%.5f,\"idle_ratio\":%.4f}",
                i ? "," : "", phases[i].name, phases[i].busy_threads,
                phases[i].seconds, phases[i].steal_ratio, phases[i].idle_ratio);
  std::printf("],\"violations\":[");
  for (std::size_t i = 0; i < out.violations.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", out.violations[i].c_str());
  std::printf("]}}\n");

  const auto& metrics = args.trace ? layer : e2e;
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
