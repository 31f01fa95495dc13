// In-memory span recorder for the traced run. Spans are taken only in the
// benchmark's own code, around calls into the library's public API; each
// carries a name, start, end, parent span and request id. Recording is off
// unless enable() was called, in which case every span is appended under a
// mutex and written out once, at exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  void enable(std::size_t capacity) {
    spans_.reserve(capacity);
    capacity_ = capacity;
    enabled_.store(true, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Pauses or resumes recording without dropping what was recorded.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const {
    return enabled() && recording_.load(std::memory_order_relaxed);
  }

  std::uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }

  void add(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() < capacity_)
      spans_.push_back(span);
    else
      ++dropped_;
  }

  /// Copy of everything recorded so far.
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Writes one JSON object per span. Returns false on an I/O failure.
  bool write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_)
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    return std::fclose(f) == 0;
  }

  /// The innermost open span on this thread (0 = none).
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> recording_{true};
  std::atomic<std::uint64_t> ids_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;      // guarded by mutex_
};

/// RAII span around one call: nests under the thread's open span.
class Span {
 public:
  /// A null `name` records nothing.
  explicit Span(const char* name, std::uint64_t request = 0) {
    Tracer& t = Tracer::get();
    if (name == nullptr || !t.recording()) return;
    record_.name = name;
    record_.id = t.next_id();
    record_.parent = Tracer::current();
    record_.request = request;
    Tracer::current() = record_.id;
    record_.start_ns = now_ns();
  }
  ~Span() {
    if (record_.id == 0) return;
    record_.end_ns = now_ns();
    Tracer::current() = record_.parent;
    Tracer::get().add(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
};

/// Records an already-measured interval (e.g. a request's life, which
/// starts on the sending thread and ends in a worker's callback).
inline void record_span(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint64_t request,
                        std::uint64_t parent = 0) {
  Tracer& t = Tracer::get();
  if (!t.recording()) return;
  t.add({name, t.next_id(), parent, request, start_ns, end_ns});
}

}  // namespace perfbench
