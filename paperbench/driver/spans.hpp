// SpanLog — the benchmark's in-memory span recorder.
//
// A span is one timed interval at a layer boundary: a name, start and end on
// one monotonic clock, the span that enclosed it, the run (one repetition of
// one configuration) it belongs to, and the track (configuration) it is drawn
// on. Spans nest strictly (the benchmark is single-threaded), so a span's self
// time is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace paperbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< Index of the enclosing span, -1 for a root.
  int run = -1;
  int track = 0;
};

/// Per-name totals of one run: `self` subtracts the children, `total` does not.
struct SpanSums {
  std::map<std::string, double> self;
  std::map<std::string, double> total;
};

class SpanLog {
 public:
  /// Registers a track (one per configuration) and returns its id.
  int track(const std::string& label);

  /// Opens a span under the innermost open span; returns its index.
  int open(std::string name, int run, int track);

  /// Closes span `id` and every span still open inside it.
  void close(int id);

  std::size_t size() const { return spans_.size(); }

  /// Self and total seconds per span name over the spans [first, size()).
  /// A span whose parent is named "resume" is keyed "resume/<name>".
  SpanSums sums_since(std::size_t first) const;

  /// Writes every span as a Chrome trace_event document: one thread_name
  /// metadata event per track, then one complete ("X") event per span with
  /// its id, parent and run in args. Timestamps are microseconds since the
  /// first span.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> tracks_;
};

/// RAII span: opens on construction when `log` is non-null, closes on every
/// exit path (a crash injected mid-unit leaves run_step by exception).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int run, int track)
      : log_(log), id_(log ? log->open(name, run, track) : -1) {}
  ~SpanScope() {
    if (log_) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace paperbench
