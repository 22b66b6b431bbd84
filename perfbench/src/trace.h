/// \file trace.h
/// \brief In-memory span recorder for the traced run. The benchmark
/// wraps each call it makes into a library layer in a ScopedSpan; spans
/// carry a name ("<layer>.<call>"), start, end, parent span and request
/// id. Each thread appends to its own buffer (no lock on the hot path);
/// buffers are owned by the Tracer and read after the workload ends.
/// Self time (a span's duration minus the part of it its children
/// cover) is computed afterwards by ComputeSelfTimes.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr uint64_t kNoSpan = ~uint64_t{0};

struct Span {
  const char* name = "";  ///< string literal, "<layer>.<call>"
  uint64_t id = kNoSpan;
  uint64_t parent = kNoSpan;  ///< kNoSpan for a request's root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Self time of every span, index-aligned with `spans`: its
/// duration minus the length of the union of its children's intervals
/// clipped to its own. Children may run on other threads and overlap
/// each other; a child whose parent is not in `spans` is ignored.
std::vector<int64_t> ComputeSelfTimes(const std::vector<Span>& spans);

/// \brief The layer a span name belongs to: the text before the first
/// '.', e.g. "emg" for "emg.condition".
std::string LayerOf(const std::string& span_name);

/// Per-name aggregate of a set of spans.
struct SpanStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 /
                                  static_cast<double>(count);
  }
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per span.
  Tracer(bool enabled, size_t max_spans_per_thread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// True once any thread's buffer is at least 7/8 full; a workload
  /// stops starting traced requests then, so no span is ever dropped
  /// from a request in progress.
  bool nearly_full() const;

  /// Appends a finished span to the calling thread's buffer. Returns
  /// the span's id (unique within this tracer).
  uint64_t NewId();
  void Record(const Span& span);

  /// All recorded spans, grouped by thread in recording order.
  std::vector<Span> Collect() const;
  uint64_t dropped() const;

  /// Aggregates `spans` by name and by layer (self times included).
  static std::map<std::string, SpanStats> ByName(
      const std::vector<Span>& spans);
  static std::map<std::string, SpanStats> ByLayer(
      const std::vector<Span>& spans);

  /// Writes spans as TSV (name, id, parent, request, start, end, self)
  /// to `path`; false when the file cannot be written.
  static bool WriteTsv(const std::vector<Span>& spans,
                       const std::string& path);

 private:
  struct ThreadBuffer {
    uint64_t thread_index = 0;
    std::atomic<uint64_t> next_local{0};  // read by nearly_full()
    uint64_t dropped = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* Local();

  const bool enabled_;
  const size_t max_spans_per_thread_;
  const uint64_t instance_;
  mutable std::mutex mu_;  // guards buffers_ (the vector, not contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// \brief RAII span: stamps the start on construction and records the
/// span on destruction (or at End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint64_t parent = kNoSpan);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Renames the span before it ends (e.g. once its outcome is known).
  void Rename(const char* name) { span_.name = name; }
  void End();

 private:
  Tracer* tracer_;  // null when tracing is off
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
