#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_instance{1};

// Each thread caches the buffer it owns in the tracer it last used;
// the instance number tells a stale cache from a live one.
struct LocalCache {
  uint64_t instance = 0;
  void* buffer = nullptr;
};
thread_local LocalCache tls_cache;

}  // namespace

std::vector<int64_t> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoSpan) continue;
    auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

Tracer::Tracer(bool enabled, size_t max_spans_per_thread)
    : enabled_(enabled),
      max_spans_per_thread_(max_spans_per_thread),
      instance_(g_next_instance.fetch_add(1)) {}

Tracer::ThreadBuffer* Tracer::Local() {
  if (tls_cache.instance == instance_) {
    return static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->thread_index = buffers_.size();
  buffer->spans.reserve(max_spans_per_thread_);
  buffers_.push_back(std::move(buffer));
  tls_cache.instance = instance_;
  tls_cache.buffer = buffers_.back().get();
  return buffers_.back().get();
}

bool Tracer::nearly_full() const {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    // A stale count only delays the stop by one request.
    if (b->next_local.load(std::memory_order_relaxed) * 8 >=
        max_spans_per_thread_ * 7) {
      return true;
    }
  }
  return false;
}

uint64_t Tracer::NewId() {
  ThreadBuffer* b = Local();
  return (b->thread_index << 40) |
         b->next_local.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const Span& span) {
  ThreadBuffer* b = Local();
  if (b->spans.size() >= max_spans_per_thread_) {
    ++b->dropped;
    return;
  }
  b->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

std::map<std::string, SpanStats> Tracer::ByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = ComputeSelfTimes(spans);
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanStats& s = out[spans[i].name];
    ++s.count;
    s.total_ns += spans[i].end_ns - spans[i].start_ns;
    s.self_ns += self[i];
  }
  return out;
}

std::map<std::string, SpanStats> Tracer::ByLayer(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> out;
  for (const auto& [name, s] : ByName(spans)) {
    SpanStats& l = out[LayerOf(name)];
    l.count += s.count;
    l.total_ns += s.total_ns;
    l.self_ns += s.self_ns;
  }
  return out;
}

bool Tracer::WriteTsv(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = ComputeSelfTimes(spans);
  std::fprintf(f, "name\tid\tparent\trequest\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\t%llu\t%lld\t%llu\t%lld\t%lld\t%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 s.parent == kNoSpan ? -1LL
                                     : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

void ScopedSpan::End() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
  tracer_ = nullptr;
}

}  // namespace perfbench
