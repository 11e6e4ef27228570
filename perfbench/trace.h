// In-memory span tracer for the benchmark driver.
//
// Every call the driver makes into a gkll module is wrapped in a Scope
// naming that module (its directory under src/).  When tracing is off a
// Scope is one branch; when on it appends {layer, parent, start, end} to a
// per-thread buffer, and the buffers are merged only at the end of the
// run.  A span's self time is its duration minus the durations of its
// direct children, so nested driver spans ("bench.*" roots around layer
// calls) never double-count.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perf {

struct SpanRec {
  const char* layer;
  std::uint32_t parent;  ///< 1-based index into the same buffer; 0 = root
  std::int64_t t0;
  std::int64_t t1;
};

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  bool on = false;

  /// The calling thread's buffer (created and registered on first use).
  std::vector<SpanRec>& buffer() {
    thread_local std::vector<SpanRec>* buf = nullptr;
    if (!buf) {
      std::lock_guard<std::mutex> g(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRec>>());
      buf = buffers_.back().get();
    }
    return *buf;
  }
  std::vector<std::uint32_t>& stack() {
    thread_local std::vector<std::uint32_t> open;
    return open;
  }

  struct LayerTotals {
    std::int64_t selfNs = 0;
    std::int64_t calls = 0;
  };
  /// Self time and call count per layer over every closed span of every
  /// thread.  Call only after all traced threads have joined.
  std::map<std::string, LayerTotals> totals() const {
    std::map<std::string, LayerTotals> out;
    for (const auto& b : buffers_) {
      std::vector<std::int64_t> childNs(b->size(), 0);
      for (const SpanRec& r : *b)
        if (r.parent != 0) childNs[r.parent - 1] += r.t1 - r.t0;
      for (std::size_t i = 0; i < b->size(); ++i) {
        LayerTotals& t = out[(*b)[i].layer];
        t.selfNs += ((*b)[i].t1 - (*b)[i].t0) - childNs[i];
        ++t.calls;
      }
    }
    return out;
  }
  std::size_t spanCount() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->size();
    return n;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers_;
};

/// RAII span around one call into `layer` (a string literal).
class Scope {
 public:
  explicit Scope(const char* layer) {
    Tracer& t = Tracer::get();
    if (!t.on) return;
    std::vector<SpanRec>& buf = t.buffer();
    std::vector<std::uint32_t>& open = t.stack();
    buf.push_back({layer, open.empty() ? 0u : open.back(), nowNs(), 0});
    index_ = static_cast<std::uint32_t>(buf.size());
    open.push_back(index_);
  }
  ~Scope() {
    if (index_ == 0) return;
    Tracer& t = Tracer::get();
    t.buffer()[index_ - 1].t1 = nowNs();
    t.stack().pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t index_ = 0;
};

}  // namespace perf
