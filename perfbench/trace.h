// In-memory span recorder for the benchmark's traced run.
//
// A Tracer belongs to one thread. Spans nest: begin() makes the new span
// a child of the innermost open one, so a layer's self time is its
// duration minus the durations of its direct children. Spans are kept in
// memory and written out once the run ends (write_jsonl), so recording
// costs two clock reads and a vector push per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";     ///< static string: the layer it covers
  std::uint64_t job = 0;     ///< spans of one job share this id
  std::uint32_t id = 0;      ///< index in its tracer, 1-based
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint32_t begin(const char* name, std::uint64_t job) {
    Span s;
    s.name = name;
    s.job = job;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  void end(std::uint32_t id) {
    spans_[id - 1].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time summed per (job, span name): each span's duration minus
  /// its direct children's.
  std::map<std::uint64_t, std::map<std::string, double>> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child[s.parent - 1] += s.seconds();
    }
    std::map<std::uint64_t, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].job][spans_[i].name] += spans_[i].seconds() - child[i];
    }
    return out;
  }

  /// One JSON object per line; `track` tells tracers apart.
  void write_jsonl(std::FILE* f, int track) const {
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"job\":%llu,\"track\":%d,\"id\":%u,"
                   "\"parent\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.job), track, s.id,
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t job)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, job) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
