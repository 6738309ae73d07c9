// Harness-side span recorder for the traced run of the benchmark of record.
//
// A span brackets one call the harness makes into a library layer: name,
// start, end, the span that caused it, an optional request id, and the
// getrusage deltas (user+sys CPU, minor faults) across the call — the
// per-phase accounting Metis' mr-sched.c does around each of its phases.
// Spans live in memory and are written as JSON lines when the run ends;
// run.py reduces them to self time. Nothing here touches src/: the library
// is observed only from the outside, around its public calls.

#ifndef MINOAN_PERFBENCH_SPANS_H_
#define MINOAN_PERFBENCH_SPANS_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Which getrusage scope a span charges. kProcess covers pool workers a
/// sequential caller fans out to; kThread keeps concurrent client threads
/// from charging each other's CPU.
enum class Usage { kProcess, kThread };

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t rid = 0;     // request id (served traffic), 0 otherwise
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
  int64_t minflt = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }

  void Append(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// One JSON object per line, in completion order.
  void WriteJsonLines(std::ostream& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"cpu_ns\":" << s.cpu_ns << ",\"minflt\":" << s.minflt
          << "}\n";
    }
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span. A null recorder makes it a no-op, so traced and untraced
/// code paths share one spelling.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t parent,
             Usage usage = Usage::kProcess, uint64_t rid = 0)
      : recorder_(recorder), usage_(usage) {
    if (recorder_ == nullptr) return;
    span_.name = std::move(name);
    span_.id = recorder_->NextId();
    span_.parent = parent;
    span_.rid = rid;
    ReadUsage(cpu0_, flt0_);
    span_.start_ns = recorder_->NowNs();
  }
  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_ns = recorder_->NowNs();
    int64_t cpu1 = 0;
    int64_t flt1 = 0;
    ReadUsage(cpu1, flt1);
    span_.cpu_ns = cpu1 - cpu0_;
    span_.minflt = flt1 - flt0_;
    recorder_->Append(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id to pass as the parent of nested spans (0 when untraced).
  uint64_t id() const { return span_.id; }

 private:
  void ReadUsage(int64_t& cpu_ns, int64_t& minflt) const {
    struct rusage ru {};
    getrusage(usage_ == Usage::kThread ? RUSAGE_THREAD : RUSAGE_SELF, &ru);
    const auto ns = [](const timeval& tv) {
      return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
             static_cast<int64_t>(tv.tv_usec) * 1'000;
    };
    cpu_ns = ns(ru.ru_utime) + ns(ru.ru_stime);
    minflt = static_cast<int64_t>(ru.ru_minflt);
  }

  SpanRecorder* recorder_;
  Usage usage_;
  Span span_;
  int64_t cpu0_ = 0;
  int64_t flt0_ = 0;
};

}  // namespace perfbench

#endif  // MINOAN_PERFBENCH_SPANS_H_
