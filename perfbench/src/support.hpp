// Helpers of the engine benchmark (perfbench/src/main.cpp): the percentile
// rule, the single-producer closed loop with failure accounting,
// the grayscale renderer for the stream workload, the label verifier, an
// in-memory span recorder, and host/process probes. Everything here is
// benchmark-side code; the library is reached only through its public
// headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/qos.hpp"
#include "image/raster.hpp"
#include "image/view.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Percentile rule -------------------------------------------------------

/// A timing is reported at a percentile only when at least this many
/// samples lie beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile of a sample set, with the counts that decide
/// whether it may be reported.
struct Percentile {
  double value = 0.0;       // sorted[rank - 1], rank = ceil(p / 100 * n)
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // n - rank: samples strictly after the rank
  [[nodiscard]] bool resolved() const noexcept {
    return beyond >= kTailSamples;
  }
};

/// Nearest-rank p-th percentile (p in (0, 100]). Empty input gives a
/// zero Percentile with samples == 0.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double p);

/// Smallest sample count n for which percentile p leaves at least `tail`
/// samples beyond its rank (100 for p90 with the default tail).
[[nodiscard]] std::size_t min_samples_for(double p,
                                          std::size_t tail = kTailSamples);

/// Median by the nearest-rank rule (percentile 50).
[[nodiscard]] double median(std::vector<double> samples);

// --- Failure accounting ------------------------------------------------------

/// Outcome counts of a request loop. Every attempted request ends as
/// exactly one of completed, failed, shed or mismatched.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;   // returned and passed its output check
  std::uint64_t failed = 0;      // submit or future threw (not QoS)
  std::uint64_t shed = 0;        // DeadlineExceededError / CancelledError
  std::uint64_t mismatched = 0;  // returned, but the output check failed
  std::string first_error;       // message of the first failure, if any

  [[nodiscard]] std::uint64_t errors() const noexcept {
    return failed + shed + mismatched;
  }
  /// (failed + shed + mismatched) / attempted; 0 when nothing ran.
  [[nodiscard]] double error_rate() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(errors()) /
                                static_cast<double>(attempted);
  }
  /// Classify an exception thrown by submit or by a future.
  void record_exception(const std::exception_ptr& error);
  void merge(const Accounting& other);
};

/// Result of one closed loop.
struct LoopResult {
  std::vector<double> latency_ms;  // completed requests, call -> ready
  std::vector<double> ready_s;     // completed requests, loop start -> ready
  Accounting acct;
};

/// Rates block / (time the block took) over consecutive blocks of
/// `block` completions, from ascending completion times. Reporting the
/// median of block rates rather than one rate over the whole window means
/// a stall in one block (a stolen CPU, a client-side check) moves one
/// sample, not the result.
[[nodiscard]] std::vector<double> block_rates(
    const std::vector<double>& ready_s, std::size_t block);

/// Single-producer closed loop: keeps up to `depth` requests in flight,
/// issuing request i only while more(i) is true, and retires them in
/// submission order. submit(i) returns a std::future<R>; check(i, R&)
/// returns whether the output is correct. Latency runs from the submit
/// call to the moment the client sees the future ready (get() returns);
/// the client waits on the oldest request, so a request that finished out
/// of order is seen when it becomes the oldest. A throwing submit or
/// future counts as failed (or shed, for QoS errors) and frees its slot.
template <class Submit, class Check, class More>
LoopResult closed_loop(std::size_t depth, Submit&& submit, Check&& check,
                       More&& more) {
  using Future = decltype(submit(std::size_t{0}));
  struct InFlight {
    std::size_t index;
    Clock::time_point sent;
    Future future;
  };
  LoopResult out;
  std::deque<InFlight> pending;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  while (true) {
    while (pending.size() < depth && more(next)) {
      ++out.acct.attempted;
      const Clock::time_point sent = Clock::now();
      try {
        pending.push_back({next, sent, submit(next)});
      } catch (...) {
        out.acct.record_exception(std::current_exception());
      }
      ++next;
    }
    if (pending.empty()) break;
    InFlight item = std::move(pending.front());
    pending.pop_front();
    try {
      auto response = item.future.get();
      const Clock::time_point ready = Clock::now();
      if (check(item.index, response)) {
        ++out.acct.completed;
        out.latency_ms.push_back(ms_between(item.sent, ready));
        out.ready_s.push_back(ms_between(start, ready) / 1e3);
      } else {
        ++out.acct.mismatched;
      }
    } catch (...) {
      out.acct.record_exception(std::current_exception());
    }
  }
  return out;
}

// --- Inputs -------------------------------------------------------------------

/// Grayscale rendering of a binary mask for the fused-threshold stream
/// path: foreground pixels draw uniformly from [cutoff + 1, 255] and
/// background pixels from [0, cutoff], per pixel from `seed`, so
/// thresholding at pixel > cutoff recovers the mask exactly. cutoff 127
/// is floor(0.5 * 255), the request API's threshold = 0.5.
[[nodiscard]] paremsp::GrayImage render_gray_from_mask(
    const paremsp::BinaryImage& mask, std::uint64_t seed, int cutoff = 127);

/// A seed for one generated input: splitmix of (workload seed, index).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index) noexcept;

// --- Verification ---------------------------------------------------------------

using ConstLabelView = paremsp::StridedView<const paremsp::Label>;

/// Pixel-wise label comparison.
struct LabelDiff {
  std::int64_t mismatches = 0;  // differing pixels (all of them on a shape
                                // mismatch)
  [[nodiscard]] bool identical() const noexcept { return mismatches == 0; }
};

[[nodiscard]] LabelDiff compare_labels(ConstLabelView got,
                                       ConstLabelView want);

// --- Spans ----------------------------------------------------------------------

/// In-memory span recorder for the benchmark's own thread: each span has
/// a name, start, end, the span that caused it and a request id shared
/// by the spans of one request. Written out as a Chrome trace at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;
    int request = -1;
  };

  Tracer();

  /// Open a span; returns its id.
  int begin(std::string name, int parent = -1, int request = -1);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Sum of the durations of the closed spans called `name` whose request
  /// id is `request` (any request when -1), in milliseconds.
  [[nodiscard]] double total_ms(std::string_view name,
                                int request = -1) const;
  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             int request = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), parent, request)
                              : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- Host and process ---------------------------------------------------------------

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] int available_cpus();

/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;  // time the hypervisor ran something else
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Percentage of host CPU time stolen between two readings.
[[nodiscard]] double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// JSON string literal for `s` (quotes included).
[[nodiscard]] std::string json_string(std::string_view s);

/// Shortest round-trip decimal for a double (JSON number; non-finite
/// values become null).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
