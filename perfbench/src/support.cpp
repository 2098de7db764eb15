#include "support.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using paremsp::Coord;

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

std::size_t min_samples_for(double p, std::size_t tail) {
  std::size_t n = 1;
  while (true) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - std::max<std::size_t>(rank, 1) >= tail) return n;
    ++n;
  }
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

std::vector<double> block_rates(const std::vector<double>& ready_s,
                                std::size_t block) {
  std::vector<double> rates;
  for (std::size_t b = 0; block > 0 && (b + 1) * block < ready_s.size(); ++b) {
    const double span = ready_s[(b + 1) * block] - ready_s[b * block];
    if (span > 0.0) rates.push_back(static_cast<double>(block) / span);
  }
  return rates;
}

void Accounting::record_exception(const std::exception_ptr& error) {
  std::string message;
  try {
    std::rethrow_exception(error);
  } catch (const paremsp::DeadlineExceededError& e) {
    ++shed;
    message = e.what();
  } catch (const paremsp::CancelledError& e) {
    ++shed;
    message = e.what();
  } catch (const std::exception& e) {
    ++failed;
    message = e.what();
  } catch (...) {
    ++failed;
    message = "non-standard exception";
  }
  if (first_error.empty()) first_error = message;
}

void Accounting::merge(const Accounting& other) {
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  shed += other.shed;
  mismatched += other.mismatched;
  if (first_error.empty()) first_error = other.first_error;
}

paremsp::GrayImage render_gray_from_mask(const paremsp::BinaryImage& mask,
                                         std::uint64_t seed, int cutoff) {
  if (cutoff < 0 || cutoff > 254) {
    throw std::invalid_argument("cutoff must be within [0, 254]");
  }
  paremsp::GrayImage gray(mask.rows(), mask.cols());
  const auto below = static_cast<std::uint64_t>(cutoff) + 1;  // [0, cutoff]
  const std::uint64_t above = 255 - below + 1;  // [cutoff + 1, 255]
  std::uint64_t state = seed;
  for (Coord r = 0; r < mask.rows(); ++r) {
    const std::uint8_t* src = mask.row(r);
    std::uint8_t* dst = gray.row(r);
    for (Coord c = 0; c < mask.cols(); ++c) {
      const std::uint64_t x = derive_seed(state, static_cast<std::uint64_t>(c));
      dst[c] = src[c] != 0 ? static_cast<std::uint8_t>(below + x % above)
                           : static_cast<std::uint8_t>(x % below);
    }
    state = derive_seed(state, 0x9e37U + static_cast<std::uint64_t>(r));
  }
  return gray;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

LabelDiff compare_labels(ConstLabelView got, ConstLabelView want) {
  LabelDiff diff;
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    diff.mismatches = std::max(got.size(), want.size());
    return diff;
  }
  for (Coord r = 0; r < want.rows(); ++r) {
    const paremsp::Label* g = got.row(r);
    const paremsp::Label* w = want.row(r);
    if (std::equal(g, g + want.cols(), w)) continue;
    for (Coord c = 0; c < want.cols(); ++c) diff.mismatches += g[c] != w[c];
  }
  return diff;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::begin(std::string name, int parent, int request) {
  Span span;
  span.name = std::move(name);
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

double Tracer::total_ms(std::string_view name, int request) const {
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || span.name != name) continue;
    if (request >= 0 && span.request != request) continue;
    ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":" << json_string(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << json_number(static_cast<double>(span.start_ns) / 1e3)
        << ",\"dur\":"
        << json_number(static_cast<double>(span.end_ns - span.start_ns) /
                       1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += ' ';
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace perfbench
