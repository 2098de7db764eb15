// Engine benchmark program: one process, one workload, one seed.
//
//   perfbench --workload <batch_small|scene_sharded|stream_tall>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out-dir <dir>]
//
// Every workload is a closed loop from one producer thread against the
// public engine API (LabelingEngine::submit(LabelRequest), open_stream)
// with workers = available CPUs. Every output is checked against
// sequential AREMSP (8-connectivity); a mismatch counts in the error
// rate and makes the process exit nonzero.
//
// --trace 0 measures the end-to-end metrics with no span recording.
// --trace 1 is the separate traced run: it times an untraced and a traced
// request loop (their difference is the tracing overhead), reads the
// engine's response timings, and replays the layers of the workload's
// path by calling their public functions on the same inputs, each call
// wrapped in a span recorded by this file. Spans are written to a Chrome
// trace file in --out-dir.
//
// The last line of stdout is the result object
//   {"correct", "attempted", "failed", "metrics"}
// preceded by a human-readable summary and one "report " line holding the
// self-describing record (host, workload contract, seed, sample counts,
// checks), which is also written to --out-dir.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "core/runs.hpp"
#include "core/tiled_phases.hpp"
#include "engine/engine.hpp"
#include "engine/stream_session.hpp"
#include "image/generators.hpp"
#include "image/row_bits.hpp"
#include "stream/slab_session.hpp"
#include "support.hpp"
#include "unionfind/lock_pool.hpp"
#include "unionfind/parallel_rem.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace paremsp;
using perfbench::Accounting;
using perfbench::Clock;
using perfbench::LoopResult;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using perfbench::closed_loop;
using perfbench::compare_labels;
using perfbench::derive_seed;
using perfbench::median;
using perfbench::ms_between;
using perfbench::percentile;

// Metric names, in BENCHMARK.json order. --trace 0 reports exactly the
// end-to-end list, --trace 1 exactly the per-layer list; a per-layer
// metric whose layer the workload's path never calls reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"mpx_per_s", "Mpx/s"},      {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"image.extract_ms", "ms"},
    {"image.runs", "count"},
    {"core.scan_ms", "ms"},
    {"core.provisional_labels", "count"},
    {"core.resolve_ms", "ms"},
    {"core.rewrite_ms", "ms"},
    {"core.run_ms", "ms"},
    {"analysis.fused_stats_ms", "ms"},
    {"core.seq_ref_ms", "ms"},
    {"unionfind.merge_ms", "ms"},
    {"unionfind.merge_pairs", "count"},
    {"unionfind.merge_unions", "count"},
    {"unionfind.merge_retries", "count"},
    {"engine.queue_wait_ms", "ms"},
    {"engine.phase_scan_ms", "ms"},
    {"engine.phase_merge_ms", "ms"},
    {"engine.phase_flatten_ms", "ms"},
    {"engine.phase_rewrite_ms", "ms"},
    {"engine.scan_efficiency", "ratio"},
    {"engine.rewrite_efficiency", "ratio"},
    {"engine.unattributed_ms", "ms"},
    {"stream.push_slab_ms", "ms"},
    {"stream.finish_ms", "ms"},
    {"stream.remap_ms", "ms"},
    {"stream.chain_gap_ms", "ms"},
    {"stream.seam_state_bytes", "bytes"},
    {"stream.slab_working_bytes", "bytes"},
    {"trace.overhead_pct", "%"},
};

// The scene replay's layer sum (scan + merge + resolve + rewrite) must
// land within this share of warm sequential aremsp_rle on the same image.
constexpr double kReconcileTolerance = 0.25;

// A timed loop keeps going past its time until the percentile rule has
// its samples, but never longer than this past it (a run has at most 8
// timed loops, so this keeps a run well inside its time limit).
constexpr double kOvertimeS = 10.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<batch_small|scene_sharded|stream_tall> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--out-dir <dir>]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--commit") {
        o.commit = value;
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

// --- Shared pieces ------------------------------------------------------------

double elapsed_s(Clock::time_point since) {
  return ms_between(since, Clock::now()) / 1e3;
}

/// Sequential AREMSP (8-connectivity): the output oracle of every run.
struct Reference {
  LabelImage labels;
  Label components = 0;
};

Reference reference_of(const BinaryImage& image) {
  const auto aremsp = make_labeler(Algorithm::Aremsp);
  LabelRequest request;
  request.input = image;
  LabelResponse response = aremsp->run(request);
  return {std::move(response.labels), response.num_components};
}

engine::EngineConfig engine_config() {
  engine::EngineConfig config;
  config.workers = perfbench::available_cpus();
  return config;
}

/// Median of a per-request field.
template <class T, class F>
double median_of(const std::vector<T>& items, F field) {
  std::vector<double> values;
  values.reserve(items.size());
  for (const T& item : items) values.push_back(field(item));
  return median(std::move(values));
}

/// Keep a request loop going until `seconds` have passed AND the p90 has
/// its tail samples, with a hard stop kOvertimeS past the deadline.
struct TimedWindow {
  Clock::time_point start = Clock::now();
  double seconds;
  std::size_t min_requests;
  [[nodiscard]] bool more(std::size_t issued) const {
    const double t = elapsed_s(start);
    return (t < seconds || issued < min_requests) && t < seconds + kOvertimeS;
  }
};

/// What a workload hands back to main().
struct Outcome {
  std::string contract;
  std::vector<std::pair<std::string, double>> metrics;
  Accounting acct;
  std::vector<std::string> problems;  // failed checks besides acct
  std::ostringstream notes;           // extra JSON members of the report
  void note(const std::string& key, const std::string& json_value) {
    notes << ',' << perfbench::json_string(key) << ':' << json_value;
  }
  void note(const std::string& key, double v) {
    note(key, perfbench::json_number(v));
  }
  void set(const std::string& name, double v) { metrics.emplace_back(name, v); }
};

/// End-to-end samples of a --trace 0 run, gathered per segment.
struct Pooled {
  std::vector<double> setup_s;
  std::vector<double> rates;  // megapixels per second, one per block
  std::vector<double> p50_ms, p90_ms, p99_ms;  // one per segment
  std::size_t latency_samples = 0;
  std::size_t min_beyond_p90 = SIZE_MAX;
  Accounting acct;

  /// One segment's latencies: its percentiles, by the percentile rule.
  void add_latencies(const std::vector<double>& latency_ms) {
    const perfbench::Percentile p90 = percentile(latency_ms, 90.0);
    p50_ms.push_back(percentile(latency_ms, 50.0).value);
    p90_ms.push_back(p90.value);
    p99_ms.push_back(percentile(latency_ms, 99.0).value);
    latency_samples += p90.samples;
    min_beyond_p90 = std::min(min_beyond_p90, p90.beyond);
  }
  void add_loop(const LoopResult& loop, std::size_t block, double mpx) {
    acct.merge(loop.acct);
    add_latencies(loop.latency_ms);
    for (const double r : perfbench::block_rates(loop.ready_s, block)) {
      rates.push_back(r * mpx);
    }
  }
};

/// One set-up sample: engine construction time plus the time from the
/// first loop's start to its first ready response (the output check that
/// follows is not set-up).
double setup_seconds(double constructed_s, const LoopResult& first) {
  return constructed_s + (first.ready_s.empty() ? 0.0 : first.ready_s[0]);
}

/// The --trace 0 schedule: `segments` rounds, each of `setups` cold
/// set-ups (fresh engine to first completed request, then destroyed)
/// followed by `timed(seconds / segments)`, which builds, warms and times
/// a fresh engine. Spreading set-ups and engines over the whole run puts
/// them under the same host conditions as the timed requests.
void run_segments(const Options& opt, Outcome& out, Pooled& pooled,
                  int segments, int setups, const std::function<double()>& setup,
                  const std::function<void(double)>& timed) {
  for (int s = 0; s < segments; ++s) {
    for (int i = 0; i < setups; ++i) pooled.setup_s.push_back(setup());
    timed(opt.seconds / segments);
  }
  out.acct.merge(pooled.acct);
  out.set("mpx_per_s", median(pooled.rates));
  // Latency percentiles per segment, then the median across segments, so
  // a segment under a burst of host contention moves one sample.
  out.set("latency_p50_ms", median(pooled.p50_ms));
  out.set("latency_p90_ms", median(pooled.p90_ms));
  out.set("setup_s", median(pooled.setup_s));
  out.note("latency_p99_ms", median(pooled.p99_ms));
  out.note("latency_samples", static_cast<double>(pooled.latency_samples));
  out.note("latency_p90_min_beyond",
           static_cast<double>(pooled.min_beyond_p90));
  out.note("setup_samples", static_cast<double>(pooled.setup_s.size()));
  out.note("rate_blocks", static_cast<double>(pooled.rates.size()));
  out.note("segments", segments);
  if (pooled.min_beyond_p90 < perfbench::kTailSamples) {
    out.problems.push_back("a segment left only " +
                           std::to_string(pooled.min_beyond_p90) +
                           " samples beyond latency_p90_ms (rule: >= 10)");
  }
}

/// Tracing overhead: traced vs untraced p50 of the same loop.
void report_overhead(Outcome& out, const LoopResult& plain,
                     const LoopResult& traced) {
  const double base = median(plain.latency_ms);
  const double with = median(traced.latency_ms);
  out.set("trace.overhead_pct", base > 0.0 ? 100.0 * (with - base) / base : 0.0);
  out.note("untraced_p50_ms", base);
  out.note("traced_p50_ms", with);
}

/// One engine response of a traced loop: client-seen latency plus the
/// engine's own timings and counters.
struct ResponseSample {
  double latency_ms;
  PhaseTimings timings;
};

/// The engine.* per-layer metrics that come from response timings, as
/// medians over the responses. Returns the scan and rewrite phase
/// medians for the efficiency ratios.
std::pair<double, double> report_response_timings(
    Outcome& out, const std::vector<ResponseSample>& samples) {
  auto med = [&](auto field) { return median_of(samples, field); };
  const double scan =
      med([](const ResponseSample& s) { return s.timings.scan_ms; });
  const double rewrite =
      med([](const ResponseSample& s) { return s.timings.relabel_ms; });
  out.set("engine.queue_wait_ms",
          med([](const ResponseSample& s) { return s.timings.queue_wait_ms; }));
  out.set("engine.phase_scan_ms", scan);
  out.set("engine.phase_merge_ms",
          med([](const ResponseSample& s) { return s.timings.merge_ms; }));
  out.set("engine.phase_flatten_ms",
          med([](const ResponseSample& s) { return s.timings.flatten_ms; }));
  out.set("engine.phase_rewrite_ms", rewrite);
  out.set("engine.unattributed_ms", med([](const ResponseSample& s) {
            return s.latency_ms - s.timings.queue_wait_ms -
                   s.timings.phase_sum_ms();
          }));
  return {scan, rewrite};
}

void write_trace(const Options& opt, Outcome& out, const Tracer& tracer) {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  tracer.write_chrome_trace(path);
  out.note("trace_file", perfbench::json_string(path));
}

// --- batch_small ------------------------------------------------------------------
//
// 24 distinct 256x256 images (landcover / texture / aerial x 8 seeds)
// through a default-config engine (pixel AREMSP workers), 8 requests in
// flight, alternating labels-only and labels+stats, label_out pointing
// into 8 caller planes reused round-robin.

constexpr Coord kBatchSide = 256;
constexpr int kBatchSeeds = 8;
constexpr std::size_t kBatchDepth = 8;

class BatchClient {
 public:
  explicit BatchClient(std::uint64_t seed) {
    for (int s = 0; s < kBatchSeeds; ++s) {
      for (int kind = 0; kind < 3; ++kind) {
        const std::uint64_t k =
            derive_seed(seed, static_cast<std::uint64_t>(s * 3 + kind));
        images_.push_back(
            kind == 0   ? gen::landcover_like(kBatchSide, kBatchSide, k)
            : kind == 1 ? gen::texture_like(kBatchSide, kBatchSide, k)
                        : gen::aerial_like(kBatchSide, kBatchSide, k));
        Reference ref = reference_of(images_.back());
        ref_stats_.push_back(analysis::compute_stats(ref.labels, ref.components));
        refs_.push_back(std::move(ref));
      }
    }
    planes_.assign(kBatchDepth, LabelImage(kBatchSide, kBatchSide));
    start_loop();
  }

  [[nodiscard]] std::size_t images() const noexcept { return images_.size(); }
  [[nodiscard]] const BinaryImage& image(std::size_t j) const {
    return images_[j];
  }

  /// Request i: image i mod 24, stats on odd i, labels into plane i mod 8
  /// (free again: request i - 8 retired before request i is issued).
  [[nodiscard]] LabelRequest request(std::size_t i) {
    LabelRequest request;
    request.input = images_[i % images_.size()];
    request.outputs.stats = i % 2 == 1;
    request.label_out = MutableImageView(planes_[i % kBatchDepth]);
    return request;
  }

  /// Count (and stats, when asked) on every response; the label plane of
  /// each distinct image once per loop.
  [[nodiscard]] bool check(std::size_t i, const LabelResponse& response) {
    const std::size_t j = i % images_.size();
    if (response.num_components != refs_[j].components) return false;
    if (i % 2 == 1 && (!response.stats.has_value() ||
                       response.stats->components != ref_stats_[j].components)) {
      return false;
    }
    if (!plane_checked_[j]) {
      plane_checked_[j] = true;
      if (!compare_labels(planes_[i % kBatchDepth], refs_[j].labels)
               .identical()) {
        return false;
      }
    }
    return true;
  }

  void start_loop() { plane_checked_.assign(images_.size(), false); }

 private:
  std::vector<BinaryImage> images_;
  std::vector<Reference> refs_;
  std::vector<analysis::ComponentStats> ref_stats_;
  std::vector<LabelImage> planes_;
  std::vector<bool> plane_checked_;
};

LoopResult batch_loop(engine::LabelingEngine& eng, BatchClient& client,
                      double seconds, Tracer* tracer,
                      std::vector<ResponseSample>* samples) {
  client.start_loop();
  const TimedWindow window{Clock::now(), seconds,
                           perfbench::min_samples_for(90.0)};
  std::vector<int> span_of(kBatchDepth, -1);
  std::vector<Clock::time_point> sent(kBatchDepth);
  return closed_loop(
      kBatchDepth,
      [&](std::size_t i) {
        const std::size_t slot = i % kBatchDepth;
        if (tracer != nullptr) {
          span_of[slot] = tracer->begin("request", -1, static_cast<int>(i));
        }
        sent[slot] = Clock::now();
        return eng.submit(client.request(i));
      },
      [&](std::size_t i, LabelResponse& response) {
        const std::size_t slot = i % kBatchDepth;
        if (tracer != nullptr) tracer->end(span_of[slot]);
        if (samples != nullptr) {
          samples->push_back(
              {ms_between(sent[slot], Clock::now()), response.timings});
        }
        return client.check(i, response);
      },
      [&](std::size_t issued) { return window.more(issued); });
}

void run_batch(const Options& opt, Outcome& out) {
  out.contract =
      "per request: num_components, plus ComponentStats on odd requests, "
      "plus the final label plane written into a caller label_out plane; "
      "bit-identical to sequential AREMSP, 8-connectivity";
  BatchClient client(opt.seed);
  const double mpx_per_request =
      static_cast<double>(kBatchSide) * kBatchSide / 1e6;

  if (!opt.trace) {
    Pooled pooled;
    run_segments(
        opt, out, pooled, 8, 4,
        [&] {
          client.start_loop();
          const Clock::time_point t0 = Clock::now();
          engine::LabelingEngine eng(engine_config());
          const double constructed_s = elapsed_s(t0);
          const LoopResult first = closed_loop(
              1, [&](std::size_t i) { return eng.submit(client.request(i)); },
              [&](std::size_t i, LabelResponse& r) {
                return client.check(i, r);
              },
              [](std::size_t i) { return i < 1; });
          pooled.acct.merge(first.acct);
          return setup_seconds(constructed_s, first);
        },
        [&](double seconds) {
          engine::LabelingEngine eng(engine_config());
          pooled.acct.merge(
              batch_loop(eng, client, 0.25, nullptr, nullptr).acct);  // warm
          pooled.add_loop(batch_loop(eng, client, seconds, nullptr, nullptr),
                          1000, mpx_per_request);
        });
    return;
  }

  engine::LabelingEngine eng(engine_config());
  out.acct.merge(batch_loop(eng, client, 0.5, nullptr, nullptr).acct);  // warm

  Tracer tracer;
  const LoopResult plain =
      batch_loop(eng, client, opt.seconds * 0.3, nullptr, nullptr);
  std::vector<ResponseSample> samples;
  const LoopResult traced =
      batch_loop(eng, client, opt.seconds * 0.3, &tracer, &samples);
  out.acct.merge(plain.acct);
  out.acct.merge(traced.acct);
  report_overhead(out, plain, traced);

  // Warm single-thread layer replays, per image: Labeler::run (the
  // engine workers' algorithm) without and with stats, and aremsp_rle.
  const auto aremsp = make_labeler(Algorithm::Aremsp);
  const auto aremsp_rle = make_labeler(Algorithm::AremspRle);
  LabelScratch scratch;
  LabelScratch rle_scratch;
  LabelImage plane(kBatchSide, kBatchSide);
  std::vector<double> run_ms;
  std::vector<double> stats_ms;
  std::vector<double> ref_ms;
  for (int pass = 0; pass < 15; ++pass) {
    const int root = tracer.begin("replay.pass", -1, pass);
    for (std::size_t j = 0; j < client.images(); ++j) {
      LabelRequest request;
      request.input = client.image(j);
      request.label_out = MutableImageView(plane);
      {
        ScopedSpan span(&tracer, "core.run", root, pass);
        (void)aremsp->run(request, scratch);
      }
      request.outputs.stats = true;
      {
        ScopedSpan span(&tracer, "core.run+stats", root, pass);
        (void)aremsp->run(request, scratch);
      }
      request.outputs.stats = false;
      {
        ScopedSpan span(&tracer, "core.seq_ref", root, pass);
        (void)aremsp_rle->run(request, rle_scratch);
      }
    }
    tracer.end(root);
    const auto per_image = static_cast<double>(client.images());
    run_ms.push_back(tracer.total_ms("core.run", pass) / per_image);
    stats_ms.push_back(tracer.total_ms("core.run+stats", pass) / per_image);
    ref_ms.push_back(tracer.total_ms("core.seq_ref", pass) / per_image);
  }
  out.set("core.run_ms", median(run_ms));
  out.set("analysis.fused_stats_ms", median(stats_ms) - median(run_ms));
  out.set("core.seq_ref_ms", median(ref_ms));

  (void)report_response_timings(out, samples);
  write_trace(opt, out, tracer);
}

// --- scene_sharded ----------------------------------------------------------------
//
// One 4096x4096 landcover image, sharded into 512x512 Runs tiles, one
// request at a time, labels into a warm caller plane.

constexpr Coord kSceneSide = 4096;
constexpr Coord kSceneTile = 512;

ShardOptions scene_shard() {
  ShardOptions shard;
  shard.tile_rows = kSceneTile;
  shard.tile_cols = kSceneTile;
  shard.scan = ShardScan::Runs;
  return shard;
}

/// One request at a time. Checks the count of every response, the plane
/// of the first request here and (by the caller) the plane of the last.
LoopResult scene_loop(engine::LabelingEngine& eng, const BinaryImage& image,
                      const Reference& ref, LabelImage& plane, double seconds,
                      std::size_t min_requests, Tracer* tracer,
                      std::vector<ResponseSample>* samples) {
  const TimedWindow window{Clock::now(), seconds, min_requests};
  int span = -1;
  Clock::time_point sent;
  return closed_loop(
      1,
      [&](std::size_t i) {
        if (tracer != nullptr) {
          span = tracer->begin("request", -1, static_cast<int>(i));
        }
        LabelRequest request;
        request.input = image;
        request.label_out = MutableImageView(plane);
        request.shard = scene_shard();
        sent = Clock::now();
        return eng.submit(std::move(request));
      },
      [&](std::size_t i, LabelResponse& response) {
        if (tracer != nullptr) tracer->end(span);
        if (samples != nullptr) {
          samples->push_back({ms_between(sent, Clock::now()), response.timings});
        }
        if (response.num_components != ref.components) return false;
        return i != 0 || compare_labels(plane, ref.labels).identical();
      },
      [&](std::size_t issued) { return window.more(issued); });
}

/// Check the plane left by the last request of a loop; a mismatch moves
/// that request from completed to mismatched.
void check_last_plane(LoopResult& loop, const LabelImage& plane,
                      const Reference& ref) {
  if (loop.acct.completed == 0) return;
  if (!compare_labels(plane, ref.labels).identical()) {
    --loop.acct.completed;
    ++loop.acct.mismatched;
  }
}

struct SceneLayers {
  double extract_ms = 0, scan_ms = 0, merge_ms = 0, resolve_ms = 0,
         rewrite_ms = 0, seq_ref_ms = 0;
  double runs = 0, provisional = 0;
  bool identical = true;
};

/// Replay the sharded Runs chain single-threaded through the public layer
/// functions, one span per call, and warm sequential aremsp_rle beside it.
SceneLayers replay_scene(const BinaryImage& image, const Reference& ref,
                         int reps, Tracer& tracer) {
  const Connectivity conn = Connectivity::Eight;
  std::vector<TileSpec> tiles =
      make_tile_grid(image.rows(), image.cols(), kSceneTile, kSceneTile);
  const TileGridShape grid = tile_grid_shape(tiles);
  std::vector<Label> parents(static_cast<std::size_t>(image.size()) + 1);
  std::vector<RunBuffer> runs(tiles.size());
  uf::LockPool locks(uf::LockPool::kDefaultBits);
  std::vector<Label> remap;
  LabelImage out(image.rows(), image.cols());
  LabelImage seq_out(image.rows(), image.cols());
  const auto aremsp_rle = make_labeler(Algorithm::AremspRle);
  LabelScratch scratch;

  std::vector<double> extract, scan, merge, resolve, rewrite, seq;
  SceneLayers layers;
  for (int rep = 0; rep < reps; ++rep) {
    const int root = tracer.begin("replay.scene", -1, rep);
    std::size_t run_count = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      ScopedSpan span(&tracer, "image.extract", root, rep);
      const TileSpec& tile = tiles[t];
      runs[t].extract(image, tile.row_begin, tile.row_end, tile.col_begin,
                      tile.col_end);
    }
    for (const RunBuffer& r : runs) run_count += r.size();
    Label used = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      ScopedSpan span(&tracer, "core.scan_tile", root, rep);
      tiles[t].used = scan_tile(image, parents, tiles[t], runs[t], conn);
    }
    for (const TileSpec& tile : tiles) used += tile.used;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      ScopedSpan span(&tracer, "unionfind.merge_run_seams", root, rep);
      merge_run_seams(tiles, runs, t, grid, conn, [&](Label x, Label y) {
        uf::locked_unite(parents.data(), locks, x, y);
      });
    }
    remap.resize(static_cast<std::size_t>(used) + 1);
    Label components = 0;
    {
      ScopedSpan span(&tracer, "core.resolve_final_run_labels", root, rep);
      components = resolve_final_run_labels(parents, tiles, runs, conn,
                                            image.rows(), remap);
    }
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      ScopedSpan span(&tracer, "core.rewrite_run_labels", root, rep);
      rewrite_run_labels(runs[t], parents, tiles[t], out);
    }
    tracer.end(root);
    {
      const int seq_root = tracer.begin("core.seq_ref", -1, rep);
      LabelRequest request;
      request.input = image;
      request.label_out = MutableImageView(seq_out);
      (void)aremsp_rle->run(request, scratch);
      tracer.end(seq_root);
    }
    if (rep == 0 || rep == reps - 1) {
      layers.identical = layers.identical && components == ref.components &&
                         compare_labels(out, ref.labels).identical() &&
                         compare_labels(seq_out, ref.labels).identical();
    }
    extract.push_back(tracer.total_ms("image.extract", rep));
    scan.push_back(tracer.total_ms("core.scan_tile", rep));
    merge.push_back(tracer.total_ms("unionfind.merge_run_seams", rep));
    resolve.push_back(tracer.total_ms("core.resolve_final_run_labels", rep));
    rewrite.push_back(tracer.total_ms("core.rewrite_run_labels", rep));
    seq.push_back(tracer.total_ms("core.seq_ref", rep));
    layers.runs = static_cast<double>(run_count);
    layers.provisional = static_cast<double>(used);
  }
  layers.extract_ms = median(extract);
  layers.scan_ms = median(scan);
  layers.merge_ms = median(merge);
  layers.resolve_ms = median(resolve);
  layers.rewrite_ms = median(rewrite);
  layers.seq_ref_ms = median(seq);
  return layers;
}

void run_scene(const Options& opt, Outcome& out) {
  out.contract =
      "per request: num_components plus the final label plane written "
      "into one warm caller label_out plane; bit-identical to sequential "
      "AREMSP, 8-connectivity (count checked on every response, plane on "
      "the first and last timed request)";
  const BinaryImage image =
      gen::landcover_like(kSceneSide, kSceneSide, derive_seed(opt.seed, 0));
  const Reference ref = reference_of(image);
  LabelImage plane(kSceneSide, kSceneSide);
  const double mpx = static_cast<double>(image.size()) / 1e6;
  out.note("components", static_cast<double>(ref.components));
  const std::size_t min_requests = perfbench::min_samples_for(90.0);

  if (!opt.trace) {
    Pooled pooled;
    run_segments(
        opt, out, pooled, 5, 2,
        [&] {
          const Clock::time_point t0 = Clock::now();
          engine::LabelingEngine eng(engine_config());
          const double constructed_s = elapsed_s(t0);
          const LoopResult first =
              scene_loop(eng, image, ref, plane, 0.0, 1, nullptr, nullptr);
          pooled.acct.merge(first.acct);
          return setup_seconds(constructed_s, first);
        },
        [&](double seconds) {
          engine::LabelingEngine eng(engine_config());
          pooled.acct.merge(  // warm
              scene_loop(eng, image, ref, plane, 0.0, 3, nullptr, nullptr)
                  .acct);
          LoopResult timed =
              scene_loop(eng, image, ref, plane, seconds, min_requests, nullptr,
                         nullptr);
          check_last_plane(timed, plane, ref);
          pooled.add_loop(timed, 5, mpx);
        });
    return;
  }

  engine::LabelingEngine eng(engine_config());
  out.acct.merge(
      scene_loop(eng, image, ref, plane, 0.0, 3, nullptr, nullptr).acct);

  Tracer tracer;
  const double loop_s = opt.seconds * 0.3;
  LoopResult plain =
      scene_loop(eng, image, ref, plane, loop_s, 20, nullptr, nullptr);
  check_last_plane(plain, plane, ref);
  std::vector<ResponseSample> samples;
  LoopResult traced =
      scene_loop(eng, image, ref, plane, loop_s, 20, &tracer, &samples);
  check_last_plane(traced, plane, ref);
  out.acct.merge(plain.acct);
  out.acct.merge(traced.acct);
  report_overhead(out, plain, traced);

  const SceneLayers layers = replay_scene(image, ref, 9, tracer);
  if (!layers.identical) {
    out.problems.push_back("replayed layer output differs from AREMSP");
  }
  out.set("image.extract_ms", layers.extract_ms);
  out.set("image.runs", layers.runs);
  out.set("core.scan_ms", layers.scan_ms);
  out.set("core.provisional_labels", layers.provisional);
  out.set("core.resolve_ms", layers.resolve_ms);
  out.set("core.rewrite_ms", layers.rewrite_ms);
  out.set("core.seq_ref_ms", layers.seq_ref_ms);
  out.set("unionfind.merge_ms", layers.merge_ms);
  const double layer_sum =
      layers.scan_ms + layers.merge_ms + layers.resolve_ms + layers.rewrite_ms;
  const double ratio = layer_sum / layers.seq_ref_ms;
  out.note("layer_sum_ms", layer_sum);
  out.note("layer_sum_over_seq_ref", ratio);
  out.note("reconcile_tolerance", kReconcileTolerance);
  if (std::abs(ratio - 1.0) > kReconcileTolerance) {
    out.problems.push_back("scene layer sum " + std::to_string(layer_sum) +
                           " ms does not reconcile with core.seq_ref_ms " +
                           std::to_string(layers.seq_ref_ms) + " ms");
  }

  auto med = [&](auto field) { return median_of(samples, field); };
  out.set("unionfind.merge_pairs", med([](const ResponseSample& s) {
            return static_cast<double>(s.timings.counters.merge_pairs);
          }));
  out.set("unionfind.merge_unions", med([](const ResponseSample& s) {
            return static_cast<double>(s.timings.counters.merge_unions);
          }));
  out.set("unionfind.merge_retries", med([](const ResponseSample& s) {
            return static_cast<double>(s.timings.counters.merge_retries);
          }));
  const auto [phase_scan, phase_rewrite] =
      report_response_timings(out, samples);
  // Useful pool time: the single-thread replay's busy time for the layer
  // over workers x the engine phase's wall time.
  const double workers = static_cast<double>(eng.workers());
  out.set("engine.scan_efficiency", layers.scan_ms / (workers * phase_scan));
  out.set("engine.rewrite_efficiency",
          layers.rewrite_ms / (workers * phase_rewrite));
  write_trace(opt, out, tracer);
}

// --- stream_tall ------------------------------------------------------------------
//
// A 16384x2048 grayscale image rendered from a landcover mask, labeled one
// session at a time through open_stream (Runs, window 4, threshold 0.5)
// in 256-row slabs. The client copies each slab plane into its final
// plane, recycles the slab plane, and applies slab_remaps after finish.

constexpr Coord kStreamRows = 16384;
constexpr Coord kStreamCols = 2048;
constexpr Coord kSlabRows = 256;
constexpr std::size_t kStreamWindow = 4;
constexpr double kThreshold = 0.5;
constexpr int kCutoff = 127;  // floor(kThreshold * 255)

stream::StreamOptions stream_options() {
  stream::StreamOptions options;
  options.cols = kStreamCols;
  options.connectivity = Connectivity::Eight;
  options.scan = ShardScan::Runs;
  options.threshold = kThreshold;
  options.labels = true;
  return options;
}

/// Copy a slab plane (local ids) into rows of the client's final plane.
/// False when the slab is not the expected 256 rows at row 256 * k.
bool copy_slab(const stream::SlabResult& slab, std::size_t k,
               LabelImage& plane) {
  if (slab.slab_index != k || slab.rows != kSlabRows ||
      slab.row_begin != static_cast<Coord>(k) * kSlabRows ||
      slab.labels.rows() != kSlabRows || slab.labels.cols() != kStreamCols) {
    return false;
  }
  for (Coord r = 0; r < kSlabRows; ++r) {
    std::memcpy(plane.row(slab.row_begin + r), slab.labels.row(r),
                sizeof(Label) * static_cast<std::size_t>(kStreamCols));
  }
  return true;
}

/// Rewrite every slab's local ids to final labels. False when a local id
/// has no entry in its slab's table; such an id is clamped into the table
/// (branch-free, so the loop stays a plain gather) and the caller's plane
/// check fails.
bool apply_remaps(const stream::StreamResult& result, LabelImage& plane) {
  const std::size_t slabs = static_cast<std::size_t>(kStreamRows / kSlabRows);
  if (result.slab_remaps.size() != slabs) return false;
  bool in_range = true;
  for (std::size_t k = 0; k < slabs; ++k) {
    const std::vector<Label>& table = result.slab_remaps[k];
    if (table.empty()) return false;
    const auto last = static_cast<std::uint32_t>(table.size() - 1);
    const Coord r0 = static_cast<Coord>(k) * kSlabRows;
    for (Coord r = r0; r < r0 + kSlabRows; ++r) {
      Label* row = plane.row(r);
      for (Coord c = 0; c < kStreamCols; ++c) {
        const auto local = static_cast<std::uint32_t>(row[c]);
        in_range &= local <= last;
        row[c] = table[std::min(local, last)];
      }
    }
  }
  return in_range;
}

struct SessionResult {
  LoopResult pushes;
  double wall_ms = 0.0;
  bool finished = false;
  bool correct = false;
};

/// One engine session over the whole image, then the composed-plane check
/// (outside wall_ms). The finish op counts as one more attempted request.
SessionResult run_session(engine::LabelingEngine& eng, const GrayImage& gray,
                          const Reference& ref, LabelImage& plane,
                          Tracer* tracer, int request) {
  SessionResult out;
  const Clock::time_point t0 = Clock::now();
  const int root =
      tracer != nullptr ? tracer->begin("session", -1, request) : -1;
  engine::StreamConfig config;
  config.options = stream_options();
  config.window = kStreamWindow;
  const std::shared_ptr<engine::StreamSession> session =
      eng.open_stream(config);
  const ConstImageView view(gray);
  const std::size_t slabs = static_cast<std::size_t>(kStreamRows / kSlabRows);
  std::vector<int> span_of(kStreamWindow, -1);
  out.pushes = closed_loop(
      kStreamWindow,
      [&](std::size_t k) {
        if (tracer != nullptr) {
          span_of[k % kStreamWindow] =
              tracer->begin("push_slab", root, request);
        }
        return session->push_slab(view.subview(
            static_cast<Coord>(k) * kSlabRows, 0, kSlabRows, kStreamCols));
      },
      [&](std::size_t k, stream::SlabResult& slab) {
        if (tracer != nullptr) tracer->end(span_of[k % kStreamWindow]);
        ScopedSpan span(tracer, "client.copy_slab", root, request);
        const bool ok = copy_slab(slab, k, plane);
        session->recycle(std::move(slab.labels));
        return ok;
      },
      [&](std::size_t k) { return k < slabs; });
  ++out.pushes.acct.attempted;  // the finish op
  bool remapped = false;
  stream::StreamResult result;
  try {
    {
      ScopedSpan span(tracer, "finish", root, request);
      result = session->finish().get();
    }
    out.finished = true;
    ScopedSpan span(tracer, "client.remap", root, request);
    remapped = apply_remaps(result, plane);
  } catch (...) {
    out.pushes.acct.record_exception(std::current_exception());
  }
  if (tracer != nullptr) tracer->end(root);
  out.wall_ms = ms_between(t0, Clock::now());
  if (out.finished) {
    out.correct = remapped && out.pushes.acct.errors() == 0 &&
                  result.num_components == ref.components &&
                  compare_labels(plane, ref.labels).identical();
    if (out.correct) {
      ++out.pushes.acct.completed;
    } else {
      ++out.pushes.acct.mismatched;
    }
  }
  return out;
}

/// Sessions until `seconds` have passed and at least `min_sessions` ran.
std::vector<SessionResult> stream_loop(engine::LabelingEngine& eng,
                                       const GrayImage& gray,
                                       const Reference& ref,
                                       LabelImage& plane, double seconds,
                                       std::size_t min_sessions,
                                       Tracer* tracer) {
  std::vector<SessionResult> sessions;
  const Clock::time_point start = Clock::now();
  while ((elapsed_s(start) < seconds || sessions.size() < min_sessions) &&
         elapsed_s(start) < seconds + kOvertimeS) {
    sessions.push_back(run_session(eng, gray, ref, plane, tracer,
                                   static_cast<int>(sessions.size())));
  }
  return sessions;
}

LoopResult merge_sessions(const std::vector<SessionResult>& sessions) {
  LoopResult all;
  for (const SessionResult& s : sessions) {
    all.acct.merge(s.pushes.acct);
    all.latency_ms.insert(all.latency_ms.end(), s.pushes.latency_ms.begin(),
                          s.pushes.latency_ms.end());
  }
  return all;
}

struct StreamLayers {
  double extract_ms = 0, scan_ms = 0, seq_ref_ms = 0;
  double push_ms = 0, finish_ms = 0, client_ms = 0;
  double runs = 0, provisional = 0;
  double seam_bytes = 0, working_bytes = 0;
  bool identical = true;
};

/// Replay the stream path single-threaded: per-slab fused-threshold
/// extract and run scan, an in-thread SlabSession with the same client
/// copy + remap, and warm sequential aremsp_rle on the grayscale image.
StreamLayers replay_stream(const GrayImage& gray, const Reference& ref,
                           LabelImage& plane, int reps, Tracer& tracer) {
  const ConstImageView view(gray);
  const std::size_t slabs = static_cast<std::size_t>(kStreamRows / kSlabRows);
  RunBuffer runs;
  std::vector<Label> parents(
      static_cast<std::size_t>(kSlabRows) * kStreamCols + 1);
  LabelImage seq_out(gray.rows(), gray.cols());
  const auto aremsp_rle = make_labeler(Algorithm::AremspRle);
  LabelScratch scratch;

  std::vector<double> extract, scan, push, finish, client, seq;
  StreamLayers layers;
  for (int rep = 0; rep < reps; ++rep) {
    const int root = tracer.begin("replay.stream", -1, rep);
    double run_count = 0;
    double used = 0;
    for (std::size_t k = 0; k < slabs; ++k) {
      const Coord r0 = static_cast<Coord>(k) * kSlabRows;
      {
        ScopedSpan span(&tracer, "image.extract", root, rep);
        runs.extract(view, r0, r0 + kSlabRows, 0, kStreamCols, kCutoff);
      }
      run_count += static_cast<double>(runs.size());
      TileSpec tile;
      tile.row_begin = r0;
      tile.row_end = r0 + kSlabRows;
      tile.col_end = kStreamCols;
      ScopedSpan span(&tracer, "core.scan_tile", root, rep);
      used += static_cast<double>(scan_tile(view, parents, tile, runs,
                                            Connectivity::Eight, nullptr,
                                            kCutoff));
    }

    stream::SlabSession session(stream_options());
    std::size_t seam_high = 0;
    bool copied = true;
    for (std::size_t k = 0; k < slabs; ++k) {
      stream::SlabResult slab;
      {
        ScopedSpan span(&tracer, "stream.push_slab", root, rep);
        slab = session.push_slab(view.subview(static_cast<Coord>(k) * kSlabRows,
                                              0, kSlabRows, kStreamCols));
      }
      seam_high = std::max(seam_high, session.seam_state_bytes());
      ScopedSpan span(&tracer, "client.copy_slab", root, rep);
      copied = copy_slab(slab, k, plane) && copied;
      session.recycle(std::move(slab.labels));
    }
    const std::size_t working = session.slab_working_bytes();
    stream::StreamResult result;
    {
      ScopedSpan span(&tracer, "stream.finish", root, rep);
      result = session.finish();
    }
    bool remapped = false;
    {
      ScopedSpan span(&tracer, "client.remap", root, rep);
      remapped = copied && apply_remaps(result, plane);
    }
    tracer.end(root);
    {
      const int seq_root = tracer.begin("core.seq_ref", -1, rep);
      LabelRequest request;
      request.input = view;
      request.threshold = kThreshold;
      request.label_out = MutableImageView(seq_out);
      (void)aremsp_rle->run(request, scratch);
      tracer.end(seq_root);
    }
    if (rep == 0 || rep == reps - 1) {
      layers.identical = layers.identical && remapped &&
                         result.num_components == ref.components &&
                         compare_labels(plane, ref.labels).identical() &&
                         compare_labels(seq_out, ref.labels).identical();
    }
    extract.push_back(tracer.total_ms("image.extract", rep));
    scan.push_back(tracer.total_ms("core.scan_tile", rep));
    push.push_back(tracer.total_ms("stream.push_slab", rep));
    finish.push_back(tracer.total_ms("stream.finish", rep));
    client.push_back(tracer.total_ms("client.copy_slab", rep) +
                     tracer.total_ms("client.remap", rep));
    seq.push_back(tracer.total_ms("core.seq_ref", rep));
    layers.runs = run_count;
    layers.provisional = used;
    layers.seam_bytes = static_cast<double>(seam_high);
    layers.working_bytes = static_cast<double>(working);
  }
  layers.extract_ms = median(extract);
  layers.scan_ms = median(scan);
  layers.push_ms = median(push);
  layers.finish_ms = median(finish);
  layers.client_ms = median(client);
  layers.seq_ref_ms = median(seq);
  return layers;
}

void run_stream(const Options& opt, Outcome& out) {
  out.contract =
      "per session: the final label plane, composed by the client from "
      "the slab planes and finish()'s slab_remaps, plus num_components; "
      "bit-identical to sequential AREMSP of the thresholded image "
      "(threshold 0.5), 8-connectivity, checked on every session";
  Reference ref;
  GrayImage gray;
  {
    const BinaryImage mask = gen::landcover_like(kStreamRows, kStreamCols,
                                                 derive_seed(opt.seed, 0));
    ref = reference_of(mask);
    gray = perfbench::render_gray_from_mask(mask, derive_seed(opt.seed, 1),
                                            kCutoff);
  }
  LabelImage plane(kStreamRows, kStreamCols);
  const double mpx = static_cast<double>(gray.size()) / 1e6;
  out.note("components", static_cast<double>(ref.components));

  if (!opt.trace) {
    Pooled pooled;
    run_segments(
        opt, out, pooled, 5, 1,
        [&] {
          const Clock::time_point t0 = Clock::now();
          engine::LabelingEngine eng(engine_config());
          const double constructed_s = elapsed_s(t0);
          const SessionResult first =
              run_session(eng, gray, ref, plane, nullptr, 0);
          pooled.acct.merge(first.pushes.acct);
          // wall_ms ends before the composed-plane check.
          return constructed_s + first.wall_ms / 1e3;
        },
        [&](double seconds) {
          engine::LabelingEngine eng(engine_config());
          pooled.acct.merge(  // warm
              merge_sessions(stream_loop(eng, gray, ref, plane, 0.0, 1,
                                         nullptr))
                  .acct);
          const std::vector<SessionResult> sessions =  // >= 128 pushes
              stream_loop(eng, gray, ref, plane, seconds, 2, nullptr);
          const LoopResult all = merge_sessions(sessions);
          pooled.acct.merge(all.acct);
          pooled.add_latencies(all.latency_ms);
          for (const SessionResult& session : sessions) {
            pooled.rates.push_back(mpx / (session.wall_ms / 1e3));
          }
        });
    return;
  }

  engine::LabelingEngine eng(engine_config());
  out.acct.merge(
      merge_sessions(stream_loop(eng, gray, ref, plane, 0.0, 1, nullptr)).acct);

  Tracer tracer;
  const LoopResult plain = merge_sessions(
      stream_loop(eng, gray, ref, plane, opt.seconds * 0.3, 3, nullptr));
  const std::vector<SessionResult> traced_sessions =
      stream_loop(eng, gray, ref, plane, opt.seconds * 0.3, 3, &tracer);
  const LoopResult traced = merge_sessions(traced_sessions);
  out.acct.merge(plain.acct);
  out.acct.merge(traced.acct);
  report_overhead(out, plain, traced);
  std::vector<double> walls;
  for (const SessionResult& s : traced_sessions) walls.push_back(s.wall_ms);
  const double engine_wall = median(walls);

  const StreamLayers layers = replay_stream(gray, ref, plane, 5, tracer);
  if (!layers.identical) {
    out.problems.push_back("replayed stream output differs from AREMSP");
  }
  out.set("image.extract_ms", layers.extract_ms);
  out.set("image.runs", layers.runs);
  out.set("core.scan_ms", layers.scan_ms);
  out.set("core.provisional_labels", layers.provisional);
  out.set("core.seq_ref_ms", layers.seq_ref_ms);
  out.set("stream.push_slab_ms", layers.push_ms);
  out.set("stream.finish_ms", layers.finish_ms);
  out.set("stream.remap_ms", layers.client_ms);
  out.set("stream.chain_gap_ms", engine_wall - (layers.push_ms +
                                                layers.finish_ms +
                                                layers.client_ms));
  out.set("stream.seam_state_bytes", layers.seam_bytes);
  out.set("stream.slab_working_bytes", layers.working_bytes);
  out.note("engine_session_ms", engine_wall);
  write_trace(opt, out, tracer);
}

// --- Output -------------------------------------------------------------------------

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const perfbench::CpuTicks ticks_at_start = perfbench::cpu_ticks();
  Outcome out;
  try {
    if (opt.workload == "batch_small") {
      run_batch(opt, out);
    } else if (opt.workload == "scene_sharded") {
      run_scene(opt, out);
    } else if (opt.workload == "stream_tall") {
      run_stream(opt, out);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  if (!opt.trace) out.set("peak_rss_mb", perfbench::peak_rss_mb());
  out.note("host_cpu_steal_pct",
           perfbench::steal_pct(ticks_at_start, perfbench::cpu_ticks()));

  // Every listed metric, in list order; a per-layer metric the workload's
  // path does not reach reads 0.
  const auto& names = opt.trace ? kPerLayer : kEndToEnd;
  std::ostringstream metrics;
  std::ostringstream human;
  metrics << '{';
  for (std::size_t i = 0; i < names.size(); ++i) {
    double value = 0.0;
    for (const auto& [name, v] : out.metrics) {
      if (name == names[i].first) value = v;
    }
    metrics << (i == 0 ? "" : ",") << perfbench::json_string(names[i].first)
            << ":{\"value\":" << perfbench::json_number(value)
            << ",\"unit\":" << perfbench::json_string(names[i].second) << '}';
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %14.6g %s\n", names[i].first,
                  value, names[i].second);
    human << line;
  }
  metrics << '}';

  const bool correct = out.acct.errors() == 0 && out.problems.empty();
  std::ostringstream problems;
  problems << '[';
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    problems << (i == 0 ? "" : ",") << perfbench::json_string(out.problems[i]);
  }
  problems << ']';

  std::ostringstream report;
  report << "{\"workload\":" << perfbench::json_string(opt.workload)
         << ",\"seed\":" << opt.seed << ",\"seconds\":"
         << perfbench::json_number(opt.seconds)
         << ",\"trace\":" << (opt.trace ? 1 : 0)
         << ",\"contract\":" << perfbench::json_string(out.contract)
         << ",\"host\":{\"nproc\":" << perfbench::available_cpus()
         << ",\"simd_tier\":"
         << perfbench::json_string(to_string(active_simd_tier()))
         << ",\"compiler\":" << perfbench::json_string(compiler_id())
         << ",\"build_type\":" << perfbench::json_string(PERFBENCH_BUILD_TYPE)
         << ",\"commit\":" << perfbench::json_string(opt.commit) << '}'
         << ",\"engine_workers\":" << perfbench::available_cpus()
         << ",\"attempted\":" << out.acct.attempted
         << ",\"completed\":" << out.acct.completed
         << ",\"failed\":" << out.acct.failed << ",\"shed\":" << out.acct.shed
         << ",\"mismatched\":" << out.acct.mismatched
         << ",\"error_rate\":" << perfbench::json_number(out.acct.error_rate())
         << ",\"first_error\":" << perfbench::json_string(out.acct.first_error)
         << ",\"problems\":" << problems.str() << out.notes.str()
         << ",\"metrics\":" << metrics.str() << '}';

  const std::string report_path = opt.out_dir + "/report-" + opt.workload +
                                  "-seed" + std::to_string(opt.seed) +
                                  "-trace" + (opt.trace ? "1" : "0") + ".json";
  if (std::ofstream file(report_path); file) file << report.str() << '\n';

  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << " trace=" << (opt.trace ? 1 : 0) << " workers="
            << perfbench::available_cpus() << " simd="
            << to_string(active_simd_tier()) << '\n'
            << "contract: " << out.contract << '\n'
            << human.str() << "  error_rate " << out.acct.error_rate() << " ("
            << out.acct.errors() << " of " << out.acct.attempted
            << " requests)\n";
  for (const std::string& p : out.problems) std::cout << "CHECK FAILED: " << p << '\n';
  if (!out.acct.first_error.empty()) {
    std::cout << "first error: " << out.acct.first_error << '\n';
  }
  std::cout << "report " << report.str() << '\n';
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << out.acct.attempted
            << ",\"failed\":" << out.acct.errors()
            << ",\"metrics\":" << metrics.str() << '}' << std::endl;
  return correct ? 0 : 1;
}
