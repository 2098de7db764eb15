// Streaming slab-labeling throughput + memory: one tall raster pushed
// through stream::SlabSession (and through an engine StreamSession) at
// several slab heights, against one-shot run-based AREMSP over the whole
// image as the baseline — both for speed and for resident footprint.
//
// The memory story is the point of streaming: a session holds ONLY the
// carried seam state plus one slab's working set, never the full-image
// plane + parent array the one-shot path needs. This bench measures the
// seam-state high-water across the stream, adds the per-slab working
// high-water, and ASSERTS the sum stays below the one-shot peak model
// (process exits nonzero otherwise, same as on any label mismatch).
//
// Besides the human-readable table, writes BENCH_stream.json:
//
//   { "bench": "throughput_stream",
//     "host": {...},  // bench::write_json_head
//     "image": {"rows": R, "cols": C, "mpx": ...},
//     "one_shot": {"mpx_per_s": ..., "peak_bytes_model": ...},
//     "runs": [ { "mode": "core"|"engine", "slab_rows": ..., "slabs": N,
//                 "window": W, "threads": T, "reps": K,
//                 "mpx_per_s": ..., "speedup_vs_one_shot": ...,
//                 "seam_peak_bytes": ..., "slab_working_bytes": ...,
//                 "resident_bytes": ..., "resident_vs_one_shot": ...,
//                 "verified": true }, ... ] }
//
// resident_vs_one_shot is the headline ratio: resident_bytes /
// one_shot.peak_bytes_model (smaller is better; < 1.0 is the contract).
//
// Knobs: PAREMSP_BENCH_SCALE scales pixels linearly (default 1.0 =
// 6144x1536), PAREMSP_BENCH_REPS samples per configuration.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "engine/engine.hpp"
#include "engine/stream_session.hpp"
#include "image/generators.hpp"
#include "stream/slab_session.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

struct RunRecord {
  std::string mode;  // "core" (in-thread session) or "engine" (worker pool)
  Coord slab_rows = 0;
  std::size_t slabs = 0;
  std::size_t window = 0;  // engine mode only
  int threads = 1;
  int reps = 0;
  double mpx_per_s = 0.0;
  double speedup = 0.0;
  std::size_t seam_peak_bytes = 0;
  std::size_t slab_working_bytes = 0;
  std::size_t resident_bytes = 0;
  double resident_ratio = 0.0;
  bool verified = false;
};

/// One-shot working-set model: the label plane plus the provisional
/// parent array run-based AREMSP sizes for a rows x cols image (the
/// same formula LabelScratch uses: label space = N/2 + 2). Input pixels
/// are borrowed on both paths, so they cancel out of the comparison.
std::size_t one_shot_peak_bytes(Coord rows, Coord cols) {
  const std::size_t n =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  return n * sizeof(Label) + (n / 2 + 2) * sizeof(Label);
}

/// Stream the image through a core session once, verifying every pixel
/// against the one-shot reference through the finish() remap tables and
/// recording the seam-state high-water. Returns false on any mismatch.
bool verify_stream(const BinaryImage& image, Coord slab_rows,
                   const LabelResponse& ref, std::size_t& seam_peak,
                   std::size_t& working_bytes, std::size_t& slabs_out) {
  const Coord rows = image.rows();
  const Coord cols = image.cols();
  stream::StreamOptions opts;
  opts.cols = cols;
  stream::SlabSession session(opts);
  std::vector<LabelImage> planes;
  seam_peak = 0;
  for (Coord r = 0; r < rows; r += slab_rows) {
    const Coord take = std::min(slab_rows, rows - r);
    planes.push_back(
        session.push_slab(ConstImageView(image).subview(r, 0, take, cols))
            .labels);
    seam_peak = std::max(seam_peak, session.seam_state_bytes());
  }
  working_bytes = session.slab_working_bytes();
  slabs_out = planes.size();
  const stream::StreamResult done = session.finish();
  if (done.num_components != ref.num_components) return false;
  Coord r0 = 0;
  for (std::size_t k = 0; k < planes.size(); ++k) {
    const std::vector<Label>& remap = done.slab_remaps[k];
    for (Coord r = 0; r < planes[k].rows(); ++r) {
      const Label* got = planes[k].row(r);
      const Label* want = ref.labels.row(r0 + r);
      for (Coord c = 0; c < cols; ++c) {
        if (remap[static_cast<std::size_t>(got[c])] != want[c]) return false;
      }
    }
    r0 += planes[k].rows();
  }
  return true;
}

/// Timed streaming pass in steady state: every slab plane is recycled
/// right after delivery, so after warm-up the session allocates nothing.
double stream_once_ms(const BinaryImage& image, Coord slab_rows) {
  const Coord rows = image.rows();
  const Coord cols = image.cols();
  stream::StreamOptions opts;
  opts.cols = cols;
  stream::SlabSession session(opts);
  const WallTimer timer;
  for (Coord r = 0; r < rows; r += slab_rows) {
    const Coord take = std::min(slab_rows, rows - r);
    stream::SlabResult slab =
        session.push_slab(ConstImageView(image).subview(r, 0, take, cols));
    session.recycle(std::move(slab.labels));
  }
  (void)session.finish();
  return timer.elapsed_ms();
}

double engine_stream_once_ms(engine::LabelingEngine& eng,
                             const BinaryImage& image, Coord slab_rows,
                             std::size_t window, Label want_components,
                             int& failures) {
  const Coord rows = image.rows();
  const Coord cols = image.cols();
  engine::StreamConfig config;
  config.options.cols = cols;
  config.window = window;
  const WallTimer timer;
  auto session = eng.open_stream(config);
  std::vector<std::future<stream::SlabResult>> futures;
  futures.reserve(static_cast<std::size_t>((rows + slab_rows - 1) / slab_rows));
  for (Coord r = 0; r < rows; r += slab_rows) {
    const Coord take = std::min(slab_rows, rows - r);
    futures.push_back(
        session->push_slab(ConstImageView(image).subview(r, 0, take, cols)));
  }
  for (auto& f : futures) session->recycle(std::move(f.get().labels));
  const stream::StreamResult done = session->finish().get();
  const double ms = timer.elapsed_ms();
  if (done.num_components != want_components) ++failures;
  return ms;
}

void write_json(const std::string& path, Coord rows, Coord cols,
                double baseline_mpx, std::size_t peak_model,
                const std::vector<RunRecord>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  const double mpx = static_cast<double>(rows) * cols / 1e6;
  write_json_head(f, "throughput_stream");
  std::fprintf(f,
               "  \"image\": {\"rows\": %lld, \"cols\": %lld, \"mpx\": %.3f},\n"
               "  \"one_shot\": {\"mpx_per_s\": %.3f, "
               "\"peak_bytes_model\": %zu},\n  \"runs\": [\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               mpx, baseline_mpx, peak_model);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"slab_rows\": %lld, \"slabs\": %zu, "
        "\"window\": %zu, \"threads\": %d, \"reps\": %d, "
        "\"mpx_per_s\": %.3f, \"speedup_vs_one_shot\": %.3f, "
        "\"seam_peak_bytes\": %zu, \"slab_working_bytes\": %zu, "
        "\"resident_bytes\": %zu, \"resident_vs_one_shot\": %.4f, "
        "\"verified\": %s}%s\n",
        r.mode.c_str(), static_cast<long long>(r.slab_rows), r.slabs,
        r.window, r.threads, r.reps, r.mpx_per_s, r.speedup,
        r.seam_peak_bytes, r.slab_working_bytes, r.resident_bytes,
        r.resident_ratio, r.verified ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main() {
  print_banner("Streaming slab sessions vs one-shot labeling");

  const double scale = bench_scale();
  const double dim = std::sqrt(std::max(scale, 1e-3));
  const Coord cols = std::max<Coord>(48, static_cast<Coord>(1536.0 * dim));
  const Coord rows = std::max<Coord>(96, static_cast<Coord>(6144.0 * dim));
  const int reps = std::max(1, bench_reps());

  const BinaryImage image = gen::landcover_like(rows, cols, 2014);
  const double mpx = static_cast<double>(image.size()) / 1e6;
  std::cout << "image: " << rows << "x" << cols << " ("
            << TextTable::num(mpx, 1) << " Mpx landcover stand-in), " << reps
            << " rep(s)\n\n";

  int failures = 0;

  // --- Baseline: one-shot run-based AREMSP over the whole image -------------
  LabelRequest request;
  request.input = ConstImageView(image);
  const auto labeler = make_labeler(Algorithm::AremspRle);
  const LabelResponse ref = labeler->run(request);
  double baseline_best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const WallTimer timer;
    const LabelResponse r = labeler->run(request);
    const double s = timer.elapsed_ms() / 1e3;
    if (r.num_components != ref.num_components) ++failures;
    baseline_best = std::max(baseline_best, mpx / s);
  }
  const std::size_t peak_model = one_shot_peak_bytes(rows, cols);

  std::vector<RunRecord> runs;
  TextTable table("streaming vs one-shot AREMSP-RLE (" +
                  TextTable::num(baseline_best, 1) + " Mpx/s, " +
                  TextTable::num(static_cast<double>(peak_model) / 1e6, 1) +
                  " MB peak model)");
  table.set_header({"mode", "slab rows", "slabs", "threads", "Mpx/s",
                    "speedup", "seam peak", "resident", "vs one-shot"});

  const auto record = [&](RunRecord r) {
    r.reps = reps;
    r.speedup = r.mpx_per_s / baseline_best;
    r.resident_bytes = r.seam_peak_bytes + r.slab_working_bytes;
    r.resident_ratio =
        static_cast<double>(r.resident_bytes) / static_cast<double>(peak_model);
    table.add_row(
        {r.mode, std::to_string(r.slab_rows), std::to_string(r.slabs),
         std::to_string(r.threads), TextTable::num(r.mpx_per_s, 1),
         TextTable::num(r.speedup, 2) + "x",
         TextTable::num(static_cast<double>(r.seam_peak_bytes) / 1e3, 1) +
             " KB",
         TextTable::num(static_cast<double>(r.resident_bytes) / 1e6, 2) +
             " MB",
         TextTable::num(r.resident_ratio, 3)});
    runs.push_back(std::move(r));
  };

  // --- Core sessions: slab-height sweep, memory contract asserted -----------
  const Coord candidate_heights[] = {64, 256, 1024};
  for (const Coord slab_rows : candidate_heights) {
    if (slab_rows >= rows) continue;
    RunRecord r;
    r.mode = "core";
    r.slab_rows = slab_rows;
    r.verified = verify_stream(image, slab_rows, ref, r.seam_peak_bytes,
                               r.slab_working_bytes, r.slabs);
    if (!r.verified) {
      std::cerr << "MISMATCH: core stream slab_rows=" << slab_rows
                << " differs from one-shot\n";
      ++failures;
    }
    // The memory contract: seam state + one slab's working set must stay
    // below the full-image working set, or streaming has no point. It can
    // only bind when the slab is genuinely a fraction of the image — a
    // slab nearly as tall as the image IS the full working set plus seam
    // overhead (scaled smoke runs hit this), so assert at >= 4 slabs.
    if (slab_rows * 4 <= rows &&
        r.seam_peak_bytes + r.slab_working_bytes >= peak_model) {
      std::cerr << "MEMORY CONTRACT VIOLATED: slab_rows=" << slab_rows
                << " resident " << (r.seam_peak_bytes + r.slab_working_bytes)
                << " B >= one-shot peak " << peak_model << " B\n";
      ++failures;
    }
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      best = std::max(best, mpx / (stream_once_ms(image, slab_rows) / 1e3));
    }
    r.mpx_per_s = best;
    record(std::move(r));
  }

  // --- Engine sessions: the same stream through the worker pool -------------
  {
    engine::LabelingEngine eng({.workers = 4});
    for (const Coord slab_rows : {Coord{256}, Coord{1024}}) {
      if (slab_rows >= rows) continue;
      RunRecord r;
      r.mode = "engine";
      r.slab_rows = slab_rows;
      r.slabs = static_cast<std::size_t>((rows + slab_rows - 1) / slab_rows);
      r.window = 4;
      r.threads = 4;
      r.verified = true;  // component count checked every rep below
      double best = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const double ms = engine_stream_once_ms(
            eng, image, slab_rows, r.window, ref.num_components, failures);
        best = std::max(best, mpx / (ms / 1e3));
      }
      r.mpx_per_s = best;
      record(std::move(r));
    }
  }

  std::cout << table.to_string() << "\n";
  write_json(artifact_path("BENCH_stream.json"), rows, cols, baseline_best,
             peak_model, runs);

  if (failures != 0) {
    std::cerr << "\n" << failures << " verification failure(s)\n";
    return 1;
  }
  std::cout << "\nall streaming configurations verified against one-shot\n";
  return 0;
}
