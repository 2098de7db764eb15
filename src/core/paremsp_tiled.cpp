#include "core/paremsp_tiled.hpp"

#include <omp.h>

#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "core/equiv_policies.hpp"
#include "core/label_scratch.hpp"
#include "core/tiled_phases.hpp"
#include "obs/trace.hpp"
#include "unionfind/parallel_rem.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {

TiledParemspLabeler::TiledParemspLabeler(TiledParemspConfig config)
    : Labeler(Algorithm::ParemspTiled, Connectivity::Eight),
      config_(config) {
  PAREMSP_REQUIRE(config_.threads >= 0, "threads must be >= 0");
  PAREMSP_REQUIRE(config_.tile_rows >= 1 && config_.tile_cols >= 1,
                  "tiles must be at least 1x1");
  PAREMSP_REQUIRE(config_.lock_bits >= 0 && config_.lock_bits <= 24,
                  "lock_bits out of range");
  if (config_.merge_backend == MergeBackend::LockedRem) {
    locks_ = std::make_unique<uf::LockPool>(config_.lock_bits);
  }
}

LabelingResult TiledParemspLabeler::run_impl(
    ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
    analysis::ComponentStats* stats) const {
  (void)connectivity;  // 8-only; run() rejected anything else
  const WallTimer total;
  // Opened at entry so workspace acquisition lands in scan_ms and the four
  // phase timings partition total_ms (the exporters' reconcile contract).
  WallTimer phase;
  LabelingResult result;
  result.labels = scratch.acquire_plane(image.rows(), image.cols(),
                                        LabelScratch::PlaneInit::Dirty);
  if (image.size() == 0) return result;

  const int threads =
      config_.threads > 0 ? config_.threads : omp_get_max_threads();

  std::vector<TileSpec> tiles = make_tile_grid(
      image.rows(), image.cols(), config_.tile_rows, config_.tile_cols);
  const int ntiles = static_cast<int>(tiles.size());
  const std::size_t label_space = static_cast<std::size_t>(image.size()) + 1;
  std::span<Label> p = scratch.parents(label_space);
  // Fused-analysis cells: one shared array, disjoint per-tile label
  // ranges, so the concurrent tile scans need no synchronization on it.
  std::span<analysis::FeatureCell> cells;
  if (stats != nullptr) cells = scratch.feature_cells(label_space);
  LabelImage& labels = result.labels;

  // --- Phase I: tile-local two-line scans ----------------------------------
  // Per-tile join slots mirror the disjoint label ranges: summed after the
  // barrier, so no shared counter lives inside the scan loop.
  std::vector<std::uint64_t> tile_joins(tiles.size(), 0);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (int t = 0; t < ntiles; ++t) {
    obs::Span span("tiled.scan.tile", "tile");
    auto& tile = tiles[static_cast<std::size_t>(t)];
    std::uint64_t* joins = &tile_joins[static_cast<std::size_t>(t)];
    tile.used = stats != nullptr
                    ? scan_tile(image, labels, p, tile, cells, joins)
                    : scan_tile(image, labels, p, tile, joins);
  }
  result.timings.scan_ms = phase.elapsed_ms();
  {
    auto& counters = result.timings.counters;
    counters.tiles = tiles.size();
    for (const auto& tile : tiles) counters.provisional_labels += tile.used;
    for (const std::uint64_t j : tile_joins) counters.scan_unions += j;
  }

  // --- Phase II: merge horizontal + vertical tile seams ---------------------
  phase.reset();
  std::uint64_t merge_pairs = 0;
  std::uint64_t merge_unions = 0;
  std::uint64_t merge_retries = 0;
  switch (config_.merge_backend) {
    case MergeBackend::LockedRem: {
      uf::LockPool& locks = *locks_;
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
      for (int t = 0; t < ntiles; ++t) {
        obs::Span span("tiled.merge.tile", "tile");
        std::uint64_t pairs = 0;
        uf::UniteStats us;
        merge_tile_seams(labels, tiles[static_cast<std::size_t>(t)],
                         [&](Label x, Label y) {
                           ++pairs;
                           uf::locked_unite(p.data(), locks, x, y, &us);
                         });
#pragma omp atomic
        merge_pairs += pairs;
#pragma omp atomic
        merge_unions += us.joins;
#pragma omp atomic
        merge_retries += us.retries;
      }
      break;
    }
    case MergeBackend::CasRem: {
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
      for (int t = 0; t < ntiles; ++t) {
        obs::Span span("tiled.merge.tile", "tile");
        std::uint64_t pairs = 0;
        uf::UniteStats us;
        merge_tile_seams(labels, tiles[static_cast<std::size_t>(t)],
                         [&](Label x, Label y) {
                           ++pairs;
                           uf::cas_unite(p.data(), x, y, &us);
                         });
#pragma omp atomic
        merge_pairs += pairs;
#pragma omp atomic
        merge_unions += us.joins;
#pragma omp atomic
        merge_retries += us.retries;
      }
      break;
    }
    case MergeBackend::Sequential: {
      for (int t = 0; t < ntiles; ++t) {
        merge_tile_seams(labels, tiles[static_cast<std::size_t>(t)],
                         [&](Label x, Label y) {
                           ++merge_pairs;
                           uf::rem_unite(p.data(), x, y, &merge_unions);
                         });
      }
      break;
    }
  }
  result.timings.merge_ms = phase.elapsed_ms();
  result.timings.counters.merge_pairs = merge_pairs;
  result.timings.counters.merge_unions = merge_unions;
  result.timings.counters.merge_retries = merge_retries;

  // --- FLATTEN + canonical raster-order renumber ----------------------------
  phase.reset();
  {
    obs::Span span("tiled.flatten");
    Label total_used = 0;
    for (const auto& tile : tiles) total_used += tile.used;
    std::span<Label> remap =
        scratch.aux(static_cast<std::size_t>(total_used) + 1);
    result.num_components = resolve_final_labels(p, tiles, labels, remap);
    // Fused analysis: the seam unions of Phase II are now baked into the
    // resolved parent table, so reducing each tile's cells through it merges
    // features exactly where labels were unified. O(labels issued).
    if (stats != nullptr) {
      stats->components.assign(
          static_cast<std::size_t>(result.num_components), {});
      fold_tile_features(cells, p, tiles, stats->components);
    }
  }
  result.timings.flatten_ms = phase.elapsed_ms();

  // --- Final labeling pass --------------------------------------------------
  phase.reset();
  {
    obs::Span span("tiled.relabel");
    const std::int64_t n = labels.size();
    Label* lp = labels.pixels().data();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::int64_t i = 0; i < n; ++i) {
      if (lp[i] != 0) lp[i] = p[lp[i]];
    }
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  return result;
}

}  // namespace paremsp
