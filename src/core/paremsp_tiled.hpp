// Tiled PAREMSP — a 2-D extension of the paper's Algorithm 7.
//
// The paper partitions rows only, which caps available parallelism at
// rows/2 chunks and makes each boundary a full image row. This extension
// partitions the image into a grid of tiles: each tile runs the same
// chunk-local two-line scan (masked on its top row *and* left column), and
// Phase II merges both horizontal and vertical tile boundaries with the
// same parallel REM merger. For wide images this shortens boundaries and
// exposes more parallelism; the ablation bench quantifies when it pays.
//
// The phases themselves live in core/tiled_phases.hpp so this in-process
// OpenMP executor and the engine's sharded huge-image path
// (engine/sharded_labeler.cpp) compose the same audited steps. A final
// raster-first-appearance renumber makes the output bit-identical to
// sequential AREMSP for EVERY tile geometry and thread count — not merely
// partition-equivalent (see DESIGN.md §5).
#pragma once

#include <memory>

#include "core/labeling.hpp"
#include "core/paremsp.hpp"
#include "unionfind/lock_pool.hpp"

namespace paremsp {

/// Tiled-PAREMSP tuning knobs.
struct TiledParemspConfig {
  /// Worker threads; 0 means the OpenMP default.
  int threads = 0;
  /// Tile height in rows; any value >= 1 (down to single-pixel tiles —
  /// the canonical renumber keeps the output identical regardless).
  Coord tile_rows = 256;
  /// Tile width in columns. Minimum 1.
  Coord tile_cols = 256;
  /// Boundary-merge implementation (shared with ParemspLabeler).
  MergeBackend merge_backend = MergeBackend::LockedRem;
  /// log2 of the striped lock-pool size (LockedRem only).
  int lock_bits = uf::LockPool::kDefaultBits;
};

/// 2-D tiled PAREMSP labeler (8-connectivity).
class TiledParemspLabeler final : public Labeler {
 public:
  explicit TiledParemspLabeler(TiledParemspConfig config = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "paremsp2d";
  }
  [[nodiscard]] bool is_parallel() const noexcept override { return true; }

  [[nodiscard]] const TiledParemspConfig& config() const noexcept {
    return config_;
  }

 protected:
  /// Fused component analysis when `stats` is requested: tile scans
  /// accumulate features into disjoint cell ranges, the seam merges
  /// decide which cells belong together, and the resolve phase reduces
  /// them — no pixel re-read for any tile geometry.
  [[nodiscard]] LabelingResult run_impl(ConstImageView image,
                                        Connectivity connectivity,
                                        LabelScratch& scratch,
                                        analysis::ComponentStats* stats)
      const override;

  TiledParemspConfig config_;
  std::unique_ptr<uf::LockPool> locks_;
};

}  // namespace paremsp
