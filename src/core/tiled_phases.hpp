// Composable phases of 2-D tiled run-based AREMSP labeling.
//
// The tiled algorithm (a 2-D generalization of the paper's Algorithm 7)
// decomposes into five independently schedulable steps:
//
//   1. make_tile_grid           — partition the image into a row-major tile
//                                 grid with disjoint provisional-label
//                                 ranges;
//   2. scan_tile                — extract one tile's maximal runs and merge
//                                 them row against row (the run form of the
//                                 AREMSP scan), masked at the tile's top
//                                 row and left column (out-of-tile pixels
//                                 read as background);
//   3. merge_run_seams          — re-establish the adjacencies suppressed at
//                                 one tile's top/left seams through any
//                                 union backend (Algorithm 8's parallel
//                                 REM merger, its CAS variant, or
//                                 sequential REM);
//   4. RunLabelResolver         — FLATTEN every tile's used label range,
//                                 then renumber components in the
//                                 sequential scan's first-appearance order
//                                 so the result is bit-identical to
//                                 sequential AREMSP (8-connectivity) or
//                                 CCLREMSP (4-connectivity) for EVERY tile
//                                 geometry. Three fanned-out sub-phases:
//                                 resolve per tile, rank per tile-row
//                                 band group, finalize per tile;
//                                 resolve_final_run_labels is their
//                                 single-threaded composition;
//   5. rewrite_run_labels       — expand the resolved run labels into the
//                                 output plane in block stores, the only
//                                 pass that writes it.
//
// Three executors compose these pieces: the rle labelers (in-process
// OpenMP, core/rle_labelers.cpp), the engine's sharded huge-image path
// (persistent-worker jobs, engine/sharded_labeler.cpp) and, for the
// rewrite, the streaming slab session. Keeping the steps here means they
// run the same audited kernel code and differ only in scheduling.
//
// Why the renumber step makes any grid bit-identical (DESIGN.md §5): REM
// keeps each component's root at its minimum provisional label, and the
// sequential scan issues that minimum at the component's first pixel in
// TWO-LINE VISIT ORDER (row pairs (0,1),(2,3),…, column by column, upper
// before lower) — the first-visited pixel has no earlier-visited
// foreground neighbor, so it is always a new-label event. Sequential
// AREMSP's FLATTEN therefore numbers components 1..k by first appearance
// in that visit order. A 2-D grid's bases are prefix sums in tile order
// instead, so numbering roots by label would permute the components —
// numbering them by their first-visit position in the sequential visit
// order restores exactly the sequential numbering. Each first visit is a
// new-label event in its tile too, so each group of tile-row bands finds
// them by walking the labels its tiles issued, step by step
// (RunLabelResolver).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/feature_accumulator.hpp"
#include "common/types.hpp"
#include "core/runs.hpp"
#include "image/connectivity.hpp"
#include "image/view.hpp"

namespace paremsp {

/// One tile of the grid: the half-open pixel rectangle
/// [row_begin, row_end) x [col_begin, col_end) and its provisional-label
/// range (base, base + used].
struct TileSpec {
  Coord row_begin = 0;
  Coord row_end = 0;
  Coord col_begin = 0;
  Coord col_end = 0;
  Label base = 0;  // labels issued in this tile exceed base (prefix sum)
  Label used = 0;  // labels issued by scan_tile (filled in by the caller)

  [[nodiscard]] std::int64_t pixels() const noexcept {
    return static_cast<std::int64_t>(row_end - row_begin) *
           (col_end - col_begin);
  }
};

/// Partition rows x cols into a row-major grid of tile_rows x tile_cols
/// tiles (edge tiles clipped). Bases are prefix sums of tile pixel counts,
/// so label ranges are disjoint and increase in row-major tile order —
/// the order resolve_final_run_labels flattens them in. Any tile size >= 1
/// works (down to 1-pixel tiles); oversize tiles degenerate to one tile,
/// which skips the merge and renumber phases entirely.
[[nodiscard]] std::vector<TileSpec> make_tile_grid(Coord rows, Coord cols,
                                                   Coord tile_rows,
                                                   Coord tile_cols);

/// Row-major shape of a make_tile_grid() result: `tile_rows`/`tile_cols`
/// are the uniform strides (edge tiles may be clipped smaller), so the
/// tile containing pixel (r, c) is (r / tile_rows, c / tile_cols).
struct TileGridShape {
  Coord grid_rows = 0;
  Coord grid_cols = 0;
  Coord tile_rows = 1;
  Coord tile_cols = 1;
};

/// Derive the grid shape back from a row-major TileSpec list.
[[nodiscard]] TileGridShape tile_grid_shape(std::span<const TileSpec> tiles);

/// Phase I for one tile: extract the tile's maximal horizontal runs into
/// `runs` (bit-packed RowBits words, core/runs.hpp) and merge them row
/// against row, issuing provisional labels above tile.base into
/// `parents`. Pixels outside the tile's rectangle read as background; the
/// suppressed cross-seam adjacencies are restored by merge_run_seams.
/// Nothing is written to any label plane — the runs CARRY the labels
/// until rewrite_run_labels expands them, and the buffer's issue log
/// (RunBuffer::issued) records the labels issued per visit step for the
/// renumber. Both connectivities route through the one kernel (the
/// overlap window is the only difference). Returns the number of labels
/// issued (the caller stores it in tile.used). Thread-safe across
/// distinct tiles: a tile scan writes only its own label range and its
/// own run buffer. `joins` is an optional
/// accumulator (see RemEquiv) — pass a per-tile slot to fill
/// PhaseCounters::scan_unions race-free. `threshold` >= 0 scans a
/// GRAYSCALE image through the fused pixel > threshold encoder
/// (RunBuffer::extract) — the im2bw fusion; -1 is the plain binary mode.
[[nodiscard]] Label scan_tile(ConstImageView image, std::span<Label> parents,
                              const TileSpec& tile, RunBuffer& runs,
                              Connectivity connectivity,
                              std::uint64_t* joins = nullptr,
                              int threshold = -1);

/// Fused-analysis variant: every run is additionally folded into `cells`
/// in O(1) via the arithmetic-series coordinate sums
/// (FeatureCell::add_run), value-identical to per-pixel accumulation.
[[nodiscard]] Label scan_tile(ConstImageView image, std::span<Label> parents,
                              const TileSpec& tile, RunBuffer& runs,
                              Connectivity connectivity,
                              std::span<analysis::FeatureCell> cells,
                              std::uint64_t* joins = nullptr,
                              int threshold = -1);

/// Phase II for tile `t`: feed every 4/8-adjacency crossing the tile's
/// top and left seams to `unite(Label, Label)`, operating on the BOUNDARY
/// RUNS of adjacent tiles — one unite per overlapping run pair, instead
/// of one per seam pixel:
///
///   top seam   this tile's first-row runs against the up neighbor's
///              last-row runs (two-pointer overlap walk, window widened
///              by 1 column for 8-connectivity), plus the up-left /
///              up-right corner touches, which live in the DIAGONAL
///              neighbors' run lists (only their seam-hugging run can
///              touch, so they are O(1) probes);
///   left seam  per row, this tile's seam-starting run against the left
///              neighbor's seam-ending runs in rows r-1, r, r+1 clipped
///              to the tile band (rows outside the band cross a
///              horizontal seam too and are exactly the corner cases the
///              top seams above already cover).
///
/// Covering only top + left seams over all tiles covers every seam
/// exactly once. An adjacency that crosses a seam joins pixels of two
/// tiles; charge it to the LOWER tile when they lie in different tile
/// bands, else to the RIGHT one. The charged tile sees the other pixel
/// across its top seam (the up neighbor, or a diagonal one at a corner)
/// or across its left seam, and every tile edge is the top or left seam
/// of exactly one tile.
///
/// `unite` must be safe for the caller's schedule: uf::locked_unite /
/// uf::cas_unite for concurrent tiles, uf::rem_unite when serialized.
template <class UniteFn>
void merge_run_seams(std::span<const TileSpec> tiles,
                     std::span<const RunBuffer> tile_runs, std::size_t t,
                     const TileGridShape& grid, Connectivity connectivity,
                     UniteFn&& unite) {
  const TileSpec& tile = tiles[t];
  const Coord window = run_overlap_window(connectivity);
  const Coord tc = static_cast<Coord>(t) % grid.grid_cols;

  if (tile.row_begin > 0) {
    const Coord seam_row = tile.row_begin - 1;
    const std::size_t up = t - static_cast<std::size_t>(grid.grid_cols);
    const std::span<const Run> mine = tile_runs[t].row(tile.row_begin);
    unite_overlapping_runs(mine, tile_runs[up].row(seam_row), window, unite);
    if (window > 0 && !mine.empty()) {
      if (tc > 0) {
        const std::span<const Run> diag = tile_runs[up - 1].row(seam_row);
        if (!diag.empty() && diag.back().col_end == tile.col_begin &&
            mine.front().col_begin == tile.col_begin) {
          unite(mine.front().label, diag.back().label);
        }
      }
      if (tc + 1 < grid.grid_cols) {
        const std::span<const Run> diag = tile_runs[up + 1].row(seam_row);
        if (!diag.empty() && diag.front().col_begin == tile.col_end &&
            mine.back().col_end == tile.col_end) {
          unite(mine.back().label, diag.front().label);
        }
      }
    }
  }

  if (tile.col_begin > 0) {
    const RunBuffer& left = tile_runs[t - 1];
    for (Coord r = tile.row_begin; r < tile.row_end; ++r) {
      const std::span<const Run> mine = tile_runs[t].row(r);
      if (mine.empty() || mine.front().col_begin != tile.col_begin) continue;
      const Coord lo = std::max<Coord>(r - window, tile.row_begin);
      const Coord hi = std::min<Coord>(r + window, tile.row_end - 1);
      for (Coord rp = lo; rp <= hi; ++rp) {
        const std::span<const Run> theirs = left.row(rp);
        if (!theirs.empty() && theirs.back().col_end == tile.col_begin) {
          unite(mine.front().label, theirs.back().label);
        }
      }
    }
  }
}

/// Phase III, split for fan-out: FLATTEN every tile's used label range
/// and renumber components into the canonical order of the matching
/// sequential pixel algorithms (the label plane holds no provisional
/// labels):
///
///   8-connectivity  first appearance in the sequential TWO-LINE visit
///                   order — row pairs (0,1),(2,3),…, column by column,
///                   upper before lower.
///   4-connectivity  first appearance in raster order (the numbering of
///                   the one-line-scan algorithms and the flood-fill
///                   oracle).
///
/// The sub-phases, each separated from the next by a barrier or latch:
///
///   resolve_tile(t)   point each of tile t's labels at its REM root (the
///                     component's minimum label) and count the roots.
///                     Concurrent across tiles: roots in other tiles are
///                     chased through relaxed atomic loads while those
///                     tiles compress.
///   number_groups()   serial, O(tiles): exclusive prefix of the per-group
///                     root counts; returns k.
///   rank_group(g)     walk group g's labels in issue order (below) and
///                     number the roots that lie in the group on first
///                     appearance, after the group's prefix; then give
///                     every label of the group whose root is in the
///                     group its final label. Concurrent across groups: a
///                     group reads and writes only its own labels' entries.
///   finalize_tile(t)  give each of tile t's remaining labels (root in an
///                     earlier group) its root's final label. Concurrent
///                     across tiles, and with rewrite_run_labels of OTHER
///                     tiles.
///
/// Why issue order finds first appearances: scan_runs anchors its pairs
/// at image row 0 and logs the labels issued per visit step (a row pair,
/// or a row for 4-connectivity) in RunBuffer::issued(), so a tile's scan
/// visits its runs in the global visit order restricted to the tile. A
/// component's first-visited run therefore has no earlier-visited
/// neighbor inside its tile either, and issues a fresh label; within a
/// step a tile's labels come in visit order, and tile columns partition
/// the columns. rank_group walks, step by step and tile column by tile
/// column, the labels each tile issued — O(labels), no run is read — and
/// meets every component first at its first visit. The one exception is
/// a pair straddling an odd band start (8-connectivity with odd tile
/// rows): the band above issued its upper row and the band below its
/// lower row, so that pair's two run streams are merged and walked.
///
/// A group is a run of whole tile-row bands. A component's root lies in
/// the earliest row-major tile that contains it, so its band is the first
/// band it touches, and its first visit lies in that band unless a
/// two-line row pair straddles the band's upper edge — then it lies in
/// the pair's lower row, still inside the band. Group boundaries sit at
/// every band start for 4-connectivity and at every EVEN band start for
/// 8-connectivity, so no row pair crosses them: every group's first
/// appearances precede the next group's, and numbering each group after a
/// prefix of the group counts gives the global numbering.
///
/// The resolver borrows every span; they must outlive it, and each run
/// buffer must hold its tile's scan_tile output. Only the constructor
/// allocates (O(tiles)); the sub-phases never throw.
class RunLabelResolver {
 public:
  RunLabelResolver(std::span<Label> parents, std::span<const TileSpec> tiles,
                   std::span<const RunBuffer> tile_runs,
                   Connectivity connectivity);

  [[nodiscard]] std::size_t groups() const noexcept {
    return group_tiles_.size() - 1;
  }

  void resolve_tile(std::size_t t);
  [[nodiscard]] Label number_groups();
  void rank_group(std::size_t g);
  void finalize_tile(std::size_t t);

 private:
  std::span<Label> parents_;
  std::span<const TileSpec> tiles_;
  std::span<const RunBuffer> tile_runs_;
  Connectivity connectivity_;
  TileGridShape grid_;
  std::vector<Label> tile_roots_;    // per tile: components rooted there
  std::vector<std::size_t> group_tiles_;  // group g: tiles [at g, at g+1)
  std::vector<Label> group_start_;   // per group: labels before its first
};

/// Phase III single-threaded: the serial composition of RunLabelResolver's
/// sub-phases. On return parents[l] is the FINAL label of every issued
/// provisional label l; finish with rewrite_run_labels per tile. The
/// renumber works in place, so `remap` is not read; `rows` is the image
/// height. Returns k.
[[nodiscard]] Label resolve_final_run_labels(
    std::span<Label> parents, std::span<const TileSpec> tiles,
    std::span<const RunBuffer> tile_runs, Connectivity connectivity,
    Coord rows, std::span<Label> remap);

/// Final labeling for one tile: expand each resolved run label into its
/// row segment — the only pass that writes the output raster. Each row is
/// written left to right in one pass, gap (zeros) then run, every segment
/// in whole 16-label block stores: a block may run past its segment, and
/// the next segment, which starts exactly there, overwrites it. A block
/// that would cross the tile's col_end becomes an exact fill, so nothing
/// outside the tile's rectangle is written. `out` may be strided (a
/// caller's label_out ROI writes zero-copy). Thread-safe across distinct
/// tiles (disjoint rectangles).
void rewrite_run_labels(const RunBuffer& runs, std::span<const Label> parents,
                        const TileSpec& tile, MutableImageView out);

/// Fused-analysis epilogue of Phase III: reduce every tile's
/// per-provisional-label feature cells into per-component records
/// through the resolved parent array (parents[l] is final after every
/// tile's finalize_tile), then derive centroids. This is where the
/// seam unions take effect on the features — a union recorded by
/// merge_run_seams makes two provisional labels resolve to one final
/// label, so their cells land in (and commutatively merge into) the same
/// component here. O(total used labels): no pixel is ever revisited.
/// `components` must be default-initialized and sized num_components.
void fold_tile_features(std::span<const analysis::FeatureCell> cells,
                        std::span<const Label> parents,
                        std::span<const TileSpec> tiles,
                        std::span<analysis::ComponentInfo> components);

}  // namespace paremsp
