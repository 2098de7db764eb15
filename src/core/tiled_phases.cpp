#include "core/tiled_phases.hpp"

#include <algorithm>
#include <cstring>

#include "common/contracts.hpp"
#include "core/equiv_policies.hpp"
#include "core/scan_two_line.hpp"
#include "unionfind/parallel_rem.hpp"

namespace paremsp {

std::vector<TileSpec> make_tile_grid(Coord rows, Coord cols, Coord tile_rows,
                                     Coord tile_cols) {
  PAREMSP_REQUIRE(tile_rows >= 1 && tile_cols >= 1,
                  "tiles must be at least 1x1");
  std::vector<TileSpec> tiles;
  if (rows <= 0 || cols <= 0) return tiles;
  tiles.reserve(static_cast<std::size_t>((rows + tile_rows - 1) / tile_rows) *
                static_cast<std::size_t>((cols + tile_cols - 1) / tile_cols));
  Label base = 0;
  for (Coord r0 = 0; r0 < rows; r0 += tile_rows) {
    const Coord r1 = std::min<Coord>(r0 + tile_rows, rows);
    for (Coord c0 = 0; c0 < cols; c0 += tile_cols) {
      const Coord c1 = std::min<Coord>(c0 + tile_cols, cols);
      TileSpec t{r0, r1, c0, c1, base, 0};
      base += static_cast<Label>(t.pixels());
      tiles.push_back(t);
    }
  }
  return tiles;
}

TileGridShape tile_grid_shape(std::span<const TileSpec> tiles) {
  TileGridShape grid;
  if (tiles.empty()) return grid;
  const TileSpec& first = tiles.front();
  grid.tile_rows = first.row_end - first.row_begin;
  grid.tile_cols = first.col_end - first.col_begin;
  Coord cols = 0;
  for (const TileSpec& tile : tiles) {
    if (tile.row_begin != first.row_begin) break;
    ++cols;
  }
  grid.grid_cols = cols;
  grid.grid_rows = static_cast<Coord>(tiles.size()) / cols;
  return grid;
}

Label scan_tile(ConstImageView image, std::span<Label> parents,
                const TileSpec& tile, RunBuffer& runs,
                Connectivity connectivity, std::uint64_t* joins,
                int threshold) {
  RemEquiv eq(parents, tile.base, joins);
  NoFeatureSink sink;
  return connectivity == Connectivity::Eight
             ? scan_runs_two_line(image, runs, eq, sink, tile.row_begin,
                                  tile.row_end, tile.col_begin, tile.col_end,
                                  threshold)
             : scan_runs_one_line(image, runs, eq, sink, connectivity,
                                  tile.row_begin, tile.row_end,
                                  tile.col_begin, tile.col_end, threshold);
}

Label scan_tile(ConstImageView image, std::span<Label> parents,
                const TileSpec& tile, RunBuffer& runs,
                Connectivity connectivity,
                std::span<analysis::FeatureCell> cells, std::uint64_t* joins,
                int threshold) {
  RemEquiv eq(parents, tile.base, joins);
  analysis::FeatureAccumulator sink(cells);
  return connectivity == Connectivity::Eight
             ? scan_runs_two_line(image, runs, eq, sink, tile.row_begin,
                                  tile.row_end, tile.col_begin, tile.col_end,
                                  threshold)
             : scan_runs_one_line(image, runs, eq, sink, connectivity,
                                  tile.row_begin, tile.row_end,
                                  tile.col_begin, tile.col_end, threshold);
}

namespace {

/// The two run streams of one row pair, merged by (col_begin, upper
/// first on ties) — the sequential two-line visit order.
template <class Visit>
void visit_row_pair(std::span<const Run> upper, std::span<const Run> lower,
                    Visit&& visit) {
  std::size_t u = 0;
  std::size_t l = 0;
  while (u < upper.size() || l < lower.size()) {
    if (l >= lower.size() ||
        (u < upper.size() && upper[u].col_begin <= lower[l].col_begin)) {
      visit(upper[u++]);
    } else {
      visit(lower[l++]);
    }
  }
}

}  // namespace

RunLabelResolver::RunLabelResolver(std::span<Label> parents,
                                   std::span<const TileSpec> tiles,
                                   std::span<const RunBuffer> tile_runs,
                                   Connectivity connectivity)
    : parents_(parents),
      tiles_(tiles),
      tile_runs_(tile_runs),
      connectivity_(connectivity),
      grid_(tile_grid_shape(tiles)),
      tile_roots_(tiles.size(), 0) {
  PAREMSP_REQUIRE(tile_runs.size() >= tiles.size(),
                  "one run buffer per tile required");
  group_tiles_.push_back(0);
  if (tiles.empty()) return;
  const auto cols = static_cast<std::size_t>(grid_.grid_cols);
  const bool eight = connectivity == Connectivity::Eight;
  for (std::size_t t = cols; t < tiles.size(); t += cols) {
    if (!eight || tiles[t].row_begin % 2 == 0) group_tiles_.push_back(t);
  }
  group_tiles_.push_back(tiles.size());
  group_start_.assign(groups() + 1, 0);
}

void RunLabelResolver::resolve_tile(std::size_t t) {
  const TileSpec& tile = tiles_[t];
  const Label lo = tile.base + 1;
  const Label hi = tile.base + tile.used;
  // FLATTEN (paper Algorithm 3) over this tile's range in increasing
  // order: REM parents point at smaller labels, so an own parent is
  // already resolved; a parent in an earlier tile is chased to its root.
  // Other tiles compress concurrently, so every access is a relaxed
  // atomic one: the forest is static after the merge, so any value read
  // is an ancestor.
  using uf::detail::load;
  Label* const parents = parents_.data();
  Label roots = 0;
  for (Label l = lo; l <= hi; ++l) {
    Label p = load(parents, l);
    if (p == l) {
      ++roots;
      continue;
    }
    if (p >= lo) {
      p = load(parents, p);
    } else {
      for (Label q = load(parents, p); q != p; q = load(parents, p)) p = q;
    }
    uf::detail::store(parents, l, p);
  }
  tile_roots_[t] = roots;
}

Label RunLabelResolver::number_groups() {
  Label k = 0;
  for (std::size_t g = 0; g < groups(); ++g) {
    group_start_[g] = k;
    for (std::size_t t = group_tiles_[g]; t < group_tiles_[g + 1]; ++t) {
      k += tile_roots_[t];
    }
  }
  group_start_[groups()] = k;
  return k;
}

void RunLabelResolver::rank_group(std::size_t g) {
  const std::size_t t0 = group_tiles_[g];
  const std::size_t t1 = group_tiles_[g + 1];
  const Label group_base = tiles_[t0].base;
  Label* const parents = parents_.data();
  // Number the group's roots in canonical order, stored as -(final label)
  // so that a numbered root reads apart from an unnumbered one (p[l] == l).
  // A root in an earlier group (<= group_base) was numbered there; its
  // entry is not ours to read. A visited label takes its root's -number.
  Label next = group_start_[g];
  const Label last = group_start_[g + 1];
  const auto visit = [&](Label l) {
    Label& entry = parents[l];
    const Label root = entry;
    if (root <= group_base) return;  // numbered (< 0) or an earlier group
    Label& root_entry = parents[root];
    if (root_entry > 0) root_entry = -++next;
    entry = root_entry;
  };
  // Every component's first visit issued one of its labels, and within a
  // visit step a tile issues its labels in visit order; tile columns
  // partition the columns. So walking each step's issue range across the
  // tile columns meets the components in first-visit order.
  const auto cols = static_cast<std::size_t>(grid_.grid_cols);
  const bool eight = connectivity_ == Connectivity::Eight;
  const Coord rows = tiles_.back().row_end;
  for (std::size_t b = t0; b < t1 && next < last; b += cols) {
    const Coord r0 = tiles_[b].row_begin;
    const Coord r1 = tiles_[b].row_end;
    std::size_t step = 0;
    if (eight && r0 % 2 != 0) {
      // The pair (r0 - 1, r0) straddles this band's upper edge: the band
      // above issued its upper row, this band its lower row, so only the
      // merged run streams give the pair's visit order.
      for (std::size_t tc = 0; tc < cols; ++tc) {
        visit_row_pair(tile_runs_[b - cols + tc].row(r0 - 1),
                       tile_runs_[b + tc].row(r0),
                       [&](const Run& run) { visit(run.label); });
      }
      step = 1;
    }
    // A band ending on an odd row leaves its last row to the next band's
    // straddled pair.
    const std::size_t steps = tile_runs_[b].issued().size() -
                              (eight && r1 < rows && r1 % 2 != 0 ? 1 : 0);
    for (; step < steps && next < last; ++step) {
      for (std::size_t tc = 0; tc < cols; ++tc) {
        const TileSpec& tile = tiles_[b + tc];
        const std::span<const Label> issued = tile_runs_[b + tc].issued();
        const Label hi = tile.base + issued[step];
        for (Label l = tile.base + (step > 0 ? issued[step - 1] : 0) + 1;
             l <= hi; ++l) {
          visit(l);
        }
      }
    }
  }

  // Final labels, in increasing label order: a numbered label flips to
  // its number; any other label whose root lies in this group copies the
  // root's number (the root is the smaller label, so it flipped already);
  // a label whose root lies in an earlier group keeps -root for
  // finalize_tile.
  for (std::size_t t = t0; t < t1; ++t) {
    const TileSpec& tile = tiles_[t];
    for (Label l = tile.base + 1; l <= tile.base + tile.used; ++l) {
      const Label p = parents[l];
      parents[l] = p < 0 ? -p : (p > group_base ? parents[p] : -p);
    }
  }
}

void RunLabelResolver::finalize_tile(std::size_t t) {
  const TileSpec& tile = tiles_[t];
  Label* const parents = parents_.data();
  for (Label l = tile.base + 1; l <= tile.base + tile.used; ++l) {
    // -root of a root in an earlier group, whose entry holds its final
    // label and is never written here.
    const Label p = parents[l];
    if (p < 0) parents[l] = parents[-p];
  }
}

Label resolve_final_run_labels(std::span<Label> parents,
                               std::span<const TileSpec> tiles,
                               std::span<const RunBuffer> tile_runs,
                               Connectivity connectivity, Coord rows,
                               std::span<Label> /*remap*/) {
  PAREMSP_REQUIRE(tiles.empty() || tiles.back().row_end == rows,
                  "rows does not match the tile grid");
  RunLabelResolver resolver(parents, tiles, tile_runs, connectivity);
  for (std::size_t t = 0; t < tiles.size(); ++t) resolver.resolve_tile(t);
  const Label k = resolver.number_groups();
  for (std::size_t g = 0; g < resolver.groups(); ++g) resolver.rank_group(g);
  for (std::size_t t = 0; t < tiles.size(); ++t) resolver.finalize_tile(t);
  return k;
}

namespace {

/// Labels per block store of the rewrite: 64 bytes, one cache line.
constexpr Coord kRewriteBlock = 16;

/// Write block[0] over [begin, end) of `row` in whole blocks, which may
/// run up to kRewriteBlock - 1 labels past `end` but never past `limit`:
/// a block that would cross `limit` becomes an exact fill of the rest.
void store_blocks(Label* row, Coord begin, Coord end, Coord limit,
                  const Label (&block)[kRewriteBlock]) {
  Coord c = begin;
  for (; c < end && c + kRewriteBlock <= limit; c += kRewriteBlock) {
    std::memcpy(row + c, block, sizeof(block));
  }
  if (c < end) std::fill(row + c, row + end, block[0]);
}

}  // namespace

void rewrite_run_labels(const RunBuffer& runs, std::span<const Label> parents,
                        const TileSpec& tile, MutableImageView out) {
  static constexpr Label kZeros[kRewriteBlock] = {};
  Label block[kRewriteBlock];
  for (Coord r = tile.row_begin; r < tile.row_end; ++r) {
    Label* dst = out.row(r);
    // One pass left to right, gap then run. A segment's overshoot lands
    // where the next segment starts and is overwritten by it; the row's
    // last segment ends at col_end, where every store is exact.
    Coord c = tile.col_begin;
    for (const Run& run : runs.row(r)) {
      store_blocks(dst, c, run.col_begin, tile.col_end, kZeros);
      std::fill_n(block, kRewriteBlock,
                  parents[static_cast<std::size_t>(run.label)]);
      store_blocks(dst, run.col_begin, run.col_end, tile.col_end, block);
      c = run.col_end;
    }
    store_blocks(dst, c, tile.col_end, tile.col_end, kZeros);
  }
}

void fold_tile_features(std::span<const analysis::FeatureCell> cells,
                        std::span<const Label> parents,
                        std::span<const TileSpec> tiles,
                        std::span<analysis::ComponentInfo> components) {
  for (const TileSpec& tile : tiles) {
    if (tile.used == 0) continue;
    analysis::fold_features(cells, parents, tile.base + 1,
                            tile.base + tile.used, components);
  }
  analysis::finalize_components(components);
}

}  // namespace paremsp
