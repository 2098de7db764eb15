// The tile-parallel FLATTEN + canonical renumber (RunLabelResolver) driven
// from plain std::thread teams, so ThreadSanitizer sees every concurrent
// access of the resolve / rank / finalize+rewrite sub-phases (libgomp is
// not instrumented; the OpenMP executor runs the same functions). Each
// geometry is compared bit for bit against sequential AREMSP
// (8-connectivity) and CCLREMSP (4-connectivity).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/tiled_phases.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"
#include "unionfind/parallel_rem.hpp"

namespace paremsp {
namespace {

using testing::request_for;

/// Run fn(i) for i in [0, n) on a team of `threads` std::threads, item i
/// on thread i % threads; joining the team is the phase barrier. Nothing
/// else orders the threads, and neighbouring items always run on different
/// threads, so TSan reports any cross-item access that lacks its own
/// synchronization even when the two items did not overlap in time.
template <class Fn>
void run_team(int threads, std::size_t n, Fn fn) {
  const auto stride = static_cast<std::size_t>(threads);
  std::vector<std::thread> team;
  for (std::size_t w = 0; w < stride; ++w) {
    team.emplace_back([&fn, w, n, stride] {
      for (std::size_t i = w; i < n; i += stride) fn(i);
    });
  }
  for (std::thread& t : team) t.join();
}

/// The whole run pipeline with every phase on a std::thread team: scan,
/// CAS seam merge, resolve, number, rank, then finalize + rewrite fused
/// per tile as the engine schedules them.
LabelResponse label_on_team(const BinaryImage& image, Coord tile_rows,
                             Coord tile_cols, Connectivity connectivity,
                             int threads) {
  LabelResponse result;
  result.labels = LabelImage(image.rows(), image.cols());
  std::vector<TileSpec> tiles =
      make_tile_grid(image.rows(), image.cols(), tile_rows, tile_cols);
  if (tiles.empty()) return result;
  const TileGridShape grid = tile_grid_shape(tiles);
  std::vector<Label> parents(static_cast<std::size_t>(image.size()) + 1);
  std::vector<RunBuffer> runs(tiles.size());

  run_team(threads, tiles.size(), [&](std::size_t t) {
    tiles[t].used = scan_tile(image, parents, tiles[t], runs[t], connectivity);
  });
  run_team(threads, tiles.size(), [&](std::size_t t) {
    merge_run_seams(tiles, runs, t, grid, connectivity, [&](Label x, Label y) {
      uf::cas_unite(parents.data(), x, y);
    });
  });

  RunLabelResolver resolver(parents, tiles, runs, connectivity);
  run_team(threads, tiles.size(),
           [&](std::size_t t) { resolver.resolve_tile(t); });
  result.num_components = resolver.number_groups();
  run_team(threads, resolver.groups(),
           [&](std::size_t g) { resolver.rank_group(g); });
  run_team(threads, tiles.size(), [&](std::size_t t) {
    resolver.finalize_tile(t);
    rewrite_run_labels(runs[t], parents, tiles[t], result.labels);
  });
  return result;
}

struct Geometry {
  const char* name;
  Coord rows, cols, tile_rows, tile_cols;
};

// Odd tile_rows misalign tiles with the two-line row pairs, so their
// 8-connected rank walks the runs of the pairs straddling odd band
// starts. Tile widths 16, 17 and 33 put several block-store rewrites next
// to each other at every seam.
constexpr Geometry kGeometries[] = {
    {"odd tile rows", 41, 53, 5, 8},
    {"odd tile rows, odd cols", 37, 29, 3, 7},
    {"1x1 tiles", 9, 11, 1, 1},
    {"single column, even bands", 40, 33, 6, 64},
    {"single column, odd bands", 40, 33, 7, 64},
    {"single tile", 30, 45, 64, 64},
    {"tall", 211, 6, 9, 4},
    {"wide", 5, 230, 2, 17},
    {"16-wide tiles, even rows", 36, 70, 6, 16},
    {"16-wide tiles, odd rows", 33, 52, 3, 16},
    {"17-wide tiles, even rows", 28, 61, 4, 17},
    {"17-wide tiles, odd rows", 35, 75, 5, 17},
    {"33-wide tiles, even rows", 30, 104, 8, 33},
    {"33-wide tiles, odd rows", 41, 110, 7, 33},
};

std::vector<std::pair<std::string, BinaryImage>> images(Coord rows,
                                                        Coord cols) {
  return {
      {"landcover", gen::landcover_like(rows, cols, 11)},
      {"noise", gen::uniform_noise(rows, cols, 0.45, 3)},
      {"spiral", gen::spiral(rows, cols, 2, 3)},
      {"checker", gen::checkerboard(rows, cols, 1)},
  };
}

TEST(RunResolverStdThread, TeamsAreBitIdenticalToSequentialForEveryGeometry) {
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    for (const Geometry& g : kGeometries) {
      for (const auto& [what, image] : images(g.rows, g.cols)) {
        const LabelResponse want =
            connectivity == Connectivity::Eight
                ? AremspLabeler().run(request_for(image))
                : CclremspLabeler(Connectivity::Four).run(request_for(image));
        for (const int threads : {2, 3, 4}) {
          SCOPED_TRACE(std::string(g.name) + " / " + what + " / " +
                       std::to_string(threads) + " threads / " +
                       (connectivity == Connectivity::Eight ? "8" : "4") +
                       "-conn");
          const LabelResponse got = label_on_team(
              image, g.tile_rows, g.tile_cols, connectivity, threads);
          EXPECT_EQ(got.num_components, want.num_components);
          EXPECT_EQ(got.labels, want.labels);
        }
      }
    }
  }
}

TEST(RunResolverStdThread, SerialCompositionMatchesTheTeams) {
  // resolve_final_run_labels is the one-thread schedule of the same
  // sub-phases: identical final parents for an odd-aligned grid.
  const BinaryImage image = gen::landcover_like(45, 38, 4);
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    std::vector<TileSpec> tiles = make_tile_grid(45, 38, 7, 9);
    const TileGridShape grid = tile_grid_shape(tiles);
    std::vector<Label> parents(static_cast<std::size_t>(image.size()) + 1);
    std::vector<RunBuffer> runs(tiles.size());
    Label used = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      tiles[t].used = scan_tile(image, parents, tiles[t], runs[t], connectivity);
      used += tiles[t].used;
    }
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      merge_run_seams(tiles, runs, t, grid, connectivity,
                      [&](Label x, Label y) { uf::cas_unite(parents.data(), x, y); });
    }
    std::vector<Label> remap(static_cast<std::size_t>(used) + 1);
    const Label k = resolve_final_run_labels(parents, tiles, runs, connectivity,
                                             image.rows(), remap);
    LabelImage out(image.rows(), image.cols());
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      rewrite_run_labels(runs[t], parents, tiles[t], out);
    }
    const LabelResponse team = label_on_team(image, 7, 9, connectivity, 3);
    EXPECT_EQ(k, team.num_components);
    EXPECT_EQ(out, team.labels);
  }
}

}  // namespace
}  // namespace paremsp
