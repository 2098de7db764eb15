// Tests for the synthetic workload generators: determinism, density/shape
// guarantees, and the structural properties each dataset stand-in relies on.
#include <gtest/gtest.h>

#include "baselines/flood_fill.hpp"
#include "common/contracts.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp::gen {
namespace {

using testing::request_for;

std::int64_t foreground(const BinaryImage& img) {
  std::int64_t n = 0;
  for (const auto px : img.pixels()) n += px;
  return n;
}

Label count_components(const BinaryImage& img) {
  return FloodFillLabeler().run(request_for(img)).num_components;
}

// --- Determinism across all stochastic generators ----------------------------

TEST(Generators, DeterministicPerSeed) {
  EXPECT_EQ(uniform_noise(32, 32, 0.5, 7), uniform_noise(32, 32, 0.5, 7));
  EXPECT_NE(uniform_noise(32, 32, 0.5, 7), uniform_noise(32, 32, 0.5, 8));
  EXPECT_EQ(maze(21, 21, 3), maze(21, 21, 3));
  EXPECT_EQ(random_rectangles(40, 40, 5, 2, 8, 1),
            random_rectangles(40, 40, 5, 2, 8, 1));
  EXPECT_EQ(random_ellipses(40, 40, 5, 2, 8, 1),
            random_ellipses(40, 40, 5, 2, 8, 1));
  EXPECT_EQ(plasma(33, 31, 9), plasma(33, 31, 9));
  EXPECT_EQ(texture_like(48, 48, 5), texture_like(48, 48, 5));
  EXPECT_EQ(aerial_like(48, 48, 5), aerial_like(48, 48, 5));
  EXPECT_EQ(misc_like(48, 48, 5), misc_like(48, 48, 5));
  EXPECT_EQ(landcover_like(48, 48, 5), landcover_like(48, 48, 5));
  EXPECT_EQ(color_test_card(24, 24, 5), color_test_card(24, 24, 5));
}

// --- Elementary patterns -------------------------------------------------------

TEST(UniformNoise, DensityHitsTarget) {
  const auto img = uniform_noise(200, 200, 0.3, 11);
  const double density =
      static_cast<double>(foreground(img)) / static_cast<double>(img.size());
  EXPECT_NEAR(density, 0.3, 0.02);
}

TEST(UniformNoise, ExtremeDensities) {
  EXPECT_EQ(foreground(uniform_noise(20, 20, 0.0, 1)), 0);
  EXPECT_EQ(foreground(uniform_noise(20, 20, 1.0, 1)), 400);
  EXPECT_THROW(uniform_noise(4, 4, 1.5, 1), PreconditionError);
}

TEST(Checkerboard, SinglePixelCellsConnectUnder8) {
  const auto img = checkerboard(8, 8, 1);
  EXPECT_EQ(foreground(img), 32);
  // Diagonal corners touch: one component under 8-connectivity.
  EXPECT_EQ(count_components(img), 1);
}

TEST(Checkerboard, LargeCellsAreIsolated) {
  const auto img = checkerboard(12, 12, 3);
  // 4x4 grid of 3x3 cells, half foreground; under 8-conn the diagonal
  // corners of 3x3 cells still touch.
  EXPECT_EQ(foreground(img), 72);
  EXPECT_EQ(count_components(img), 1);
  EXPECT_THROW(checkerboard(4, 4, 0), PreconditionError);
}

TEST(Stripes, HorizontalAndVerticalCounts) {
  // 2 fg rows every 4: rows 0-1, 4-5, 8-9 -> 3 stripes.
  const auto h = stripes(10, 6, 4, 2, /*vertical=*/false);
  EXPECT_EQ(count_components(h), 3);
  const auto v = stripes(6, 10, 4, 2, /*vertical=*/true);
  EXPECT_EQ(count_components(v), 3);
}

TEST(DiagonalStripes, StripesAreConnectedDiagonals) {
  const auto img = diagonal_stripes(16, 16, 8, 2);
  // (r+c) mod 8 < 2: bands at offsets {0,8,16,24} -> ceil(31/8)=4 bands.
  EXPECT_EQ(count_components(img), 4);
}

TEST(ConcentricRings, NestedComponentCount) {
  const auto img = concentric_rings(20, 20, 2);
  // Chebyshev distance to center (10,10): max is 10 -> bands d/2 even:
  // d in 0-1 (on), 4-5, 8-9 -> plus corners at 10... count via oracle and
  // sanity-bound it instead of hand-arithmetic.
  const Label n = count_components(img);
  EXPECT_GE(n, 3);
  EXPECT_LE(n, 4);
}

TEST(Spiral, IsOneConnectedComponent) {
  for (const Coord size : {16, 33, 64}) {
    const auto img = spiral(size, size, 2, 3);
    EXPECT_EQ(count_components(img), 1) << "size=" << size;
    EXPECT_GT(foreground(img), 0);
  }
}

TEST(Maze, WallsFormOneComponentAndCorridorsPerfect) {
  const auto img = maze(31, 41, 12);
  // Recursive-backtracker walls stay fully connected under 8-connectivity.
  EXPECT_EQ(count_components(img), 1);
  // Corridors (background) form a spanning tree over the cell grid:
  // (31-1)/2 * (41-1)/2 = 300 cells -> corridors are one 4-connected
  // component too (invert and check).
  BinaryImage inverted(img.rows(), img.cols());
  for (Coord r = 0; r < img.rows(); ++r) {
    for (Coord c = 0; c < img.cols(); ++c) {
      inverted(r, c) = img(r, c) != 0 ? std::uint8_t{0} : std::uint8_t{1};
    }
  }
  EXPECT_EQ(FloodFillLabeler(Connectivity::Four).run(request_for(inverted))
                .num_components,
            1);
}

TEST(RandomRectangles, RespectsCountZeroAndBounds) {
  EXPECT_EQ(foreground(random_rectangles(20, 20, 0, 1, 5, 1)), 0);
  const auto img = random_rectangles(20, 20, 50, 2, 6, 3);
  EXPECT_GT(foreground(img), 0);
  EXPECT_THROW(random_rectangles(8, 8, 2, 3, 2, 1), PreconditionError);
}

TEST(RandomEllipses, ProducesRoundishBlobs) {
  const auto img = random_ellipses(64, 64, 3, 5, 8, 17);
  EXPECT_GT(foreground(img), 3 * 25);  // at least ~pi*r^2 with overlap slack
  EXPECT_THROW(random_ellipses(8, 8, 2, 0, 2, 1), PreconditionError);
}

TEST(TextBanner, GlyphsAreSeparateComponents) {
  // "III" - three glyphs, each one connected component.
  const auto img = text_banner("III", 1, 2);
  EXPECT_EQ(count_components(img), 3);
  // Unknown characters render blank.
  const auto blank = text_banner("@@@", 1, 1);
  EXPECT_EQ(foreground(blank), 0);
}

TEST(TextBanner, ScalingPreservesTopology) {
  for (const Coord scale : {1, 2, 3}) {
    const auto img = text_banner("CCL", scale, 2);
    EXPECT_EQ(count_components(img), 3) << "scale=" << scale;
  }
}

// --- Grayscale sources -----------------------------------------------------------

TEST(Plasma, FullValueRangeAndDeterminism) {
  const auto img = plasma(65, 65, 21);
  std::uint8_t lo = 255;
  std::uint8_t hi = 0;
  for (const auto px : img.pixels()) {
    lo = std::min(lo, px);
    hi = std::max(hi, px);
  }
  EXPECT_EQ(lo, 0);    // normalized to the full range
  EXPECT_EQ(hi, 255);
  EXPECT_THROW(plasma(8, 8, 1, 0.0), PreconditionError);
}

TEST(Gradient, MonotoneRamp) {
  const auto h = gradient(4, 100, /*horizontal=*/true);
  for (Coord c = 1; c < 100; ++c) EXPECT_GE(h(0, c), h(0, c - 1));
  EXPECT_EQ(h(0, 0), 0);
  EXPECT_EQ(h(0, 99), 255);
  const auto v = gradient(100, 4, /*horizontal=*/false);
  for (Coord r = 1; r < 100; ++r) EXPECT_GE(v(r, 0), v(r - 1, 0));
}

// --- Dataset stand-ins -------------------------------------------------------------

TEST(TextureLike, DenseWithManyComponents) {
  const auto img = texture_like(128, 128, 31);
  const double density =
      static_cast<double>(foreground(img)) / static_cast<double>(img.size());
  EXPECT_NEAR(density, 0.5, 0.1);  // thresholded at the median
  EXPECT_GT(count_components(img), 10);
}

TEST(AerialLike, SparseStructuredForeground) {
  const auto img = aerial_like(128, 128, 31);
  const double density =
      static_cast<double>(foreground(img)) / static_cast<double>(img.size());
  EXPECT_GT(density, 0.02);
  EXPECT_LT(density, 0.7);
}

TEST(LandcoverLike, SmoothingGrowsPatches) {
  const auto rough = landcover_like(96, 96, 8, 0);
  const auto smooth = landcover_like(96, 96, 8, 5);
  // Majority smoothing merges speckle into larger organic patches.
  EXPECT_LT(count_components(smooth), count_components(rough) / 2);
  EXPECT_THROW(landcover_like(8, 8, 1, -1), PreconditionError);
}

TEST(MiscLike, NonTrivialEverySeed) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto img = misc_like(64, 64, seed);
    EXPECT_GT(foreground(img), 0) << "seed=" << seed;
    EXPECT_LT(foreground(img), img.size()) << "seed=" << seed;
  }
}

// --- Degenerate dimensions ---------------------------------------------------------

TEST(Generators, HandleEmptyAndTinyImages) {
  EXPECT_EQ(uniform_noise(0, 0, 0.5, 1).size(), 0);
  EXPECT_EQ(texture_like(0, 10, 1).size(), 0);
  EXPECT_EQ(landcover_like(10, 0, 1).size(), 0);
  EXPECT_EQ(spiral(1, 1, 1, 1).size(), 1);
  EXPECT_EQ(maze(2, 2, 1).size(), 4);  // too small to carve: all walls
  EXPECT_EQ(text_banner("", 1, 2).cols(), 4);
}

}  // namespace
}  // namespace paremsp::gen
