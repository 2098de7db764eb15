// Tests for the grayscale (multi-level) CCL extension.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baselines/flood_fill.hpp"
#include "core/grayscale.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

using testing::request_for;

/// Reference: label each gray level's mask separately with flood fill and
/// sum the component counts.
Label reference_count(const GrayImage& image, Connectivity conn) {
  std::set<std::uint8_t> values(image.pixels().begin(), image.pixels().end());
  Label total = 0;
  for (const auto v : values) {
    BinaryImage mask(image.rows(), image.cols());
    for (Coord r = 0; r < image.rows(); ++r) {
      for (Coord c = 0; c < image.cols(); ++c) {
        mask(r, c) = image(r, c) == v ? std::uint8_t{1} : std::uint8_t{0};
      }
    }
    total += FloodFillLabeler(conn).run(request_for(mask)).num_components;
  }
  return total;
}

TEST(Grayscale, UniformImageIsOneComponent) {
  const GrayImage img(16, 16, 42);
  const auto res = label_grayscale(img);
  EXPECT_EQ(res.num_components, 1);
  for (const Label l : res.labels.pixels()) EXPECT_EQ(l, 1);
}

TEST(Grayscale, EveryPixelGetsALabel) {
  const GrayImage img = gen::plasma(33, 29, 15);
  const auto res = label_grayscale(img);
  for (const Label l : res.labels.pixels()) {
    EXPECT_GE(l, 1);
    EXPECT_LE(l, res.num_components);
  }
}

TEST(Grayscale, AdjacentEqualValuesShareLabels) {
  const GrayImage img = gen::plasma(24, 24, 8);
  const auto res = label_grayscale(img);
  for (Coord r = 0; r < img.rows(); ++r) {
    for (Coord c = 0; c + 1 < img.cols(); ++c) {
      if (img(r, c) == img(r, c + 1)) {
        EXPECT_EQ(res.labels(r, c), res.labels(r, c + 1));
      } else {
        EXPECT_NE(res.labels(r, c), res.labels(r, c + 1));
      }
    }
  }
}

TEST(Grayscale, MatchesPerLevelFloodFillCounts) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    // Few levels so regions are chunky.
    GrayImage img(40, 30);
    const GrayImage src = gen::plasma(40, 30, seed);
    for (std::int64_t i = 0; i < img.size(); ++i) {
      img.pixels()[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(src.pixels()[static_cast<std::size_t>(i)] /
                                    64);  // 4 levels
    }
    for (const auto conn : {Connectivity::Eight, Connectivity::Four}) {
      EXPECT_EQ(label_grayscale(img, conn).num_components,
                reference_count(img, conn))
          << "seed " << seed << " " << to_string(conn);
    }
  }
}

TEST(Grayscale, BinaryImageDegeneratesToTwoPhaseLabeling) {
  // On a 0/1-valued image, grayscale labeling labels background regions
  // too; foreground components must match the binary labeler.
  const BinaryImage bin = gen::misc_like(32, 32, 3);
  GrayImage as_gray(32, 32);
  for (std::int64_t i = 0; i < bin.size(); ++i) {
    as_gray.pixels()[static_cast<std::size_t>(i)] =
        bin.pixels()[static_cast<std::size_t>(i)];
  }
  const auto gray_res = label_grayscale(as_gray);
  const auto bin_res = FloodFillLabeler().run(request_for(bin));

  // Count distinct gray labels on foreground pixels only.
  std::set<Label> fg_labels;
  for (std::int64_t i = 0; i < bin.size(); ++i) {
    if (bin.pixels()[static_cast<std::size_t>(i)] != 0) {
      fg_labels.insert(gray_res.labels.pixels()[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_EQ(static_cast<Label>(fg_labels.size()), bin_res.num_components);
}

TEST(Grayscale, CheckerboardOfTwoValues) {
  // 2-level checkerboard: under 4-connectivity every cell is its own
  // component; under 8-connectivity the two diagonal families merge.
  GrayImage img(8, 8);
  for (Coord r = 0; r < 8; ++r) {
    for (Coord c = 0; c < 8; ++c) {
      img(r, c) = static_cast<std::uint8_t>((r + c) % 2);
    }
  }
  EXPECT_EQ(label_grayscale(img, Connectivity::Four).num_components, 64);
  EXPECT_EQ(label_grayscale(img, Connectivity::Eight).num_components, 2);
}

TEST(Grayscale, EmptyImage) {
  const auto res = label_grayscale(GrayImage());
  EXPECT_EQ(res.num_components, 0);
  EXPECT_TRUE(res.labels.empty());
}

TEST(Grayscale, LabelsAreConsecutiveFromOne) {
  const GrayImage img = gen::plasma(21, 27, 4);
  const auto res = label_grayscale(img);
  std::set<Label> seen(res.labels.pixels().begin(),
                       res.labels.pixels().end());
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), res.num_components);
  EXPECT_EQ(static_cast<Label>(seen.size()), res.num_components);
}

}  // namespace
}  // namespace paremsp
