// Edge guard for the block-store rewrite (rewrite_run_labels): segments
// are written in whole 16-label blocks that may run past their segment,
// and only a block that would cross the tile's col_end turns into an
// exact fill. These tests write through every executor of that kernel —
// a sharded engine request, paremsp2d_rle and a stream session — at tile
// widths around the block size, with runs ending at col_end - 1 and at
// col_end. Strided destinations carry sentinel-filled padding columns
// that must survive; the labels must equal sequential AREMSP. The stream
// session owns a packed plane, so its guard is the plane's end (an ASan
// build reports any store past it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aremsp.hpp"
#include "core/request.hpp"
#include "core/rle_labelers.hpp"
#include "engine/engine.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"
#include "stream/slab_session.hpp"

namespace paremsp {
namespace {

using testing::request_for;

constexpr Coord kWidths[] = {1, 15, 16, 17, 31, 33};
constexpr Label kSentinel = -7;
constexpr Coord kPad = 17;  // more than a block's overshoot

/// Noise, overridden so every tile column [c0, c1) of width `w` sees
/// runs ending exactly at its col_end (rows 0, 4, ...), at col_end - 1
/// (rows 1, 5, ...) and spanning the whole tile (rows 2, 6, ...).
BinaryImage edge_image(Coord rows, Coord cols, Coord w) {
  BinaryImage image = gen::uniform_noise(rows, cols, 0.5, 97 + w);
  for (Coord r = 0; r < rows; ++r) {
    for (Coord c1 = w; c1 - w < cols; c1 += w) {
      const Coord end = std::min(c1, cols);
      switch (r % 4) {
        case 0:
          image(r, end - 1) = 1;
          break;
        case 1:
          image(r, end - 1) = 0;
          if (end - 2 >= 0) image(r, end - 2) = 1;
          break;
        case 2:
          for (Coord c = end - std::min(w, end); c < end; ++c) image(r, c) = 1;
          break;
        default:
          break;
      }
    }
  }
  return image;
}

/// A (rows + 2) x (cols + 2 * kPad) sentinel plane; the label_out window
/// starts at (1, kPad).
LabelImage padded_plane(Coord rows, Coord cols) {
  return LabelImage(rows + 2, cols + 2 * kPad, kSentinel);
}

MutableImageView window(LabelImage& plane, Coord rows, Coord cols) {
  return MutableImageView(plane).subview(1, kPad, rows, cols);
}

/// Every cell outside the window keeps its sentinel, and the window holds
/// exactly `want`.
void expect_guarded(const LabelImage& plane, const LabelImage& want) {
  const Coord rows = want.rows();
  const Coord cols = want.cols();
  for (Coord r = 0; r < plane.rows(); ++r) {
    for (Coord c = 0; c < plane.cols(); ++c) {
      const bool inside =
          r >= 1 && r < rows + 1 && c >= kPad && c < cols + kPad;
      if (inside) {
        ASSERT_EQ(plane(r, c), want(r - 1, c - kPad)) << r << "," << c;
      } else {
        ASSERT_EQ(plane(r, c), kSentinel) << "padding " << r << "," << c;
      }
    }
  }
}

TEST(RewriteGuard, ShardedLabelOutKeepsItsPadding) {
  engine::LabelingEngine eng({.workers = 3});
  for (const Coord w : kWidths) {
    for (const Coord tile_rows : {5, 8}) {
      const Coord rows = 19;
      const Coord cols = 3 * w + w / 2 + 1;
      SCOPED_TRACE("tile " + std::to_string(tile_rows) + "x" +
                   std::to_string(w));
      const BinaryImage image = edge_image(rows, cols, w);
      LabelImage plane = padded_plane(rows, cols);
      LabelRequest request;
      request.input = image;
      request.label_out = window(plane, rows, cols);
      request.shard = ShardOptions{.tile_rows = tile_rows, .tile_cols = w};
      const LabelResponse response = eng.submit(request).get();
      const LabelResponse want = AremspLabeler().run(request_for(image));
      EXPECT_EQ(response.num_components, want.num_components);
      expect_guarded(plane, want.labels);
    }
  }
}

TEST(RewriteGuard, TiledRleLabelOutKeepsItsPadding) {
  for (const Coord w : kWidths) {
    for (const int threads : {1, 3}) {
      const Coord rows = 21;
      const Coord cols = 2 * w + 3;
      SCOPED_TRACE("tile width " + std::to_string(w) + ", " +
                   std::to_string(threads) + " threads");
      const BinaryImage image = edge_image(rows, cols, w);
      const TiledParemspRleLabeler labeler(
          RleConfig{.threads = threads, .tile_rows = 7, .tile_cols = w});
      LabelImage plane = padded_plane(rows, cols);
      LabelRequest request;
      request.input = image;
      request.label_out = window(plane, rows, cols);
      const LabelResponse response = labeler.run(request);
      const LabelResponse want = AremspLabeler().run(request_for(image));
      EXPECT_EQ(response.num_components, want.num_components);
      expect_guarded(plane, want.labels);
    }
  }
}

TEST(RewriteGuard, StreamSlabsMatchAremspAtEveryWidth) {
  // One tile per slab, col_end = the slab width: widths around the block
  // size put the row's last segment next to the plane's end.
  for (const Coord w : kWidths) {
    SCOPED_TRACE("width " + std::to_string(w));
    const Coord rows = 22;
    const BinaryImage image = edge_image(rows, w, w);
    stream::SlabSession session(stream::StreamOptions{.cols = w});
    std::vector<LabelImage> planes;
    for (Coord r0 = 0; r0 < rows; r0 += 5) {
      const Coord n = std::min<Coord>(5, rows - r0);
      planes.push_back(
          session.push_slab(ConstImageView(image).subview(r0, 0, n, w))
              .labels);
    }
    const stream::StreamResult result = session.finish();
    const LabelResponse want = AremspLabeler().run(request_for(image));
    ASSERT_EQ(result.num_components, want.num_components);
    for (std::size_t k = 0; k < planes.size(); ++k) {
      const Coord r0 = static_cast<Coord>(k) * 5;
      for (Coord r = 0; r < planes[k].rows(); ++r) {
        for (Coord c = 0; c < w; ++c) {
          ASSERT_EQ(result.slab_remaps[k][static_cast<std::size_t>(
                        planes[k](r, c))],
                    want.labels(r0 + r, c))
              << r0 + r << "," << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace paremsp
