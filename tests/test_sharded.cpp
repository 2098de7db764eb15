// Sharded huge-image labeling through the engine (the run-based tile
// pipeline, default ShardOptions): bit-identical equivalence with
// sequential AREMSP across tile geometries and worker counts, async
// pipelining, shutdown-mid-shard, degenerate inputs, and the output
// routing that decides which phases run.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/validation.hpp"
#include "common/contracts.hpp"
#include "core/aremsp.hpp"
#include "engine/engine.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"
#include "obs/metrics.hpp"

namespace paremsp {
namespace {

using testing::request_for;

using engine::EngineConfig;
using engine::LabelingEngine;
using engine::ShardOptions;

/// Adversarial content mix: organic patches, a seam-crossing spiral, a
/// corner-contact checkerboard, plus noise — every seam type appears.
BinaryImage shard_image(Coord rows, Coord cols, std::uint64_t seed) {
  switch (seed % 4) {
    case 0: return gen::landcover_like(rows, cols, seed);
    case 1: return gen::spiral(rows, cols, 2, 3);
    case 2: return gen::checkerboard(rows, cols, 1);
    default: return gen::uniform_noise(rows, cols, 0.5, seed);
  }
}

void expect_bit_identical(const LabelResponse& got,
                          const LabelResponse& want,
                          const std::string& context) {
  EXPECT_EQ(got.num_components, want.num_components) << context;
  EXPECT_EQ(got.labels, want.labels) << context;
}

TEST(Sharded, TileGeometryByWorkerCountMatrixIsBitIdenticalToAremsp) {
  const Coord rows = 61, cols = 83;  // odd on purpose: ragged edge tiles
  const AremspLabeler reference;

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::pair<Coord, Coord>> geometries = {
      {1, cols},     // 1 x N row-strip tiles
      {rows, 1},     // N x 1 column-strip tiles
      {7, 9},        // odd x odd
      {1024, 1024},  // tile > image: single tile
      {1, 1},        // single-pixel tiles
      {16, 16},
  };
  for (const int workers : {1, 2, hw}) {
    LabelingEngine eng({.workers = workers});
    for (const auto& [tr, tc] : geometries) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const BinaryImage image = shard_image(rows, cols, seed);
        const LabelResponse want = reference.run(request_for(image));
        const LabelResponse got =
            eng.submit({.input = image,
                        .shard = ShardOptions{.tile_rows = tr,
                                              .tile_cols = tc}})
                .get();
        expect_bit_identical(
            got, want,
            "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
                " workers " + std::to_string(workers) + " seed " +
                std::to_string(seed));
        const auto v = analysis::validate_labeling(image, got.labels,
                                                   got.num_components);
        EXPECT_TRUE(v.ok) << v.error;
      }
    }
    const auto stats = eng.stats();
    EXPECT_EQ(stats.shards_submitted, geometries.size() * 4);
    EXPECT_EQ(stats.shards_completed, geometries.size() * 4);
    EXPECT_GT(stats.shard_tasks_completed, 0u);
    // Shard jobs must not pollute the per-request latency stats.
    EXPECT_EQ(stats.jobs_submitted, 0u);
  }
}

TEST(Sharded, WithStatsMatchesPostPassOracleAcrossGeometryWorkerMatrix) {
  // The stats-carrying pipeline: scan jobs accumulate per-tile feature
  // cells, seam jobs unify them through the union-find, the resolve job
  // folds. Value-identity with the post-pass compute_stats oracle must
  // hold for every tile geometry (1-pixel tiles included) and worker
  // count, and the labeling itself must stay bit-identical to AREMSP.
  const Coord rows = 53, cols = 47;
  const AremspLabeler reference;
  const std::vector<std::pair<Coord, Coord>> geometries = {
      {1, 1}, {1, cols}, {rows, 1}, {7, 9}, {16, 16}, {1024, 1024},
  };
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  for (const int workers : {1, 2, hw}) {
    LabelingEngine eng({.workers = workers});
    for (const auto& [tr, tc] : geometries) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const BinaryImage image = shard_image(rows, cols, seed);
        const LabelResponse want = reference.run(request_for(image));
        const LabelResponse got =
            eng.submit({.input = image,
                        .outputs = {.stats = true},
                        .shard = ShardOptions{.tile_rows = tr,
                                              .tile_cols = tc}})
                .get();
        const std::string context =
            "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
            " workers " + std::to_string(workers) + " seed " +
            std::to_string(seed);
        expect_bit_identical(got, want, context);
        const auto oracle = analysis::compute_stats(
            got.labels, got.num_components);
        testing::expect_stats_identical(*got.stats, oracle, context);
      }
    }
  }
}

TEST(Sharded, WithStatsPipelinesConcurrentlyAndFailsCleanlyOnShutdown) {
  // Stats-carrying shards obey the same quiesce contract: futures from
  // runs interrupted by shutdown carry PreconditionError, completed ones
  // carry correct stats; nothing deadlocks or leaks a latch.
  const BinaryImage image = shard_image(48, 48, 1);
  const auto oracle = AremspLabeler().run(request_for(image, /*stats=*/true));
  auto eng = std::make_unique<LabelingEngine>(EngineConfig{.workers = 3});
  std::vector<std::future<LabelResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(
        eng->submit({.input = image,
                     .outputs = {.stats = true},
                     .shard = ShardOptions{.tile_rows = 8, .tile_cols = 8}}));
  }
  eng->shutdown();
  int completed = 0;
  for (auto& f : futures) {
    try {
      const LabelResponse got = f.get();
      EXPECT_EQ(got.labels, oracle.labels);
      testing::expect_stats_identical(*got.stats, *oracle.stats,
                                      "shutdown race survivor");
      ++completed;
    } catch (const PreconditionError&) {
      // Shut down mid-shard: acceptable, as long as the future resolved.
    }
  }
  // At least the runs that finished before shutdown must be correct; the
  // assertion above already guarantees any completed run was exact.
  (void)completed;
}

TEST(Sharded, WithStatsEmptyAndDegenerateImages) {
  LabelingEngine eng({.workers = 2});
  for (const BinaryImage& image :
       {BinaryImage(), BinaryImage(0, 9), BinaryImage(9, 0),
        BinaryImage(1, 1, 1), BinaryImage(3, 5, 1)}) {
    const LabelResponse got =
        eng.submit({.input = image,
                    .outputs = {.stats = true},
                    .shard = ShardOptions{.tile_rows = 2, .tile_cols = 2}})
            .get();
    const auto want = AremspLabeler().run(request_for(image, /*stats=*/true));
    EXPECT_EQ(got.labels, want.labels);
    testing::expect_stats_identical(
        *got.stats, *want.stats,
        std::to_string(image.rows()) + "x" + std::to_string(image.cols()));
  }
}

TEST(Sharded, AllMergeBackendsMatch) {
  const BinaryImage image = gen::uniform_noise(64, 64, 0.55, 17);
  const LabelResponse want = AremspLabeler().run(request_for(image));
  LabelingEngine eng({.workers = 3});
  for (const auto backend : {MergeBackend::LockedRem, MergeBackend::CasRem,
                             MergeBackend::Sequential}) {
    const LabelResponse got =
        eng.submit({.input = image,
                    .shard = ShardOptions{.tile_rows = 8,
                                          .tile_cols = 8,
                                          .merge_backend = backend}})
            .get();
    expect_bit_identical(got, want, to_string(backend));
  }
}

TEST(Sharded, ManyShardsPipelineConcurrently) {
  // Several sharded images in flight at once: the phase latches must not
  // cross-talk between runs, and results must land on the right futures.
  LabelingEngine eng({.workers = 4});
  constexpr int kShards = 6;
  std::vector<BinaryImage> images;
  std::vector<std::future<LabelResponse>> futures;
  for (int i = 0; i < kShards; ++i) {
    images.push_back(shard_image(48 + 3 * i, 52 + 5 * i,
                                 static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < kShards; ++i) {
    futures.push_back(
        eng.submit({.input = images[static_cast<std::size_t>(i)],
                    .shard = ShardOptions{.tile_rows = 13, .tile_cols = 11}}));
  }
  const AremspLabeler reference;
  for (int i = 0; i < kShards; ++i) {
    expect_bit_identical(futures[static_cast<std::size_t>(i)].get(),
                         reference.run(request_for(
                             images[static_cast<std::size_t>(i)])),
                         "shard " + std::to_string(i));
  }
}

TEST(Sharded, MixesWithSmallImageTraffic) {
  // A sharded run and regular submit() traffic share the worker pool.
  LabelingEngine eng({.workers = 3});
  const BinaryImage big = gen::landcover_like(96, 96, 5);
  const BinaryImage small = gen::texture_like(24, 24, 6);

  auto shard_future =
      eng.submit({.input = big,
                  .shard = ShardOptions{.tile_rows = 16, .tile_cols = 16}});
  std::vector<std::future<LabelResponse>> small_futures;
  for (int i = 0; i < 20; ++i) {
    small_futures.push_back(eng.submit(request_for(small)));
  }

  const AremspLabeler reference;
  expect_bit_identical(shard_future.get(), reference.run(request_for(big)),
                       "shard");
  const LabelResponse small_want = reference.run(request_for(small));
  for (auto& f : small_futures) {
    expect_bit_identical(f.get(), small_want, "small job");
  }
}

TEST(Sharded, EmptyAndDegenerateImages) {
  LabelingEngine eng({.workers = 2});
  // Zero-size image: immediately-ready future, no jobs scheduled.
  const LabelResponse empty =
      eng.submit({.input = BinaryImage(), .shard = ShardOptions{}}).get();
  EXPECT_EQ(empty.num_components, 0);
  EXPECT_EQ(empty.labels.size(), 0);

  const AremspLabeler reference;
  for (const auto [rows, cols] :
       {std::pair<Coord, Coord>{1, 64}, std::pair<Coord, Coord>{64, 1},
        std::pair<Coord, Coord>{1, 1}, std::pair<Coord, Coord>{3, 3}}) {
    const BinaryImage image = gen::uniform_noise(
        rows, cols, 0.6, static_cast<std::uint64_t>(rows * 131 + cols));
    expect_bit_identical(
        eng.submit({.input = image,
                    .shard = ShardOptions{.tile_rows = 4, .tile_cols = 4}})
            .get(),
        reference.run(request_for(image)),
        std::to_string(rows) + "x" + std::to_string(cols));
  }
  // All-foreground and all-background planes.
  expect_bit_identical(
      eng.submit({.input = BinaryImage(33, 29, 1),
                  .shard = ShardOptions{.tile_rows = 8, .tile_cols = 8}})
          .get(),
      reference.run(request_for(BinaryImage(33, 29, 1))), "all foreground");
  expect_bit_identical(
      eng.submit({.input = BinaryImage(33, 29, 0),
                  .shard = ShardOptions{.tile_rows = 8, .tile_cols = 8}})
          .get(),
      reference.run(request_for(BinaryImage(33, 29, 0))), "all background");
}

TEST(Sharded, SubmitAfterShutdownFailsTheFuture) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(40, 40, 9);
  eng.shutdown();
  auto future = eng.submit({.input = image, .shard = ShardOptions{}});
  EXPECT_THROW((void)future.get(), PreconditionError);
}

TEST(Sharded, ShutdownMidShardEitherCompletesOrFailsCleanly) {
  // Race shutdown against in-flight shards many times: every future must
  // become ready, carrying either the exact AREMSP result (the accepted
  // jobs drained in time) or the shutdown PreconditionError — never a
  // hang, never a wrong labeling.
  const BinaryImage image = gen::landcover_like(80, 80, 11);
  const LabelResponse want = AremspLabeler().run(request_for(image));
  for (int round = 0; round < 8; ++round) {
    LabelingEngine eng({.workers = 2});
    std::vector<std::future<LabelResponse>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(
          eng.submit({.input = image,
                      .shard = ShardOptions{.tile_rows = 8, .tile_cols = 8}}));
    }
    eng.shutdown();
    int completed = 0, failed = 0;
    for (auto& f : futures) {
      try {
        expect_bit_identical(f.get(), want, "round " + std::to_string(round));
        ++completed;
      } catch (const PreconditionError&) {
        ++failed;
      }
    }
    EXPECT_EQ(completed + failed, 4);
  }
}

TEST(Sharded, RejectsInvalidOptions) {
  LabelingEngine eng({.workers = 1});
  const BinaryImage image(8, 8, 1);
  EXPECT_THROW(
      (void)eng.submit({.input = image, .shard = ShardOptions{.tile_rows = 0}}),
      PreconditionError);
  EXPECT_THROW(
      (void)eng.submit({.input = image, .shard = ShardOptions{.tile_cols = 0}}),
      PreconditionError);
  EXPECT_THROW((void)eng.submit({.input = image,
                                  .shard = ShardOptions{.lock_bits = 99}}),
               PreconditionError);
}

TEST(Sharded, StatsOnlyRequestSkipsThePlaneAndTheRewrite) {
  // No label destination: the response carries no plane, and the pipeline
  // fans out scan, merge, resolve and rank jobs only — the rewrite phase
  // has nothing to write, so it must not run.
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(64, 96, 21);
  const LabelResponse reference = AremspLabeler().run(request_for(image));
  LabelRequest request;
  request.input = image;
  request.outputs = OutputSet{.labels = false, .stats = true};
  request.shard = ShardOptions{.tile_rows = 16, .tile_cols = 32};
  const std::uint64_t tiles = (64 / 16) * (96 / 32);
  const std::uint64_t bands = 64 / 16;  // even band starts: one rank each
  const std::uint64_t before = obs::counter("shard_fanout_jobs_total").value();
  const LabelResponse response = eng.submit(request).get();
  const std::uint64_t jobs =
      obs::counter("shard_fanout_jobs_total").value() - before;

  EXPECT_TRUE(response.labels.empty());
  EXPECT_EQ(response.num_components, reference.num_components);
  ASSERT_TRUE(response.stats.has_value());
  testing::expect_stats_identical(
      *response.stats,
      analysis::compute_stats(reference.labels, reference.num_components),
      "stats-only shard");
  EXPECT_EQ(jobs, tiles /* scan */ + tiles /* merge */ + tiles /* resolve */ +
                      bands /* rank */);
}

TEST(Sharded, WarmRequestsAllocateNoShardBuffer) {
  // Parent buffers are parked best-fit between requests: once one request
  // has run, the next ones find their buffer in the pool.
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(96, 80, 5);
  LabelImage plane(image.rows(), image.cols());
  const auto submit = [&] {
    LabelRequest request;
    request.input = image;
    request.label_out = MutableImageView(plane);
    request.shard = ShardOptions{.tile_rows = 32, .tile_cols = 32};
    return eng.submit(std::move(request)).get();
  };
  const Label components = submit().num_components;  // warm-up
  obs::Counter& allocations = obs::counter("shard_buffer_allocations_total");
  const std::uint64_t before = allocations.value();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(submit().num_components, components);
  EXPECT_EQ(allocations.value() - before, 0u);
}

TEST(Sharded, ReusesRecycledPlanes) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(64, 64, 21);
  LabelResponse first =
      eng.submit({.input = image,
                  .shard = ShardOptions{.tile_rows = 16, .tile_cols = 16}})
          .get();
  const Label* storage = first.labels.pixels().data();
  eng.recycle(std::move(first.labels));
  // The next shard adopts the recycled plane instead of allocating: same
  // backing storage, bit-identical contents.
  LabelResponse second =
      eng.submit({.input = image,
                  .shard = ShardOptions{.tile_rows = 16, .tile_cols = 16}})
          .get();
  EXPECT_EQ(second.labels.pixels().data(), storage);
  expect_bit_identical(second, AremspLabeler().run(request_for(image)),
                       "recycled");
}

}  // namespace
}  // namespace paremsp
