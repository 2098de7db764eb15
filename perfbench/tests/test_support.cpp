// Tests of the engine benchmark's own helpers.
#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

#include "core/qos.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "image/generators.hpp"
#include "image/threshold.hpp"
#include "support.hpp"

namespace {

using namespace paremsp;
using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankWithSampleCounts) {
  const Percentile p90 = percentile(one_to(100), 90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.resolved());

  const Percentile p50 = percentile(one_to(7), 50.0);
  EXPECT_EQ(p50.value, 4.0);  // rank ceil(3.5) = 4
  EXPECT_EQ(p50.beyond, 3u);
  EXPECT_EQ(median(one_to(7)), 4.0);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(min_samples_for(90.0), 100u);
  EXPECT_EQ(min_samples_for(50.0), 20u);
  EXPECT_FALSE(percentile(one_to(99), 90.0).resolved());  // 9 beyond
  EXPECT_TRUE(percentile(one_to(100), 90.0).resolved());
  const Percentile empty = percentile({}, 90.0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.resolved());
}

template <class T>
std::future<T> ready(T value) {
  std::promise<T> p;
  p.set_value(value);
  return p.get_future();
}

template <class T, class E>
std::future<T> failing(E error) {
  std::promise<T> p;
  p.set_exception(std::make_exception_ptr(error));
  return p.get_future();
}

TEST(ClosedLoop, AccountsEveryOutcomeOnce) {
  // Request i: 0,5 ok; 1 future throws; 2 submit throws; 3 shed by
  // deadline; 4 output check fails; 6 cancelled.
  std::vector<std::size_t> checked;
  const LoopResult r = closed_loop(
      3,
      [](std::size_t i) -> std::future<int> {
        switch (i) {
          case 1: return failing<int>(std::runtime_error("worker died"));
          case 2: throw std::runtime_error("queue closed");
          case 3: return failing<int>(DeadlineExceededError("late"));
          case 6: return failing<int>(CancelledError("cancelled"));
          default: return ready(static_cast<int>(i));
        }
      },
      [&](std::size_t i, int& value) {
        checked.push_back(i);
        return value == static_cast<int>(i) && i != 4;
      },
      [](std::size_t i) { return i < 7; });
  EXPECT_EQ(r.acct.attempted, 7u);
  EXPECT_EQ(r.acct.completed, 2u);
  EXPECT_EQ(r.acct.failed, 2u);
  EXPECT_EQ(r.acct.shed, 2u);
  EXPECT_EQ(r.acct.mismatched, 1u);
  EXPECT_EQ(r.acct.errors(), 5u);
  EXPECT_DOUBLE_EQ(r.acct.error_rate(), 5.0 / 7.0);
  // Request 2's submit throws before request 1 is retired (depth 3).
  EXPECT_EQ(r.acct.first_error, "queue closed");
  EXPECT_EQ(r.latency_ms.size(), 2u);  // only completed requests
  EXPECT_EQ(checked, (std::vector<std::size_t>{0, 4, 5}));  // in order
}

TEST(ClosedLoop, KeepsAtMostDepthInFlight) {
  std::size_t outstanding = 0;
  std::size_t peak = 0;
  const LoopResult r = closed_loop(
      4,
      [&](std::size_t i) {
        peak = std::max(peak, ++outstanding);
        return ready(static_cast<int>(i));
      },
      [&](std::size_t, int&) {
        --outstanding;
        return true;
      },
      [](std::size_t i) { return i < 50; });
  EXPECT_EQ(peak, 4u);
  EXPECT_EQ(r.acct.completed, 50u);
  EXPECT_EQ(r.acct.error_rate(), 0.0);
}

TEST(BlockRate, MedianOfBlocksIgnoresOneStall) {
  // 2 completions per second, with one 10 s stall inside the second block.
  std::vector<double> ready;
  double t = 0.0;
  for (int i = 0; i < 41; ++i) {
    ready.push_back(t);
    t += i == 12 ? 10.0 : 0.5;
  }
  const std::vector<double> rates = block_rates(ready, 10);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_LT(rates[1], 1.0);
  EXPECT_DOUBLE_EQ(median(rates), 2.0);
  EXPECT_TRUE(block_rates(ready, 50).empty());  // no whole block
}

TEST(Accounting, MergeSumsAndKeepsFirstError) {
  Accounting a;
  a.attempted = 2;
  a.completed = 2;
  Accounting b;
  b.attempted = 3;
  b.failed = 1;
  b.first_error = "boom";
  a.merge(b);
  EXPECT_EQ(a.attempted, 5u);
  EXPECT_EQ(a.errors(), 1u);
  EXPECT_EQ(a.first_error, "boom");
}

TEST(GrayMask, ThresholdAtHalfRecoversLandcoverMask) {
  const BinaryImage mask = gen::landcover_like(96, 160, 7);
  const GrayImage gray = render_gray_from_mask(mask, 11);
  // Both sides of the cutoff are populated with noise, not two levels.
  int distinct_fg = 0;
  int distinct_bg = 0;
  std::vector<bool> seen(256, false);
  for (Coord r = 0; r < gray.rows(); ++r) {
    for (Coord c = 0; c < gray.cols(); ++c) {
      const int v = gray(r, c);
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        (v > 127 ? distinct_fg : distinct_bg) += 1;
      }
    }
  }
  EXPECT_GT(distinct_fg, 100);
  EXPECT_GT(distinct_bg, 100);

  const BinaryImage binary = im2bw(gray, 0.5);
  for (Coord r = 0; r < mask.rows(); ++r) {
    for (Coord c = 0; c < mask.cols(); ++c) {
      ASSERT_EQ(binary(r, c) != 0, mask(r, c) != 0) << r << ',' << c;
    }
  }
  // The request API's fused threshold sees the same foreground.
  const auto labeler = make_labeler(Algorithm::AremspRle);
  LabelRequest on_gray;
  on_gray.input = gray;
  on_gray.threshold = 0.5;
  LabelRequest on_mask;
  on_mask.input = mask;
  EXPECT_TRUE(compare_labels(labeler->run(on_gray).labels,
                             labeler->run(on_mask).labels)
                  .identical());
}

TEST(GrayMask, SameSeedSameImage) {
  const BinaryImage mask = gen::landcover_like(32, 48, 3);
  const GrayImage a = render_gray_from_mask(mask, 5);
  const GrayImage b = render_gray_from_mask(mask, 5);
  const GrayImage c = render_gray_from_mask(mask, 6);
  EXPECT_TRUE(std::equal(a.pixels().begin(), a.pixels().end(),
                         b.pixels().begin()));
  EXPECT_FALSE(std::equal(a.pixels().begin(), a.pixels().end(),
                          c.pixels().begin()));
}

TEST(Verifier, CatchesOnePixelCorruption) {
  const BinaryImage image = gen::landcover_like(128, 128, 2);
  LabelRequest request;
  request.input = image;
  const LabelImage want = make_labeler(Algorithm::Aremsp)->run(request).labels;
  LabelImage got = want;
  EXPECT_TRUE(compare_labels(got, want).identical());

  got(77, 41) += 1;
  const LabelDiff diff = compare_labels(got, want);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.mismatches, 1);

  const LabelImage smaller(127, 128);
  EXPECT_FALSE(compare_labels(smaller, want).identical());
}

TEST(Tracer, SumsSpansByNameAndRequest) {
  Tracer tracer;
  const int root = tracer.begin("request", -1, 0);
  { ScopedSpan child(&tracer, "layer", root, 0); }
  { ScopedSpan child(&tracer, "layer", root, 1); }
  tracer.end(root);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, root);
  EXPECT_GE(tracer.total_ms("request"), tracer.total_ms("layer", 0));
  EXPECT_GE(tracer.total_ms("layer"), tracer.total_ms("layer", 1));
  ScopedSpan inert(nullptr, "ignored");
  EXPECT_EQ(inert.id(), -1);
}

}  // namespace
