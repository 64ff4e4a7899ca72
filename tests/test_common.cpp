#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/bitvector.h"
#include "common/crc.h"
#include "common/ecc.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace vscrub {
namespace {

TEST(BitVector, SetGetFlip) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.popcount(), 0u);
  bv.set(0, true);
  bv.set(64, true);
  bv.set(129, true);
  EXPECT_TRUE(bv.get(0));
  EXPECT_TRUE(bv.get(64));
  EXPECT_TRUE(bv.get(129));
  EXPECT_FALSE(bv.get(1));
  EXPECT_EQ(bv.popcount(), 3u);
  bv.flip(64);
  EXPECT_FALSE(bv.get(64));
  EXPECT_EQ(bv.popcount(), 2u);
}

TEST(BitVector, WordAtCrossesBoundary) {
  BitVector bv(128);
  bv.set_word_at(60, 10, 0x3FF);
  for (std::size_t i = 60; i < 70; ++i) EXPECT_TRUE(bv.get(i)) << i;
  EXPECT_FALSE(bv.get(59));
  EXPECT_FALSE(bv.get(70));
  EXPECT_EQ(bv.word_at(60, 10), 0x3FFu);
  EXPECT_EQ(bv.word_at(58, 14), 0x3FFu << 2);
}

TEST(BitVector, BytesRoundTrip) {
  BitVector bv(77);
  Rng rng(3);
  for (std::size_t i = 0; i < bv.size(); ++i) bv.set(i, rng.next() & 1);
  const auto bytes = bv.to_bytes();
  EXPECT_EQ(bytes.size(), 10u);
  const BitVector back = BitVector::from_bytes(bytes, 77);
  EXPECT_EQ(bv, back);
}

TEST(BitVector, HammingAndFirstDifference) {
  BitVector a(200), b(200);
  EXPECT_EQ(a.first_difference(b), 200u);
  b.set(77, true);
  b.set(150, true);
  EXPECT_EQ(a.first_difference(b), 77u);
  EXPECT_EQ(a.hamming_distance(b), 2u);
}

TEST(Crc, KnownVectors) {
  const std::vector<u8> check = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(check), 0x29B1);  // CRC-16/CCITT-FALSE check value
  EXPECT_EQ(crc32(check), 0xCBF43926u);   // CRC-32 check value
}

TEST(Crc, IncrementalMatchesOneShot) {
  std::vector<u8> data(257);
  Rng rng(11);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  u32 state = crc32_init();
  state = crc32_update(state, std::span<const u8>(data.data(), 100));
  state = crc32_update(state, std::span<const u8>(data.data() + 100, 157));
  EXPECT_EQ(crc32_final(state), crc32(data));
}

TEST(Crc, SlicedMatchesBitwiseDefinitionAtEveryLengthAndOffset) {
  // The table-driven CRC folds eight bytes per step; the reference shifts
  // one bit at a time. Lengths 0..70 at offsets 0..7 cover every tail and
  // alignment, and a 1 MiB buffer covers the long-run path.
  const auto bitwise = [](std::span<const u8> data) {
    u32 c = 0xFFFFFFFFu;
    for (const u8 b : data) {
      c ^= b;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<u8> data(1 << 20);
  Rng rng(29);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 70; ++len) {
      const std::span<const u8> part(data.data() + offset, len);
      ASSERT_EQ(crc32(part), bitwise(part)) << offset << "+" << len;
    }
  }
  EXPECT_EQ(crc32(data), bitwise(data));
}

TEST(Crc, DetectsSingleBitFlips) {
  std::vector<u8> data(156, 0xA5);
  const u16 golden = crc16_ccitt(data);
  for (int i = 0; i < 156 * 8; i += 37) {
    auto copy = data;
    copy[static_cast<std::size_t>(i / 8)] ^= static_cast<u8>(1u << (i % 8));
    EXPECT_NE(crc16_ccitt(copy), golden) << "missed flip at bit " << i;
  }
}

TEST(Ecc, CleanRoundTrip) {
  for (u64 v : {u64{0}, u64{1}, ~u64{0}, u64{0xDEADBEEFCAFEBABE}}) {
    const EccWord w = ecc_encode(v);
    const auto r = ecc_decode(w);
    EXPECT_EQ(r.status, EccStatus::kClean);
    EXPECT_EQ(r.data, v);
  }
}

TEST(Ecc, CorrectsEverySingleDataBit) {
  const u64 v = 0x0123456789ABCDEF;
  for (int bit = 0; bit < 64; ++bit) {
    EccWord w = ecc_encode(v);
    w.data ^= u64{1} << bit;
    const auto r = ecc_decode(w);
    EXPECT_EQ(r.status, EccStatus::kCorrectedData) << bit;
    EXPECT_EQ(r.data, v) << bit;
  }
}

TEST(Ecc, CorrectsCheckBitErrors) {
  const u64 v = 0xFEDCBA9876543210;
  for (int bit = 0; bit < 8; ++bit) {
    EccWord w = ecc_encode(v);
    w.check ^= static_cast<u8>(1u << bit);
    const auto r = ecc_decode(w);
    EXPECT_EQ(r.status, EccStatus::kCorrectedCheck) << bit;
    EXPECT_EQ(r.data, v) << bit;
  }
}

TEST(Ecc, DetectsDoubleErrors) {
  const u64 v = 0x5555AAAA5555AAAA;
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    EccWord w = ecc_encode(v);
    const int b1 = static_cast<int>(rng.uniform(64));
    int b2 = static_cast<int>(rng.uniform(64));
    while (b2 == b1) b2 = static_cast<int>(rng.uniform(64));
    w.data ^= u64{1} << b1;
    w.data ^= u64{1} << b2;
    const auto r = ecc_decode(w);
    EXPECT_EQ(r.status, EccStatus::kUncorrectable) << b1 << "," << b2;
  }
}

TEST(Rng, DeterministicAndSplittable) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c = a.split();
  EXPECT_NE(c.next(), a.next());
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, PoissonMeanApproximatelyCorrect) {
  Rng rng(13);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    const double est = sum / n;
    EXPECT_NEAR(est, mean, mean * 0.1 + 0.1) << "mean " << mean;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  const double rate = 2.5;
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(SimTime, ArithmeticAndConversions) {
  const SimTime a = SimTime::microseconds(214);
  EXPECT_DOUBLE_EQ(a.us(), 214.0);
  const SimTime cycle = SimTime::milliseconds(180);
  EXPECT_DOUBLE_EQ((cycle * i64{3}).ms(), 540.0);
  EXPECT_LT(a, cycle);
  SimTime acc;
  for (int i = 0; i < 1000; ++i) acc += a;
  EXPECT_NEAR(acc.ms(), 214.0, 1e-9);
}

TEST(ThreadPool, ParallelChunksCoverRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_chunks(1000, 37, [&](u64 begin, u64 end, unsigned) {
    for (u64 i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleAfterManySubmits) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(VSCRUB_CHECK(false, "boom"), Error);
  EXPECT_NO_THROW(VSCRUB_CHECK(true, "fine"));
}

TEST(ThreadPool, SubmitAfterShutdownIsRefusedNotFatal) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
  pool.shutdown();
  EXPECT_TRUE(pool.stopping());
  // Queued work ran before the join; late submits are dropped loudly, never
  // enqueued into a dead queue.
  EXPECT_EQ(count.load(), 1);
  EXPECT_FALSE(pool.submit([&count] { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 1);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, ParallelWorkRunsInlineOnStoppedPool) {
  ThreadPool pool(2);
  pool.shutdown();
  // A drained daemon must still complete parallel work (inline on the
  // caller) rather than deadlock waiting on workers that are gone.
  std::vector<int> hits(100, 0);
  pool.parallel_chunks(100, 1, [&](u64 begin, u64 end, unsigned) {
    for (u64 i = begin; i < end; ++i) ++hits[i];
  });
  std::atomic<u64> total{0};
  pool.parallel_chunks(100, 7, [&](u64 begin, u64 end, unsigned) {
    total.fetch_add(end - begin);
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, ConcurrentParallelChunksCallersShareOnePool) {
  // The serving layer's shape: several campaigns multiplexed onto one pool,
  // each waiting on its own completion latch.
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  std::vector<std::atomic<u64>> sums(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      pool.parallel_chunks(1000, 64, [&sums, c](u64 begin, u64 end, unsigned) {
        for (u64 i = begin; i < end; ++i) sums[c].fetch_add(i);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), 1000u * 999u / 2) << "caller " << c;
  }
}

TEST(Histogram, ExactModeMatchesReservoirUnderCap) {
  Histogram exact;
  Histogram reservoir;
  reservoir.set_reservoir(256);
  for (int i = 0; i < 200; ++i) {
    exact.record(i);
    reservoir.record(i);
  }
  // Under the cap the reservoir holds every sample: identical percentiles.
  EXPECT_DOUBLE_EQ(exact.percentile(50), reservoir.percentile(50));
  EXPECT_DOUBLE_EQ(exact.percentile(99), reservoir.percentile(99));
  EXPECT_EQ(reservoir.count(), 200u);
}

TEST(Histogram, ReservoirBoundsMemoryAndKeepsExactAggregates) {
  Histogram h;
  h.set_reservoir(64, 7);
  for (int i = 1; i <= 100000; ++i) h.record(i);
  // count/sum/min/max stay exact regardless of what the reservoir kept.
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100000.0);
  EXPECT_DOUBLE_EQ(h.sum(), 100000.0 * 100001.0 / 2);
  // Percentiles come from the 64 retained samples; Algorithm R keeps a
  // uniform subsample, so the median estimate lands in the body of the
  // distribution, not at an extreme.
  const double p50 = h.percentile(50);
  EXPECT_GT(p50, 10000.0);
  EXPECT_LT(p50, 90000.0);
  EXPECT_GE(h.percentile(99), p50);
}

TEST(Histogram, ReservoirIsDeterministic) {
  const auto fill = [](u64 seed) {
    Histogram h;
    h.set_reservoir(32, seed);
    for (int i = 0; i < 5000; ++i) h.record(i * 3 % 997);
    return h;
  };
  Histogram a = fill(42);
  Histogram b = fill(42);
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
  }
}

}  // namespace
}  // namespace vscrub
