// Robustness fuzzing: the fabric must decode and execute *any* bit pattern
// deterministically — corrupted configurations are the whole point of the
// system, so there is no such thing as an invalid bitstream. Likewise the
// VSCK checkpoint reader: truncated or bit-flipped records must fail
// cleanly, never crash or resume from a corrupt cursor.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bitstream/record_io.h"
#include "common/crc.h"
#include "core/vscrub.h"
#include "seu/checkpoint.h"
#include "store/verdict_store.h"

namespace vscrub {
namespace {

class RandomBitstreamFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(RandomBitstreamFuzz, RandomConfigurationsExecuteDeterministically) {
  auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8, 2));
  Rng rng(GetParam());
  Bitstream bs(space);
  for (u32 gf = 0; gf < bs.frame_count(); ++gf) {
    BitVector& frame = bs.frame(gf);
    for (auto& word : frame.words()) word = rng.next();
    // Re-normalize the tail bits.
    frame.resize(frame.size());
  }

  auto run_once = [&](std::vector<u64>* trace) {
    FabricSim fabric(space);
    fabric.full_configure(bs);
    for (int t = 0; t < 40; ++t) {
      fabric.clock();
      u64 sample = 0;
      for (int i = 0; i < 16; ++i) {
        const TileCoord tile{static_cast<u16>(i % 8), static_cast<u16>(i)};
        if (fabric.output_value(TileCoord{tile.row, static_cast<u16>(i % 8)},
                                static_cast<u8>(i % 8))) {
          sample |= u64{1} << i;
        }
      }
      trace->push_back(sample);
    }
  };
  std::vector<u64> a, b;
  run_once(&a);
  run_once(&b);
  EXPECT_EQ(a, b) << "corrupt-config execution must be deterministic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBitstreamFuzz,
                         ::testing::Values(u64{1}, u64{2}, u64{3}, u64{4},
                                           u64{5}, u64{6}));

class RandomFrameWriteFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(RandomFrameWriteFuzz, LiveDesignSurvivesArbitraryFrameWrites) {
  // Write random garbage frames into a running design, then restore from
  // golden and verify full recovery (scrubbing must always be able to bring
  // the device back without a power cycle).
  const auto design = compile(designs::mult_tree(8), device_tiny(8, 12));
  FabricSim fabric(design.space);
  DesignHarness harness(design, fabric);
  harness.configure();
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const u32 gf = static_cast<u32>(rng.uniform(design.space->frame_count()));
    const FrameAddress fa = design.space->frame_of_global(gf);
    BitVector garbage(design.space->frame_bits(fa.kind));
    for (auto& word : garbage.words()) word = rng.next();
    garbage.resize(garbage.size());
    fabric.write_frame(fa, garbage);
    harness.run(8);  // let the corruption do whatever it does
    // Full scrub restore.
    for (u32 g2 = 0; g2 < design.space->frame_count(); ++g2) {
      const FrameAddress f2 = design.space->frame_of_global(g2);
      if (!(fabric.read_frame(f2) == design.bitstream.frame(g2))) {
        fabric.write_frame(f2, design.bitstream.frame(g2));
      }
    }
    harness.restart();
    const auto golden = DesignHarness::reference_trace(*design.netlist, 40);
    for (int t = 0; t < 40; ++t) {
      harness.step();
      ASSERT_EQ(harness.last_outputs(), golden[static_cast<std::size_t>(t)])
          << "round " << round << " cycle " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFrameWriteFuzz,
                         ::testing::Values(u64{11}, u64{22}, u64{33}));

TEST(FuzzMisc, OscillationBoundTerminates) {
  // Hand-craft a combinational loop through the fabric: a LUT inverter
  // whose input is its own output via the feedback IMUX code.
  auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8));
  Bitstream bs(space);
  const TileCoord t{3, 3};
  bs.set_lut_truth(t, 0, 0x5555);  // inverter on pin 0
  bs.set_imux_code(t, lut_input_pin(0, 0),
                   encode_imux(PinSource{PinSource::Kind::kClbOutput,
                                         Dir::kNorth, 0,
                                         static_cast<u8>(comb_output_index(0))}));
  FabricSim fabric(space);
  fabric.full_configure(bs);  // must not hang
  EXPECT_TRUE(fabric.oscillating());
  fabric.clock();  // still terminates
  SUCCEED();
}

TEST(FuzzMisc, AllOnesAndAllZerosConfigurations) {
  auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8, 2));
  for (const bool ones : {false, true}) {
    Bitstream bs(space);
    if (ones) {
      for (u32 gf = 0; gf < bs.frame_count(); ++gf) bs.frame(gf).fill(true);
    }
    FabricSim fabric(space);
    fabric.full_configure(bs);
    for (int t = 0; t < 20; ++t) fabric.clock();
    SUCCEED();
  }
}

TEST(FuzzMisc, RandomHalfLatchStormIsRecoverable) {
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  FabricSim fabric(design.space);
  DesignHarness harness(design, fabric);
  harness.configure();
  Rng rng(99);
  const DeviceGeometry& geom = design.space->geometry();
  for (int i = 0; i < 200; ++i) {
    fabric.flip_halflatch(
        geom.tile_coord(static_cast<u32>(rng.uniform(geom.tile_count()))),
        static_cast<u8>(rng.uniform(kImuxPins)));
  }
  harness.run(20);
  // Full reconfiguration restores everything.
  harness.configure();
  const auto golden = DesignHarness::reference_trace(*design.netlist, 40);
  for (int t = 0; t < 40; ++t) {
    harness.step();
    ASSERT_EQ(harness.last_outputs(), golden[static_cast<std::size_t>(t)]);
  }
}

CampaignCheckpoint sample_checkpoint() {
  CampaignCheckpoint ck;
  ck.fingerprint = 0xABCDEF;
  ck.total_injections = 512;
  ck.chunk_size = 64;
  ck.done.assign(8, 0x55);
  CampaignTally& t = ck.tally;
  t.injections = 448;
  t.failures = 17;
  t.persistent = 3;
  t.cache_hits = 40;
  t.cache_misses = 408;
  t.remote_hits = 6;
  t.remote_publishes = 21;
  t.modeled_hardware_time = SimTime::picoseconds(123456789);
  t.phases.corrupt_s = 1.5;
  t.phases.run_s = 2.5;
  t.phases.pruned = 12;
  t.phases.gang_runs = 4;
  t.phases.gang_lanes = 300;
  for (u32 i = 0; i < 5; ++i) {
    CampaignResult::SensitiveBit sb;
    sb.addr = BitAddress{FrameAddress{ColumnKind::kClb, static_cast<u16>(i),
                                      static_cast<u16>(i * 3)},
                         i * 7};
    sb.persistent = (i & 1) != 0;
    sb.first_error_cycle = i * 11;
    sb.error_output_mask_lo = u64{1} << i;
    t.sensitive_bits.push_back(sb);
  }
  t.failures_by_field[2] = 9;
  t.failures_by_field[5] = 8;
  return ck;
}

// Attempts a decode that must NOT succeed: clean failure (false return or a
// vscrub::Error) is fine, resuming with data is not. Any other outcome
// (crash, uncaught foreign exception) fails the test harness itself.
void expect_clean_rejection(const std::vector<u8>& record, const char* what) {
  CampaignCheckpoint out;
  bool loaded = false;
  try {
    loaded = decode_campaign_checkpoint(record, &out);
  } catch (const Error&) {
    return;  // clean, typed failure
  }
  EXPECT_FALSE(loaded) << what << ": corrupt record accepted";
}

TEST(CheckpointFuzz, RoundTripsIntact) {
  const CampaignCheckpoint ck = sample_checkpoint();
  CampaignCheckpoint out;
  ASSERT_TRUE(decode_campaign_checkpoint(encode_campaign_checkpoint(ck), &out));
  EXPECT_EQ(out.fingerprint, ck.fingerprint);
  EXPECT_EQ(out.total_injections, ck.total_injections);
  EXPECT_EQ(out.chunk_size, ck.chunk_size);
  EXPECT_EQ(out.done, ck.done);
  EXPECT_EQ(out.tally.injections, ck.tally.injections);
  EXPECT_EQ(out.tally.failures, ck.tally.failures);
  EXPECT_EQ(out.tally.persistent, ck.tally.persistent);
  EXPECT_EQ(out.tally.cache_hits, ck.tally.cache_hits);
  EXPECT_EQ(out.tally.cache_misses, ck.tally.cache_misses);
  EXPECT_EQ(out.tally.remote_hits, ck.tally.remote_hits);
  EXPECT_EQ(out.tally.remote_publishes, ck.tally.remote_publishes);
  EXPECT_EQ(out.tally.modeled_hardware_time, ck.tally.modeled_hardware_time);
  EXPECT_EQ(out.tally.phases.pruned, ck.tally.phases.pruned);
  EXPECT_EQ(out.tally.phases.gang_lanes, ck.tally.phases.gang_lanes);
  EXPECT_EQ(out.tally.phases.run_s, ck.tally.phases.run_s);
  EXPECT_EQ(out.tally.sensitive_bits.size(), ck.tally.sensitive_bits.size());
  EXPECT_EQ(out.tally.failures_by_field, ck.tally.failures_by_field);
  // One encoding per tally: a decoded record re-encodes to the same bytes.
  EXPECT_EQ(encode_campaign_checkpoint(out), encode_campaign_checkpoint(ck));
}

TEST(CheckpointFuzz, TruncatedCheckpointsFailCleanly) {
  const std::vector<u8> full = encode_campaign_checkpoint(sample_checkpoint());
  ASSERT_GT(full.size(), 16u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    expect_clean_rejection(
        std::vector<u8>(full.begin(),
                        full.begin() + static_cast<std::ptrdiff_t>(len)),
        "truncation");
  }
}

TEST(CheckpointFuzz, BitFlippedCheckpointsNeverResume) {
  const std::vector<u8> full = encode_campaign_checkpoint(sample_checkpoint());
  // Every single-bit flip anywhere in the record — header, counts, payload,
  // CRC trailer — must be rejected (crc32 catches all single-bit errors).
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<u8> flipped = full;
      flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
      expect_clean_rejection(flipped, "bit flip");
    }
  }
}

TEST(CheckpointFuzz, OversizedCountsRejectedBeforeAllocation) {
  // A record with a valid magic and CRC but an absurd element count must be
  // rejected by the size guards, not attempt a huge resize. (CRC-valid
  // hostile input models a corrupt-then-rewritten cursor.)
  const auto header = [](RecordWriter& w) {
    w.put_u64(1);    // fingerprint
    w.put_u64(512);  // total_injections
    w.put_u64(64);   // chunk_size
  };
  {
    RecordWriter w("VSCK5");
    header(w);
    w.put_u64(u64{1} << 60);  // done bitmap "size": absurd
    expect_clean_rejection(w.sealed(), "oversized done bitmap");
  }
  {
    RecordWriter w("VSCK5");
    header(w);
    w.put_u64(0);  // done bitmap empty
    for (int i = 0; i < 8; ++i) w.put_u64(0);   // counters + modeled time
    for (int i = 0; i < 10; ++i) w.put_u64(0);  // phases block
    w.put_u64(u64{1} << 59);  // sensitive-bit count: absurd
    expect_clean_rejection(w.sealed(), "oversized sensitive-bit table");
  }
  {
    RecordWriter w("VSCK5");
    header(w);
    w.put_u64(0);  // done bitmap empty
    for (int i = 0; i < 8; ++i) w.put_u64(0);   // counters + modeled time
    for (int i = 0; i < 10; ++i) w.put_u64(0);  // phases block
    w.put_u64(0);             // no sensitive bits
    w.put_u64(u64{1} << 58);  // failure-field count: absurd
    expect_clean_rejection(w.sealed(), "oversized failure-field table");
  }
  {
    // The same layout with sane counts decodes: the guards above fire on
    // the counts alone, not on a malformed prefix.
    RecordWriter w("VSCK5");
    header(w);
    w.put_u64(0);
    for (int i = 0; i < 8; ++i) w.put_u64(0);
    for (int i = 0; i < 10; ++i) w.put_u64(0);
    w.put_u64(0);
    w.put_u64(0);
    CampaignCheckpoint out;
    EXPECT_TRUE(decode_campaign_checkpoint(w.sealed(), &out));
  }
}

TEST(CheckpointFuzz, WrongMagicIsIgnoredNotFatal) {
  RecordWriter foreign("VSCB1");  // a bitstream-image record, not a checkpoint
  foreign.put_u64(42);
  CampaignCheckpoint out;
  EXPECT_FALSE(decode_campaign_checkpoint(foreign.sealed(), &out))
      << "foreign record types must be skipped so campaigns start fresh";
  // A checkpoint of the previous version reads as a different campaign.
  std::vector<u8> older = encode_campaign_checkpoint(sample_checkpoint());
  older[4] = '4';  // "VSCK5" -> "VSCK4"
  EXPECT_FALSE(decode_campaign_checkpoint(older, &out));
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<u8>(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Verdict-store format fuzzing: a corrupt, truncated or hostile shard file
// must only ever degrade to cache misses — never crash, never serve a wrong
// verdict — and the next flush() must rewrite the shard clean.

VerdictKey vkey(u64 i) { return VerdictKey{i * 0x9E3779B97F4A7C15ULL + 1, i}; }

StoredVerdict vverdict(u64 i) {
  StoredVerdict v;
  v.output_error = (i & 1) != 0;
  v.persistent = (i & 2) != 0;
  v.first_error_cycle = static_cast<u32>(i * 3);
  v.error_output_mask_lo = i << 8;
  return v;
}

std::string fresh_store_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Seeds a store with kEntries verdicts and returns its directory.
constexpr u64 kEntries = 64;
std::string seeded_store(const char* name) {
  const std::string dir = fresh_store_dir(name);
  VerdictStore store(dir);
  for (u64 i = 0; i < kEntries; ++i) store.put(vkey(i), vverdict(i));
  EXPECT_EQ(store.flush(), kEntries);
  return dir;
}

// Opens the store and counts how many seeded entries are still served; every
// served verdict must be byte-exact (a wrong verdict is the one failure mode
// the format must rule out).
u64 served_entries(const std::string& dir) {
  VerdictStore store(dir);
  u64 served = 0;
  for (u64 i = 0; i < kEntries; ++i) {
    if (const std::optional<StoredVerdict> v = store.find(vkey(i))) {
      EXPECT_EQ(*v, vverdict(i)) << "entry " << i << " served corrupted";
      ++served;
    }
  }
  return served;
}

TEST(VerdictStoreFuzz, RoundTripsIntact) {
  const std::string dir = seeded_store("vsfuzz_roundtrip");
  EXPECT_EQ(served_entries(dir), kEntries);
  VerdictStore store(dir);
  EXPECT_EQ(store.corrupt_shards(), 0u);
  EXPECT_EQ(store.size(), kEntries);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, TruncatedShardsDegradeToMisses) {
  const std::string dir = seeded_store("vsfuzz_trunc");
  VerdictStore probe(dir);
  const std::string shard = probe.shard_path(VerdictStore::shard_of(vkey(0)));
  const std::vector<u8> full = read_file(shard);
  ASSERT_GT(full.size(), 16u);
  // Every truncation length: the shard drops wholesale, the rest survive.
  for (std::size_t len = 0; len < full.size(); len += 7) {
    write_file(shard, std::vector<u8>(full.begin(),
                                      full.begin() +
                                          static_cast<std::ptrdiff_t>(len)));
    EXPECT_LT(served_entries(dir), kEntries) << "truncated shard accepted";
  }
  write_file(shard, full);
  EXPECT_EQ(served_entries(dir), kEntries);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, BitFlippedShardsNeverServeWrongVerdicts) {
  const std::string dir = seeded_store("vsfuzz_flip");
  VerdictStore probe(dir);
  const std::string shard = probe.shard_path(VerdictStore::shard_of(vkey(0)));
  const std::vector<u8> full = read_file(shard);
  for (std::size_t byte = 0; byte < full.size(); byte += 5) {
    for (int bit = 0; bit < 8; bit += 5) {
      std::vector<u8> flipped = full;
      flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
      write_file(shard, flipped);
      // served_entries verifies any served verdict byte-exactly; the CRC
      // trailer must reject the whole shard for every single-bit flip.
      EXPECT_LT(served_entries(dir), kEntries) << "bit-flipped shard accepted";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, OversizedCountRejectedBeforeAllocation) {
  // Valid magic and CRC, absurd entry count: the count guard must drop the
  // shard without attempting the allocation.
  const std::string dir = seeded_store("vsfuzz_oversize");
  VerdictStore probe(dir);
  const u32 shard_idx = VerdictStore::shard_of(vkey(0));
  {
    RecordWriter w("VVS1");
    w.put_u64(u64{1} << 58);
    w.write(probe.shard_path(shard_idx));
  }
  VerdictStore store(dir);
  EXPECT_EQ(store.corrupt_shards(), 1u);
  EXPECT_FALSE(store.find(vkey(0)).has_value())
      << "hostile shard served a verdict";
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, WrongMagicShardIsDroppedNotFatal) {
  const std::string dir = seeded_store("vsfuzz_magic");
  VerdictStore probe(dir);
  const u32 shard_idx = VerdictStore::shard_of(vkey(0));
  {
    RecordWriter w("VSCK3");  // a checkpoint record, not a verdict shard
    w.put_u64(42);
    w.write(probe.shard_path(shard_idx));
  }
  VerdictStore store(dir);
  EXPECT_EQ(store.corrupt_shards(), 1u);
  EXPECT_FALSE(store.find(vkey(0)).has_value());
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, FlushRewritesCorruptShardsClean) {
  const std::string dir = seeded_store("vsfuzz_heal");
  VerdictStore probe(dir);
  const u32 shard_idx = VerdictStore::shard_of(vkey(0));
  write_file(probe.shard_path(shard_idx), {0xDE, 0xAD, 0xBE, 0xEF});
  {
    VerdictStore store(dir);
    ASSERT_EQ(store.corrupt_shards(), 1u);
    // Re-put one verdict that hashes into the corrupt shard and flush: the
    // shard must come back readable.
    store.put(vkey(0), vverdict(0));
    store.flush();
  }
  VerdictStore healed(dir);
  EXPECT_EQ(healed.corrupt_shards(), 0u);
  const std::optional<StoredVerdict> v = healed.find(vkey(0));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, vverdict(0));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Shard logs: a shard file is a sequence of VVS1 segments, one per flush.
// Damage in one segment costs that segment and everything after it — never
// the intact prefix, and never a wrong verdict — and one flush heals it.

// Every key lands in shard 5, so one file holds every segment.
VerdictKey shard5_key(u64 i) { return VerdictKey{(i << 4) | 5, i}; }
constexpr u64 kPerSegment = 10;
constexpr u64 kSegments = 3;
constexpr std::size_t kSegmentBytes = 16 + kPerSegment * kVerdictEntryBytes;

void put_shard5(VerdictStore* store, u64 from, u64 to) {
  for (u64 i = from; i < to; ++i) store->put(shard5_key(i), vverdict(i));
}

// A store whose shard 5 holds kSegments segments of kPerSegment entries,
// one flush each. Returns the shard's path.
std::string segmented_store(const std::string& dir) {
  VerdictStore store(dir);
  for (u64 seg = 0; seg < kSegments; ++seg) {
    put_shard5(&store, seg * kPerSegment, (seg + 1) * kPerSegment);
    EXPECT_EQ(store.flush(), kPerSegment);
  }
  return store.shard_path(5);
}

// Opens the store, checks that exactly the first `intact` entries are
// served, each byte-exact, and returns its corrupt shard count.
u32 corrupt_after_serving_prefix(const std::string& dir, u64 intact,
                                 const std::string& what) {
  VerdictStore store(dir);
  for (u64 i = 0; i < kSegments * kPerSegment; ++i) {
    const std::optional<StoredVerdict> v = store.find(shard5_key(i));
    EXPECT_EQ(v.has_value(), i < intact) << what << ", entry " << i;
    if (v) {
      EXPECT_EQ(*v, vverdict(i)) << what << ", entry " << i << " corrupted";
    }
  }
  EXPECT_EQ(store.size(), intact) << what;
  return store.corrupt_shards();
}

// Reopens the damaged store, re-puts what it lost and flushes once: that
// flush rewrites the shard whole, and a reopen is clean and complete.
void expect_one_flush_heals(const std::string& dir, u64 intact) {
  {
    VerdictStore store(dir);
    ASSERT_EQ(store.corrupt_shards(), 1u);
    put_shard5(&store, intact, kSegments * kPerSegment);
    EXPECT_EQ(store.flush(), kSegments * kPerSegment - intact);
    EXPECT_EQ(store.stats().rewrites, 1u);
    EXPECT_EQ(store.stats().appended_segments, 0u);
  }
  EXPECT_EQ(corrupt_after_serving_prefix(dir, kSegments * kPerSegment,
                                         "healed"),
            0u);
}

std::vector<u8> prefix_of(const std::vector<u8>& bytes, std::size_t len) {
  return {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)};
}

TEST(VerdictStoreFuzz, TornLastSegmentServesTheIntactPrefix) {
  const std::string dir = fresh_store_dir("vsfuzz_torn_tail");
  const std::string shard = segmented_store(dir);
  const std::vector<u8> full = read_file(shard);
  ASSERT_EQ(full.size(), kSegments * kSegmentBytes);
  const std::size_t last = (kSegments - 1) * kSegmentBytes;
  const u64 intact = (kSegments - 1) * kPerSegment;
  // A cut on the segment boundary leaves a shorter, clean log.
  write_file(shard, prefix_of(full, last));
  EXPECT_EQ(corrupt_after_serving_prefix(dir, intact, "cut at boundary"), 0u);
  for (std::size_t len = last + 1; len < full.size(); ++len) {
    write_file(shard, prefix_of(full, len));
    EXPECT_EQ(corrupt_after_serving_prefix(dir, intact,
                                           "cut at " + std::to_string(len)),
              1u);
  }
  expect_one_flush_heals(dir, intact);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, BitFlipInAMiddleSegmentServesTheSegmentsBeforeIt) {
  const std::string dir = fresh_store_dir("vsfuzz_middle_flip");
  const std::string shard = segmented_store(dir);
  const std::vector<u8> full = read_file(shard);
  ASSERT_EQ(full.size(), kSegments * kSegmentBytes);
  for (std::size_t byte = kSegmentBytes; byte < 2 * kSegmentBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> flipped = full;
      flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
      write_file(shard, flipped);
      EXPECT_EQ(corrupt_after_serving_prefix(
                    dir, kPerSegment,
                    "bit " + std::to_string(bit) + " of byte " +
                        std::to_string(byte)),
                1u);
    }
  }
  expect_one_flush_heals(dir, kPerSegment);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, SingleRecordShardOpensCleanAndTakesAppends) {
  // A shard written whole as one record (the format before shard logs) is
  // a one-segment log.
  const std::string dir = fresh_store_dir("vsfuzz_single_record");
  std::filesystem::create_directories(dir);
  const std::string shard = VerdictStore(dir).shard_path(5);
  constexpr u64 kOld = 2 * kPerSegment;
  {
    RecordWriter w("VVS1");
    w.put_u64(kOld);
    for (u64 i = 0; i < kOld; ++i) {
      const StoredVerdict v = vverdict(i);
      w.put_u64(shard5_key(i).hi);
      w.put_u64(shard5_key(i).lo);
      w.put_u8(verdict_flags(v));
      w.put_u32(v.first_error_cycle);
      w.put_u64(v.error_output_mask_lo);
    }
    w.write(shard);
  }
  EXPECT_EQ(corrupt_after_serving_prefix(dir, kOld, "single record"), 0u);
  {
    VerdictStore store(dir);
    put_shard5(&store, 0, kSegments * kPerSegment);  // the first kOld again
    EXPECT_EQ(store.flush(), kSegments * kPerSegment - kOld);
  }
  EXPECT_EQ(read_file(shard).size(),
            16 + kOld * kVerdictEntryBytes + kSegmentBytes);
  EXPECT_EQ(corrupt_after_serving_prefix(dir, kSegments * kPerSegment,
                                         "after one append"),
            0u);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, FailedAppendIsHealedByARewrite) {
  const std::string dir = fresh_store_dir("vsfuzz_failed_append");
  {
    VerdictStore store(dir);
    put_shard5(&store, 0, kPerSegment);
    EXPECT_EQ(store.flush(), kPerSegment);
    // A directory where the shard file was: appends and rewrites fail.
    const std::string shard = store.shard_path(5);
    std::filesystem::remove(shard);
    std::filesystem::create_directory(shard);
    put_shard5(&store, kPerSegment, 2 * kPerSegment);
    EXPECT_EQ(store.flush(), kPerSegment);
    EXPECT_EQ(store.stats().appended_segments, 1u);
    EXPECT_EQ(store.flush(), 0u);  // the rewrite fails too
    EXPECT_EQ(store.stats().rewrites, 0u);
    // Once the path is writable again, a flush with nothing new rewrites
    // the shard whole, verdicts of the failed append included.
    std::filesystem::remove(shard);
    EXPECT_EQ(store.flush(), 0u);
    EXPECT_EQ(store.stats().rewrites, 1u);
  }
  EXPECT_EQ(corrupt_after_serving_prefix(dir, 2 * kPerSegment, "healed"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(RecordIo, WriteAndAppendLayDownThePayloadAndItsCrc) {
  const std::string dir = fresh_store_dir("record_io_bytes");
  std::filesystem::create_directories(dir);
  RecordWriter w("VSCK1");
  w.put_u32(0xA1B2C3D4u);
  w.put_string("payload");
  w.put_u64(~u64{0} - 5);
  std::vector<u8> record = w.bytes();
  const u32 crc = crc32(w.bytes());
  for (int i = 0; i < 4; ++i) record.push_back(static_cast<u8>(crc >> (8 * i)));

  w.write(dir + "/whole.rec");
  EXPECT_EQ(read_file(dir + "/whole.rec"), record);
  RecordReader r(dir + "/whole.rec", "VSCK1");
  EXPECT_EQ(r.get_u32(), 0xA1B2C3D4u);
  EXPECT_EQ(r.get_string(), "payload");
  EXPECT_EQ(r.get_u64(), ~u64{0} - 5);

  ASSERT_TRUE(w.append(dir + "/log.rec"));
  ASSERT_TRUE(w.append(dir + "/log.rec"));
  std::vector<u8> twice = record;
  twice.insert(twice.end(), record.begin(), record.end());
  EXPECT_EQ(read_file(dir + "/log.rec"), twice);
  EXPECT_FALSE(w.append(dir + "/no_such_dir/log.rec"));
  std::filesystem::remove_all(dir);
}

TEST(VerdictStoreFuzz, ManifestCorruptionFailsCleanly) {
  const std::string dir = fresh_store_dir("vsfuzz_manifest");
  std::filesystem::create_directories(dir);
  const std::string path = campaign_manifest_path(dir, "tiny", "fuzz_design");
  CampaignManifest m;
  m.arch_fingerprint = 7;
  m.stimulus_hash = 9;
  m.design_name = "fuzz_design";
  m.device_name = "tiny";
  m.injections = 100;
  m.frame_hashes = {1, 2, 3};
  save_campaign_manifest(path, m);
  const std::vector<u8> full = read_file(path);
  for (std::size_t len = 0; len < full.size(); len += 3) {
    write_file(path, std::vector<u8>(full.begin(),
                                     full.begin() +
                                         static_cast<std::ptrdiff_t>(len)));
    CampaignManifest out;
    bool loaded = false;
    try {
      loaded = load_campaign_manifest(path, &out);
    } catch (const Error&) {
      continue;  // clean, typed failure — callers treat it as "no prior"
    }
    EXPECT_FALSE(loaded) << "truncated manifest accepted at " << len;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vscrub
