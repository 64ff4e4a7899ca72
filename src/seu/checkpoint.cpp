#include "seu/checkpoint.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "bitstream/record_io.h"
#include "common/log.h"

namespace vscrub {
namespace {

// VSCK2 added the gang-engine counters to the phase block; VSCK3 added the
// verdict-store counters and per-sensitive-bit cache provenance; VSCK4 added
// the gang wall-clock to the phase block; VSCK5 added the remote-tier
// counters and dropped the copy of `pruned` outside the phase block.
const std::string kMagic = "VSCK5";

u64 fnv1a(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

u64 fnv1a(u64 h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void put_phases(RecordWriter& w, const InjectionPhases& p) {
  w.put_u64(std::bit_cast<u64>(p.corrupt_s));
  w.put_u64(std::bit_cast<u64>(p.run_s));
  w.put_u64(std::bit_cast<u64>(p.repair_s));
  w.put_u64(std::bit_cast<u64>(p.persist_s));
  w.put_u64(std::bit_cast<u64>(p.gang_s));
  w.put_u64(p.pruned);
  w.put_u64(p.gang_runs);
  w.put_u64(p.gang_lanes);
  w.put_u64(p.gang_early_exits);
  w.put_u64(p.gang_fallbacks);
}

InjectionPhases get_phases(RecordReader& r) {
  InjectionPhases p;
  p.corrupt_s = std::bit_cast<double>(r.get_u64());
  p.run_s = std::bit_cast<double>(r.get_u64());
  p.repair_s = std::bit_cast<double>(r.get_u64());
  p.persist_s = std::bit_cast<double>(r.get_u64());
  p.gang_s = std::bit_cast<double>(r.get_u64());
  p.pruned = r.get_u64();
  p.gang_runs = r.get_u64();
  p.gang_lanes = r.get_u64();
  p.gang_early_exits = r.get_u64();
  p.gang_fallbacks = r.get_u64();
  return p;
}

}  // namespace

u64 campaign_fingerprint(const PlacedDesign& design,
                         const CampaignOptions& options, u64 total_injections,
                         u64 chunk_size) {
  const DeviceGeometry& geom = design.space->geometry();
  u64 h = 0xCBF29CE484222325ULL;  // FNV offset basis
  h = fnv1a(h, geom.name);
  h = fnv1a(h, geom.rows);
  h = fnv1a(h, geom.cols);
  h = fnv1a(h, geom.bram_columns);
  h = fnv1a(h, geom.frame_pad_slots);
  h = fnv1a(h, design.netlist->name());
  h = fnv1a(h, total_injections);
  h = fnv1a(h, options.sample_bits);
  h = fnv1a(h, options.sample_seed);
  h = fnv1a(h, chunk_size);
  // The fabric's range restriction changes which universe positions a
  // checkpoint's chunk bitmap indexes, so two ranges of the same campaign
  // must never resume from each other's checkpoints.
  h = fnv1a(h, options.range_begin);
  h = fnv1a(h, options.range_end);
  h = fnv1a(h, static_cast<u64>(options.record_sensitive_bits));
  h = fnv1a(h, static_cast<u64>(options.record_sampled_bits));
  const InjectionOptions& inj = options.injection;
  h = fnv1a(h, inj.stim_seed);
  h = fnv1a(h, inj.warmup_cycles);
  h = fnv1a(h, inj.warmup_cycles_no_dynamic);
  h = fnv1a(h, inj.observe_cycles);
  h = fnv1a(h, static_cast<u64>(inj.classify_persistence));
  h = fnv1a(h, inj.persistence_settle);
  h = fnv1a(h, inj.persistence_check);
  h = fnv1a(h, std::bit_cast<u64>(inj.clock_hz));
  h = fnv1a(h, static_cast<u64>(inj.prune_unobservable));
  // gang_width is deliberately NOT hashed: gang evaluation is
  // result-invariant (bit-for-bit identical to scalar on either engine), so
  // checkpoints written on one host resume correctly on any other.
  // cache_dir is not
  // hashed for the same reason — verdict-store hits replay exactly what a
  // fresh injection would produce, so a checkpoint taken with one cache
  // configuration resumes correctly under any other.
  return h;
}

std::vector<u8> encode_campaign_checkpoint(const CampaignCheckpoint& ck) {
  const CampaignTally& t = ck.tally;
  RecordWriter w(kMagic);
  w.put_u64(ck.fingerprint);
  w.put_u64(ck.total_injections);
  w.put_u64(ck.chunk_size);
  w.put_u64(ck.done.size());
  w.put_bytes(ck.done.data(), ck.done.size());
  w.put_u64(t.injections);
  w.put_u64(t.failures);
  w.put_u64(t.persistent);
  w.put_u64(t.cache_hits);
  w.put_u64(t.cache_misses);
  w.put_u64(t.remote_hits);
  w.put_u64(t.remote_publishes);
  w.put_u64(static_cast<u64>(t.modeled_hardware_time.ps()));
  put_phases(w, t.phases);
  w.put_u64(t.sensitive_bits.size());
  for (const auto& sb : t.sensitive_bits) {
    w.put_u8(static_cast<u8>(sb.addr.frame.kind));
    w.put_u16(sb.addr.frame.col);
    w.put_u16(sb.addr.frame.frame);
    w.put_u32(sb.addr.offset);
    w.put_u8(static_cast<u8>(sb.persistent));
    w.put_u32(sb.first_error_cycle);
    w.put_u64(sb.error_output_mask_lo);
    w.put_u8(static_cast<u8>(sb.from_cache));
  }
  // Sorted by kind, so equal tallies encode to equal bytes.
  std::vector<std::pair<u8, u64>> fields(t.failures_by_field.begin(),
                                         t.failures_by_field.end());
  std::sort(fields.begin(), fields.end());
  w.put_u64(fields.size());
  for (const auto& [kind, count] : fields) {
    w.put_u8(kind);
    w.put_u64(count);
  }
  return w.sealed();
}

bool decode_campaign_checkpoint(std::vector<u8> record,
                                CampaignCheckpoint* ck) {
  if (record.size() < kMagic.size() ||
      !std::equal(kMagic.begin(), kMagic.end(), record.begin())) {
    return false;
  }
  RecordReader r(std::move(record), kMagic, "checkpoint");
  ck->fingerprint = r.get_u64();
  ck->total_injections = r.get_u64();
  ck->chunk_size = r.get_u64();
  // Element counts are validated against the bytes actually present before
  // any resize: a corrupted-but-CRC-colliding (or truncated-and-rewritten)
  // count field must fail cleanly, not allocate gigabytes or resume from a
  // bogus cursor.
  const u64 done_n = r.get_u64();
  VSCRUB_CHECK(done_n <= r.remaining(),
               "checkpoint: done bitmap larger than record");
  ck->done.resize(done_n);
  r.get_bytes(ck->done.data(), ck->done.size());
  CampaignTally& t = ck->tally;
  t = CampaignTally{};
  t.injections = r.get_u64();
  t.failures = r.get_u64();
  t.persistent = r.get_u64();
  t.cache_hits = r.get_u64();
  t.cache_misses = r.get_u64();
  t.remote_hits = r.get_u64();
  t.remote_publishes = r.get_u64();
  t.modeled_hardware_time = SimTime::picoseconds(static_cast<i64>(r.get_u64()));
  t.phases = get_phases(r);
  // Each sensitive-bit entry is 23 bytes on the wire (u8+u16+u16+u32+u8+u32+
  // u64+u8), each failures_by_field entry 9 (u8+u64).
  const u64 sens_n = r.get_u64();
  VSCRUB_CHECK(sens_n <= r.remaining() / 23,
               "checkpoint: sensitive-bit count larger than record");
  t.sensitive_bits.resize(sens_n);
  for (auto& sb : t.sensitive_bits) {
    sb.addr.frame.kind = static_cast<ColumnKind>(r.get_u8());
    sb.addr.frame.col = r.get_u16();
    sb.addr.frame.frame = r.get_u16();
    sb.addr.offset = r.get_u32();
    sb.persistent = r.get_u8() != 0;
    sb.first_error_cycle = r.get_u32();
    sb.error_output_mask_lo = r.get_u64();
    sb.from_cache = r.get_u8() != 0;
  }
  const u64 fields_n = r.get_u64();
  VSCRUB_CHECK(fields_n <= r.remaining() / 9,
               "checkpoint: failure-field count larger than record");
  for (u64 i = 0; i < fields_n; ++i) {
    const u8 kind = r.get_u8();
    t.failures_by_field[kind] = r.get_u64();
  }
  return true;
}

}  // namespace vscrub
