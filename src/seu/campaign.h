// Campaign driver: exhaustive or sampled injection over the configuration
// space, scheduled as fixed-size bit chunks pulled by pool workers from an
// atomic cursor, with live progress telemetry, periodic checkpointing, and
// the aggregate statistics of Tables I and II plus the per-bit correlation
// data of §III-A — one CampaignTally from chunk to checkpoint to result.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "seu/injector.h"

namespace vscrub {

class RemoteVerdictClient;
class VerdictStore;

/// Live telemetry handed to CampaignOptions::on_progress as chunks complete.
struct CampaignProgress {
  u64 injections_done = 0;
  u64 injections_total = 0;
  u64 failures = 0;
  u64 persistent = 0;
  u64 pruned = 0;  ///< injections short-circuited by observability pruning
  u64 cache_hits = 0;      ///< injections answered by the verdict store
  u64 chunks_done = 0;     ///< includes chunks restored from a checkpoint
  u64 chunks_total = 0;
  u64 chunks_resumed = 0;  ///< chunks skipped because a checkpoint covered them
  double elapsed_s = 0.0;
  double bits_per_s = 0.0;  ///< injection rate this run (excludes resumed work)
  double eta_s = 0.0;       ///< projected seconds to completion at that rate
  InjectionPhases phases;   ///< per-phase wall clock this run
};

struct CampaignOptions {
  InjectionOptions injection;
  /// 0 => exhaustive over every configuration bit; otherwise a uniform
  /// random sample of this many distinct bits.
  u64 sample_bits = 0;
  u64 sample_seed = 99;
  unsigned threads = 0;  ///< 0 => hardware concurrency
  /// Record each sensitive bit (address + first-error data) for the
  /// correlation table. Costs memory on exhaustive campaigns.
  bool record_sensitive_bits = true;
  /// Record the sampled bit universe (linear indices) in the result, so a
  /// beam session can be restricted to the same universe.
  bool record_sampled_bits = false;

  /// Fabric range restriction: when range_end > range_begin the campaign
  /// covers only universe positions [range_begin, min(range_end, n)) of the
  /// deterministic bit universe (exhaustive order or the seeded sample).
  /// Because the universe itself is identical for every range of the same
  /// campaign, disjoint ranges partition the one-shot run exactly and their
  /// order-independent sensitive digests XOR back to the one-shot digest —
  /// the distributed fabric's bit-identity invariant. A range run never
  /// writes the campaign manifest (its counters cover a slice, not the
  /// universe a recampaign would diff against).
  u64 range_begin = 0;
  u64 range_end = 0;  ///< 0 = whole universe

  /// Scheduler chunk size in bits; 0 => auto (total/256 clamped to
  /// [1024, 4096]; the floor is two of the widest gang runs, so a chunk's
  /// misses fill whole gangs). Never derived from the thread count, the gang
  /// width or the host's SIMD tier, so results and checkpoints are
  /// comparable across machines.
  u64 chunk_size = 0;
  /// Called (serialized, from worker threads) every `progress_every_chunks`
  /// completed chunks and once at the end. Return false to stop the
  /// campaign: in-flight chunks finish, the rest stay pending, the result
  /// comes back with `interrupted = true` (and a final checkpoint is written
  /// when checkpointing is on).
  std::function<bool(const CampaignProgress&)> on_progress;
  u64 progress_every_chunks = 8;
  /// Checkpointing is on when `checkpoint_path` or `on_checkpoint` is set:
  /// every `checkpoint_every_chunks` completed chunks (0 = 1/16 of the
  /// campaign's chunks, rounded up, so about 16 saves however it is chunked;
  /// plus once at the end, unless the last periodic save already covers
  /// every chunk) the campaign encodes one VSCK record (seu/checkpoint.h).
  /// Each record carries the whole tally so far, sensitive bits included,
  /// so a save per chunk costs bytes quadratic in the chunk count. A set path gets the record
  /// written atomically, and a compatible checkpoint found there resumes the
  /// campaign from where it stopped; nothing else reads or writes a file.
  /// An incompatible checkpoint (different device, design, options, chunking
  /// or record version) is ignored and overwritten.
  std::string checkpoint_path;
  u64 checkpoint_every_chunks = 32;
  /// Called (serialized, from worker threads) with each save's record, right
  /// after it is written. A preempted served job keeps it in memory; a
  /// fabric worker ships it to its coordinator as a range heartbeat.
  std::function<void(const std::vector<u8>&)> on_checkpoint;
  /// A VSCK record to resume from instead of the file at checkpoint_path
  /// (a preempted job's last save, or a blob a coordinator sent with a
  /// range). An incompatible or corrupt record starts the campaign fresh.
  std::vector<u8> resume_checkpoint;

  /// When set, opens a content-addressed verdict store in this directory:
  /// bits whose key (arch fingerprint, stimulus, frame content, influence
  /// closure, bit index — see seu/cache_key.h) matches a stored verdict are
  /// answered from the store without simulation; everything injected fresh
  /// is stored back, and a campaign manifest is written on completion so a
  /// later run_recampaign() can diff against this run. Warm-cache results
  /// are bit-identical to cold runs; corrupt store files degrade to misses.
  std::string cache_dir;

  /// An already-open verdict store to use instead of opening cache_dir.
  /// Not owned; must outlive the campaign. This is how the vscrubd serving
  /// layer runs every concurrent request against one process-wide store so
  /// clients hit each other's cached verdicts (VerdictStore is thread-safe
  /// for shared find/put/flush). When set, cache_dir is ignored.
  VerdictStore* store = nullptr;

  /// A remote verdict tier (typically the coordinator's process-wide store
  /// reached over VSRP1): bits the local store misses are probed in one
  /// batched lookup per chunk, and fresh verdicts are published back in one
  /// batched call, so fabric workers reuse each other's work. Not owned;
  /// must outlive the campaign and be safe for concurrent batched calls.
  /// Remote hits replay the exact verdict an injection would produce, so
  /// results stay bit-identical with or without the tier; a dead remote
  /// degrades to misses, never to a failed campaign.
  RemoteVerdictClient* remote_store = nullptr;

  /// An external thread pool to schedule the campaign's chunks on instead of
  /// creating a pool per run. Not owned; must outlive the campaign. Several
  /// campaigns may share one pool concurrently (chunk scheduling waits on a
  /// per-call latch, not global pool idleness). When set, `threads` is
  /// ignored. The worker count never affects results, only wall clock.
  ThreadPool* pool = nullptr;

  // Fluent construction, so call sites can assemble options in one
  // expression instead of mutating an aggregate field-by-field.
  CampaignOptions& with_injection(const InjectionOptions& v) {
    injection = v;
    return *this;
  }
  CampaignOptions& with_sample(u64 bits, u64 seed = 99) {
    sample_bits = bits;
    sample_seed = seed;
    return *this;
  }
  CampaignOptions& with_exhaustive() {
    sample_bits = 0;
    return *this;
  }
  CampaignOptions& with_threads(unsigned v) {
    threads = v;
    return *this;
  }
  CampaignOptions& with_range(u64 begin, u64 end) {
    range_begin = begin;
    range_end = end;
    return *this;
  }
  CampaignOptions& with_chunk_size(u64 v) {
    chunk_size = v;
    return *this;
  }
  CampaignOptions& with_progress(std::function<bool(const CampaignProgress&)> cb,
                                 u64 every_chunks = 8) {
    on_progress = std::move(cb);
    progress_every_chunks = every_chunks;
    return *this;
  }
  CampaignOptions& with_checkpoint(std::string path, u64 every_chunks = 32) {
    checkpoint_path = std::move(path);
    checkpoint_every_chunks = every_chunks;
    return *this;
  }
  CampaignOptions& with_cache(std::string dir) {
    cache_dir = std::move(dir);
    return *this;
  }
  CampaignOptions& with_shared_store(VerdictStore* s) {
    store = s;
    return *this;
  }
  CampaignOptions& with_remote_store(RemoteVerdictClient* r) {
    remote_store = r;
    return *this;
  }
  CampaignOptions& with_shared_pool(ThreadPool* p) {
    pool = p;
    return *this;
  }
};

/// The counters of a set of completed chunks — one chunk, a campaign's
/// merge so far, a checkpoint's payload, or a finished run — summed with
/// operator+=. Chunk order never matters except for the order of
/// sensitive_bits, which a finished campaign sorts by address.
struct CampaignTally {
  struct SensitiveBit {
    BitAddress addr;
    bool persistent;
    u32 first_error_cycle;
    u64 error_output_mask_lo;
    /// Provenance: true when the verdict was replayed from the store rather
    /// than produced by a fresh injection in this run.
    bool from_cache = false;
  };

  u64 injections = 0;    ///< bits actually injected
  u64 failures = 0;      ///< injections producing output errors
  u64 persistent = 0;    ///< failures that survived repair without reset
  /// Verdict-store telemetry (all zero without a store).
  u64 cache_hits = 0;    ///< injections answered from the store
  u64 cache_misses = 0;  ///< injections that had to run (includes pruned)
  /// Remote-tier telemetry (all zero without a remote tier).
  u64 remote_hits = 0;       ///< verdicts answered by the remote tier
  u64 remote_publishes = 0;  ///< fresh verdicts published to the remote tier
  SimTime modeled_hardware_time;  ///< SLAAC-1V time for the same injections
  /// Host wall clock by injection phase, summed across workers; its
  /// `pruned` counts the injections short-circuited by observability
  /// pruning.
  InjectionPhases phases;
  std::vector<SensitiveBit> sensitive_bits;
  /// Sensitive-bit counts by configuration-field kind (routing vs LUT vs
  /// control), for the cross-section analysis.
  std::unordered_map<u8, u64> failures_by_field;

  CampaignTally& operator+=(const CampaignTally& o);
};

struct CampaignResult : CampaignTally {
  u64 device_bits = 0;   ///< total configuration bits of the device
  std::size_t design_slices = 0;
  double utilization = 0.0;

  double sensitivity() const {
    return injections ? static_cast<double>(failures) /
                            static_cast<double>(injections)
                      : 0.0;
  }
  /// Paper Table I: sensitivity with the area factored out.
  double normalized_sensitivity() const {
    return utilization > 0 ? sensitivity() / utilization : 0.0;
  }
  /// Paper Table II: persistent bits per sensitive bit.
  double persistence_ratio() const {
    return failures ? static_cast<double>(persistent) /
                          static_cast<double>(failures)
                    : 0.0;
  }
  /// Estimated sensitive-bit count for the whole device (scales the sampled
  /// rate up to the full configuration).
  double estimated_failures_device() const {
    return sensitivity() * static_cast<double>(device_bits);
  }

  double wall_seconds = 0.0;

  /// True when a progress callback stopped the campaign early; the counters
  /// then cover only the chunks that completed.
  bool interrupted = false;
  /// Injections restored from a checkpoint rather than run in this process.
  u64 resumed_injections = 0;
  /// phases.pruned: injections short-circuited by observability pruning
  /// (still counted in `injections`; pruning does not change any result,
  /// only host time).
  u64 pruned = 0;

  bool cache_enabled = false;  ///< a verdict store was open
  u64 cache_stores = 0;  ///< fresh verdicts persisted by the final flush

  /// The injected bit universe (only when options.record_sampled_bits).
  std::vector<u64> sampled_bits;

  /// The sensitivity map as a linear-bit-index set, the form the beam
  /// validation and mission simulator consume.
  std::unordered_set<u64> sensitive_set(const PlacedDesign& design) const;

  /// Order-independent digest of the sensitive-bit list (linear index +
  /// verdict fields; provenance excluded, so warm and cold runs of the same
  /// design digest identically). This is what recampaigns compare.
  u64 sensitive_digest(const PlacedDesign& design) const;
};

/// Positions in the campaign's injection universe on a device of
/// `total_bits`: the sample size, clamped to the device (0 = every bit).
u64 universe_size(u64 total_bits, const CampaignOptions& options);

/// The campaign's injected bits (linear indices) in injection order: every
/// configuration bit, or a uniform sample without replacement seeded by
/// options.sample_seed. With a fabric range set, only universe positions
/// [range_begin, min(range_end, n)), drawn without building the rest: equal
/// to that slice of the whole universe. Throws Error on an empty range.
std::vector<u64> campaign_universe(u64 total_bits,
                                   const CampaignOptions& options);

/// Runs an injection campaign for a compiled design.
CampaignResult run_campaign(const PlacedDesign& design,
                            const CampaignOptions& options);

/// A campaign run against a prior manifest in the same verdict store: the
/// embedded result plus the frame-level delta against the prior run and the
/// reuse/speedup accounting the bench job publishes.
struct RecampaignResult {
  CampaignResult result;

  /// False when the store held no manifest for this (device, design) pair —
  /// the run then degenerates to a plain (cold, but cache-filling) campaign.
  bool had_prior = false;
  u64 frames_total = 0;
  u64 frames_changed = 0;  ///< frames whose content hash moved vs the prior
  u64 prior_injections = 0;
  double prior_wall_seconds = 0.0;
  u64 prior_sensitive_digest = 0;
  u64 current_sensitive_digest = 0;
  /// True when a prior digest exists and matches this run's — for an
  /// unchanged design this is the warm==cold bit-identity check.
  bool sensitive_match = false;

  double hit_rate() const {
    return result.injections ? static_cast<double>(result.cache_hits) /
                                   static_cast<double>(result.injections)
                             : 0.0;
  }
  double speedup_vs_prior() const {
    return (had_prior && result.wall_seconds > 0)
               ? prior_wall_seconds / result.wall_seconds
               : 0.0;
  }
};

/// Delta re-campaign: loads the prior manifest for this (device, design)
/// pair from options.cache_dir (which must be set), diffs the design's
/// frames against it, then runs the campaign with the verdict store — only
/// bits whose content-addressed key moved (changed frames, or influence
/// closures touching changed logic) are re-injected; the rest replay from
/// the store. Digest comparison assumes the same universe/sampling options
/// as the prior run.
RecampaignResult run_recampaign(const PlacedDesign& design,
                                const CampaignOptions& options);

}  // namespace vscrub
