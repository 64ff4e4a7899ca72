// The campaign fabric: shard one injection campaign across a fleet of
// vscrubd workers with fault-tolerant range reassignment.
//
// Execution model — one driver thread per worker link, pulling ranges off a
// shared queue:
//
//   partition the universe into (workers x shards_per_worker) ranges
//   each driver: pop range -> submit it to its worker (range_begin/
//   range_end + ship_checkpoints + remote_store_socket, and the range's
//   last shipped VSCK blob as resume_checkpoint when it has one) ->
//   stream kProgress (merged, forwarded up) and kCheckpoint (blob kept as
//   the range's restart point) -> fold the range report into the merge.
//
// Fault tolerance is the LLNL-style checkpoint/restart loop, one lease per
// in-flight range: a worker that dies (connection drop) or hangs (no
// progress/checkpoint frame within lease_ms) forfeits its range, which goes
// back on the queue *with its latest shipped checkpoint* — the next worker
// resumes from the blob instead of restarting, and the range report's
// resumed_injections > 0 proves the round trip. Completions are
// first-wins: a zombie attempt finishing after reassignment is counted and
// dropped (its result would be bit-identical anyway). The fabric only
// fails when every worker link is gone while ranges remain, or a range
// keeps failing past its attempt budget.
//
// The merge is exact, not approximate: counters sum, and the sensitive-set
// digest — XOR over order-independent per-bit hashes — folds across
// disjoint ranges to precisely the one-shot campaign's digest. The fabric
// tests assert that equality byte-for-byte, killed workers included.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "svc/partition.h"
#include "report/json.h"
#include "svc/protocol.h"

namespace vscrub {

struct FabricOptions {
  /// Worker endpoints (vscrubd Unix-socket paths), one driver each.
  std::vector<std::string> workers;
  /// Campaign parameters, served request names. Shards get only the
  /// campaign spec's forwarded rows (see shard_request).
  FlatJson params;
  /// Ranges per worker. Over-sharding (> 1) is what makes reassignment
  /// cheap: a lost worker forfeits a shard, not 1/Nth of the campaign.
  u64 shards_per_worker = 2;
  /// A range with no progress or checkpoint frame for this long is
  /// declared lost and reassigned from its last checkpoint.
  u64 lease_ms = 10000;
  /// Worker-side checkpoint cadence in chunks (0 = the worker's default);
  /// every save is shipped back as a kCheckpoint frame.
  u64 checkpoint_every_chunks = 0;
  /// When set, workers are told to probe this daemon's verdict store
  /// (kStoreLookup/kStorePublish) behind their local one — normally the
  /// coordinator's own socket, making it the fleet's verdict hub.
  std::string remote_store_socket;
  /// Merged progress snapshots ("fabric_progress" reports), emitted on the
  /// driver/reader threads as worker progress arrives. Must be thread-safe;
  /// may be empty.
  std::function<void(const JsonReport&)> on_progress;
  /// Checked between waits; a set flag cancels outstanding work and makes
  /// run_fabric_campaign return the merged partial report as interrupted.
  const std::atomic<bool>* cancelled = nullptr;
};

struct FabricResult {
  /// The merged campaign report ("kind": "campaign" plus fabric_* fields):
  /// summed counters, XOR-folded sensitive_digest — bit-identical to the
  /// equivalent one-shot run unless `interrupted`.
  JsonReport merged;
  bool interrupted = false;
  u64 ranges = 0;
  u64 workers_lost = 0;       ///< driver links that died for good
  u64 reassignments = 0;      ///< ranges requeued after a lost/hung worker
  u64 duplicate_completions = 0;  ///< zombie results dropped (first-wins)
  u64 resumed_injections = 0;     ///< summed proof of checkpoint restarts
  u64 remote_hits = 0;
  u64 remote_publishes = 0;

  FabricResult() : merged("campaign") {}
};

/// One range's worker request: the forwarded campaign-spec rows of
/// `options.params` plus the range and the fabric's transport fields.
JsonReport shard_request(const FabricOptions& options, const BitRange& range,
                         const std::string& resume_hex);

/// Runs one sharded campaign over the fleet. Blocks until every range
/// completed (or the campaign was cancelled). Throws Error when no worker
/// is reachable, every link dies with ranges outstanding, or a range
/// exhausts its attempt budget on typed worker errors.
FabricResult run_fabric_campaign(const FabricOptions& options);

}  // namespace vscrub
