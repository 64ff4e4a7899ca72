// The campaign fabric: shard one injection campaign across a fleet of
// vscrubd workers with fault-tolerant range reassignment.
//
// Execution model — one driver thread per worker link, pulling ranges off a
// shared queue:
//
//   compile the design and partition its universe into
//   (workers x shards_per_worker) ranges
//   each driver: pop range -> submit it to its worker (range_begin/
//   range_end + ship_checkpoints + remote_store_socket, and the range's
//   last good VSCK blob as resume_checkpoint when it has one) ->
//   stream kCheckpoint, one per worker save (1/16 of the range's chunks,
//   rounded up, then the last), decoded on arrival -> the attempt's final
//   record is the range's result.
//
// The shipped checkpoint is the only event a shard sends. A record of the
// range is at once its heartbeat (it renews the lease), its progress (its
// tally's injections feed the merged "fabric_progress" snapshot) and its
// restart point; anything else is dropped.
//
// Fault tolerance is the LLNL-style checkpoint/restart loop, one lease per
// in-flight range: a worker that dies (connection drop) or hangs (no frame
// within lease_ms) forfeits its range, which goes back on the queue *with
// its latest shipped checkpoint* — the next worker resumes from the blob
// instead of restarting, and the range report's resumed_injections > 0
// proves the round trip. A driver collects only its own current attempt's
// terminal: once it forfeits a range it stops waiting on that attempt, and
// the attempt epoch drops any late frame the zombie still sends. The
// fabric only fails when every worker link is gone while ranges remain, or
// a range keeps failing (typed errors, results with no covering record)
// past its attempt budget.
//
// The merge is the campaign's own: range tallies fold with
// CampaignTally::operator+= and render through campaign_report_json, so
// the merged report has the one-shot report's fields and values (the
// sensitive-set digest is order-independent). The fabric tests assert
// that equality, killed workers included.
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
  /// A range with no frame for this long is declared lost and reassigned
  /// from its last checkpoint. Its worker ships one every 1/16 of the
  /// range's chunks, so the lease must outlast that much of a range.
  u64 lease_ms = 10000;
  /// When set, workers are told to probe this daemon's verdict store
  /// (kStoreLookup/kStorePublish) behind their local one — normally the
  /// coordinator's own socket, making it the fleet's verdict hub.
  std::string remote_store_socket;
  /// Merged progress snapshots ("fabric_progress" reports), one per accepted
  /// shipped checkpoint, so about 16 per range; the request's
  /// progress_every_chunks is the shards' cancel-poll cadence and does not
  /// set this rate. Called under the fabric's lock, so snapshots arrive in
  /// order and injections_done never decreases; must not block. May be
  /// empty, and then no snapshot is built.
  std::function<void(const JsonReport&)> on_progress;
  /// Checked between waits; a set flag cancels outstanding work and makes
  /// run_fabric_campaign return the merged partial report as interrupted.
  const std::atomic<bool>* cancelled = nullptr;
};

struct FabricResult {
  /// campaign_report_json of the folded range tallies plus four fabric_*
  /// fields: the one-shot run's report unless `interrupted`, but for wall
  /// clock, resumed_injections, gang_runs and store-tier counters.
  JsonReport merged;
  bool interrupted = false;
  u64 ranges = 0;
  u64 workers_lost = 0;       ///< driver links that died for good
  u64 reassignments = 0;      ///< ranges requeued after a lost/hung worker
  u64 resumed_injections = 0; ///< summed proof of checkpoint restarts
  u64 remote_hits = 0;
  u64 remote_publishes = 0;

  FabricResult() : merged("campaign") {}
};

/// One range's worker request: the forwarded campaign-spec rows of
/// `options.params` plus the range and the fabric's transport fields.
JsonReport shard_request(const FabricOptions& options, const BitRange& range,
                         const std::string& resume_hex);

/// Runs one sharded campaign over the fleet. Blocks until every range
/// completed (or the campaign was cancelled). Throws Error when the design
/// does not compile, no worker is reachable, every link dies with ranges
/// outstanding, or a range exhausts its attempt budget.
FabricResult run_fabric_campaign(const FabricOptions& options);

}  // namespace vscrub
