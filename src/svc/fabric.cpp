#include "svc/fabric.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/log.h"
#include "seu/checkpoint.h"
#include "seu/report.h"
#include "svc/campaign_spec.h"
#include "svc/requests.h"
#include "svc/session.h"
#include "svc/store_wire.h"

namespace vscrub {
namespace {

using Clock = std::chrono::steady_clock;

/// A typed kError from a worker is retried on another worker this many
/// times before the fabric gives up on the range (a deterministic error —
/// bad parameters, say — would otherwise requeue forever).
constexpr u64 kRangeErrorBudget = 3;

/// Consecutive dropped-connection errors a driver tolerates before it
/// declares its worker dead. The session's reconnect runs on the reader
/// thread with its own backoff; while it is still dialing, a submit fails
/// with kConnectionLost rather than kReconnectFailed, so without a budget
/// the driver would spin through the queue stealing ranges from a link
/// that is down for good.
constexpr u64 kLinkFailureBudget = 3;

struct RangeState {
  BitRange range;
  /// Latest shipped VSCK blob (hex) of this range — its restart point.
  std::string checkpoint_hex;
  /// Dispatch epoch: a zombie attempt's frames are ignored unless its
  /// epoch is still current, so a reassigned range can never have its
  /// fresh checkpoint overwritten by a stale one.
  u64 attempt = 0;
  u64 error_attempts = 0;
  bool done = false;
  CampaignResult result;   ///< once done: the completing attempt's record
  /// Injections of checkpoint_hex's record: the range's progress, kept
  /// across reassignment because the next attempt resumes from that record.
  u64 live_injections = 0;
  Clock::time_point last_event{};
};

struct Shared {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<RangeState> ranges;
  std::deque<std::size_t> queue;  ///< pending range indices
  std::size_t done_count = 0;
  std::size_t active_drivers = 0;
  bool cancelled = false;
  u64 reassignments = 0;
  u64 workers_lost = 0;
  std::string fatal;  ///< first fatal condition; set once
};

/// The merged progress snapshot, built under the shared mutex.
JsonReport fabric_progress_locked(const Shared& shared, u64 universe) {
  u64 injections_done = 0;
  for (const RangeState& rs : shared.ranges) injections_done +=
      rs.live_injections;
  JsonReport p("fabric_progress");
  p.set_u64("injections_done", injections_done);
  p.set_u64("injections_total", universe);
  p.set_u64("ranges_done", shared.done_count);
  p.set_u64("ranges_total", shared.ranges.size());
  p.set_u64("reassignments", shared.reassignments);
  return p;
}

void requeue_locked(Shared& shared, std::size_t index) {
  shared.queue.push_back(index);
  shared.reassignments += 1;
  shared.cv.notify_all();
}

void set_fatal_locked(Shared& shared, const std::string& message) {
  if (shared.fatal.empty()) shared.fatal = message;
  shared.cv.notify_all();
}

/// One worker link: pops ranges, runs them on this worker, streams events
/// into the shared state. Exits when the campaign is finished/cancelled/
/// fatal, or when this worker is lost (dead link or expired lease) — its
/// in-flight range is requeued first, so the survivors absorb the work.
void run_driver(const FabricOptions& options, Shared& shared,
                const std::string& socket, u64 universe) {
  struct DriverExit {
    Shared& shared;
    ~DriverExit() {
      std::lock_guard lock(shared.mutex);
      shared.active_drivers -= 1;
      if (shared.active_drivers == 0 &&
          shared.done_count < shared.ranges.size() && !shared.cancelled) {
        set_fatal_locked(shared,
                         "fabric: every worker link lost with ranges "
                         "outstanding");
      }
      shared.cv.notify_all();
    }
  } exit_guard{shared};

  std::optional<ServiceSession> session;
  try {
    session.emplace(ServiceSession::connect_unix(
        socket, ReconnectPolicy{3, 50, 1000}));
  } catch (const Error& e) {
    VSCRUB_WARN("fabric: worker ", socket, " unreachable: ", e.what());
    std::lock_guard lock(shared.mutex);
    shared.workers_lost += 1;
    return;
  }

  u64 link_failures = 0;
  while (true) {
    std::size_t index = 0;
    u64 my_attempt = 0;
    std::string resume_hex;
    {
      std::unique_lock lock(shared.mutex);
      while (true) {
        if (!shared.fatal.empty() || shared.cancelled ||
            shared.done_count == shared.ranges.size()) {
          return;
        }
        if (!shared.queue.empty()) break;
        shared.cv.wait_for(lock, std::chrono::milliseconds(100));
        if (options.cancelled != nullptr &&
            options.cancelled->load(std::memory_order_relaxed)) {
          shared.cancelled = true;
          shared.cv.notify_all();
        }
      }
      index = shared.queue.front();
      shared.queue.pop_front();
      RangeState& rs = shared.ranges[index];
      rs.attempt += 1;
      my_attempt = rs.attempt;
      resume_hex = rs.checkpoint_hex;
      rs.last_event = Clock::now();
    }
    RangeState& rs = shared.ranges[index];

    const JsonReport request = shard_request(options, rs.range, resume_hex);

    // Event stream: every frame is a lease heartbeat. A checkpoint is
    // decoded outside the shared mutex; a record of this range is this
    // attempt's latest tally and, for the current attempt only, the range's
    // restart point and progress. An undecodable blob is dropped.
    auto shipped = std::make_shared<CampaignTally>();
    const auto on_event = [&options, &shared, &rs, my_attempt, universe,
                           shipped](const Frame& frame) {
      std::string blob;
      if (frame.kind == FrameKind::kCheckpoint) {
        try {
          std::string hex = FlatJson::parse(frame.payload).get_string("blob");
          CampaignCheckpoint ck;
          if (decode_campaign_checkpoint(hex_decode(hex), &ck) &&
              ck.total_injections == rs.range.size()) {
            *shipped = std::move(ck.tally);
            blob = std::move(hex);
          }
        } catch (const Error&) {
          // A malformed frame is dropped; it still renews the lease.
        }
      }
      std::lock_guard lock(shared.mutex);
      if (rs.attempt != my_attempt || rs.done) return;
      rs.last_event = Clock::now();
      if (blob.empty()) return;
      rs.checkpoint_hex = std::move(blob);
      rs.live_injections = shipped->injections;
      // Emitted under the lock, so snapshots leave in the order they were
      // built and injections_done never decreases.
      if (options.on_progress) {
        options.on_progress(fabric_progress_locked(shared, universe));
      }
    };

    std::optional<Frame> terminal;
    try {
      JobHandle handle =
          session->submit(FrameKind::kCampaign, request.to_json(), on_event);
      bool cancel_sent = false;
      while (!terminal.has_value()) {
        terminal = handle.wait_for(std::chrono::milliseconds(100));
        if (terminal.has_value()) break;
        if (options.cancelled != nullptr &&
            options.cancelled->load(std::memory_order_relaxed)) {
          std::lock_guard lock(shared.mutex);
          shared.cancelled = true;
          shared.cv.notify_all();
        }
        bool want_cancel = false;
        bool lease_expired = false;
        {
          std::lock_guard lock(shared.mutex);
          want_cancel = (shared.cancelled || !shared.fatal.empty()) &&
                        !cancel_sent;
          lease_expired =
              !shared.cancelled && shared.fatal.empty() &&
              Clock::now() - rs.last_event >
                  std::chrono::milliseconds(options.lease_ms);
        }
        if (want_cancel) {
          cancel_sent = true;
          try {
            handle.cancel();
          } catch (const Error&) {
            break;  // link gone; nothing left to collect
          }
        }
        if (lease_expired) {
          // Hung worker: forfeit the range (latest checkpoint travels with
          // it) and stop trusting this link. Nothing waits on this attempt
          // any more, and the epoch check drops its late frames.
          try {
            handle.cancel();
          } catch (const Error&) {
          }
          std::lock_guard lock(shared.mutex);
          requeue_locked(shared, index);
          shared.workers_lost += 1;
          return;
        }
      }
    } catch (const SessionError& e) {
      link_failures += 1;
      const bool lost_link =
          e.code() == SessionErrorCode::kReconnectFailed ||
          link_failures >= kLinkFailureBudget;
      {
        std::lock_guard lock(shared.mutex);
        requeue_locked(shared, index);
        if (lost_link) {
          shared.workers_lost += 1;
        }
      }
      if (lost_link) return;
      // A dropped connection whose redial may still be in flight: the range
      // goes back on the queue, and this driver gives the reader thread's
      // reconnect a beat before trying the new connection.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }

    if (!terminal.has_value()) return;  // cancel raced a dead link
    link_failures = 0;  // the link delivered a terminal: it is healthy

    const Frame& reply = *terminal;
    if (reply.kind == FrameKind::kResult) {
      // The range's result is the last record this attempt shipped (the
      // session delivers events before the terminal reply). The report is
      // read only for the run facts a tally does not hold: `interrupted`
      // (requeue), `resumed_injections` and `cache_stores` (summed), and
      // `cache_enabled` (set if any range set it).
      std::optional<CampaignResult> result;
      bool interrupted = false;
      try {
        const FlatJson report = FlatJson::parse(reply.payload);
        interrupted = report.get_bool("interrupted");
        if (shipped->injections == rs.range.size()) {
          result.emplace();
          static_cast<CampaignTally&>(*result) = std::move(*shipped);
          result->resumed_injections = report.get_u64("resumed_injections");
          result->cache_stores = report.get_u64("cache_stores");
          result->cache_enabled = report.get_bool("cache_enabled");
        }
      } catch (const Error&) {
        // Unparseable: no result, retried below.
      }
      std::lock_guard lock(shared.mutex);
      if (interrupted) {
        // A worker-side stop (drain, hard signal) delivered a partial
        // report; the range resumes elsewhere from its checkpoint.
        requeue_locked(shared, index);
        continue;
      }
      if (result.has_value()) {
        rs.done = true;
        rs.result = std::move(*result);
        shared.done_count += 1;
        shared.cv.notify_all();
      } else {
        // An unparseable report, or no shipped record covering the range.
        rs.error_attempts += 1;
        if (rs.error_attempts >= kRangeErrorBudget) {
          set_fatal_locked(shared, "fabric: worker returned an unusable "
                                   "range result repeatedly");
        } else {
          requeue_locked(shared, index);
        }
      }
    } else if (reply.kind == FrameKind::kBusy) {
      // Admission pushback: give the worker a beat, then retry the range
      // (any driver may pick it up).
      {
        std::lock_guard lock(shared.mutex);
        requeue_locked(shared, index);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else {  // kError
      std::string message = "worker error";
      try {
        message = FlatJson::parse(reply.payload).get_string("message",
                                                            message);
      } catch (const Error&) {
      }
      std::lock_guard lock(shared.mutex);
      rs.error_attempts += 1;
      if (rs.error_attempts >= kRangeErrorBudget) {
        set_fatal_locked(shared, "fabric: range " +
                                     std::to_string(rs.range.begin) + ".." +
                                     std::to_string(rs.range.end) +
                                     " failed repeatedly: " + message);
      } else {
        requeue_locked(shared, index);
      }
    }
  }
}

}  // namespace

JsonReport shard_request(const FabricOptions& options, const BitRange& range,
                         const std::string& resume_hex) {
  JsonReport request("campaign_shard");
  for (const SpecRow& row : campaign_spec()) {
    if ((row.scope & kSpecForward) != 0 && options.params.has(row.name)) {
      spec_set(request, row, options.params.get_string(row.name));
    }
  }
  request.set_u64("range_begin", range.begin);
  request.set_u64("range_end", range.end);
  request.set_bool("ship_checkpoints", true);
  // The worker polls its cancel flag at this cadence.
  request.set_u64("progress_every_chunks",
                  options.params.get_u64("progress_every_chunks", 4));
  if (!options.remote_store_socket.empty()) {
    request.set_string("remote_store_socket", options.remote_store_socket);
  }
  if (!resume_hex.empty()) {
    request.set_string("resume_checkpoint", resume_hex);
  }
  return request;
}

FabricResult run_fabric_campaign(const FabricOptions& options) {
  VSCRUB_CHECK(!options.workers.empty(), "fabric: no workers configured");
  VSCRUB_CHECK(options.shards_per_worker > 0,
               "fabric: shards_per_worker must be positive");
  const auto started = Clock::now();
  // The merged report renders from this compile, and a request that cannot
  // build (design, device, engine selection) fails here, before dispatch.
  const auto design =
      request_design(spec_string(options.params, Param::kDesign),
                     spec_string(options.params, Param::kDevice));
  const u64 universe = universe_size(
      design->space->total_bits(),
      campaign_options_from(options.params));
  const std::vector<BitRange> ranges = partition_universe(
      universe, options.workers.size() * options.shards_per_worker);
  VSCRUB_CHECK(!ranges.empty(), "fabric: empty injection universe");

  Shared shared;
  shared.ranges.resize(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    shared.ranges[i].range = ranges[i];
    shared.queue.push_back(i);
  }
  shared.active_drivers = options.workers.size();

  std::vector<std::thread> drivers;
  drivers.reserve(options.workers.size());
  for (const std::string& socket : options.workers) {
    drivers.emplace_back([&options, &shared, &socket, universe] {
      run_driver(options, shared, socket, universe);
    });
  }
  for (std::thread& t : drivers) t.join();

  FabricResult result;
  {
    std::lock_guard lock(shared.mutex);
    result.interrupted =
        shared.cancelled || shared.done_count < shared.ranges.size();
    if (!shared.fatal.empty() && !shared.cancelled) {
      throw Error(shared.fatal);
    }
    result.ranges = shared.ranges.size();
    result.workers_lost = shared.workers_lost;
    result.reassignments = shared.reassignments;

    // The campaign's own merge and renderer.
    CampaignResult merged;
    for (const RangeState& rs : shared.ranges) {
      if (!rs.done) continue;
      merged += rs.result;
      merged.resumed_injections += rs.result.resumed_injections;
      merged.cache_stores += rs.result.cache_stores;
      merged.cache_enabled = merged.cache_enabled || rs.result.cache_enabled;
    }
    merged.device_bits = design->space->total_bits();
    merged.design_slices = design->stats.slices_used;
    merged.utilization = design->stats.utilization;
    merged.pruned = merged.phases.pruned;
    merged.interrupted = result.interrupted;
    merged.wall_seconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    result.resumed_injections = merged.resumed_injections;
    result.remote_hits = merged.remote_hits;
    result.remote_publishes = merged.remote_publishes;
    result.merged = campaign_report_json(*design, merged);
    result.merged.set_u64("fabric_workers", options.workers.size());
    result.merged.set_u64("fabric_workers_lost", result.workers_lost);
    result.merged.set_u64("fabric_ranges", result.ranges);
    result.merged.set_u64("fabric_reassignments", result.reassignments);
  }
  return result;
}

}  // namespace vscrub
