#include "svc/service.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/log.h"
#include "svc/campaign_spec.h"
#include "svc/fabric.h"
#include "svc/requests.h"
#include "svc/store_wire.h"

namespace vscrub {
namespace {

/// A request refused before it ran: replied as a typed kError carrying
/// `code`, not counted as a failed run.
class RefusedRequest : public Error {
 public:
  RefusedRequest(const char* reply_code, const std::string& what)
      : Error(what), code(reply_code) {}
  const char* code;
};

/// The fair-share lane of a request that names no tenant: its connection.
std::string client_tenant(u64 client_id) {
  return "client#" + std::to_string(client_id);
}

}  // namespace

CampaignService::CampaignService(const ServiceConfig& config)
    : config_(config) {
  config_.validate();
  if (!coordinator()) pool_.emplace(config_.pool_threads);
  if (!config_.cache_dir.empty()) {
    store_ = std::make_unique<VerdictStore>(config_.cache_dir);
  }
  // Periodic checkpointing writes VSCK files under the checkpoint
  // directory; make sure it exists before the first campaign saves there.
  if (config_.checkpoint_every_chunks > 0 &&
      !config_.checkpoint_dir().empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir(), ec);
  }
  {
    std::lock_guard lock(metrics_mutex_);
    metrics_.histogram("request_latency_ms", config_.latency_reservoir);
    if (store_) {
      metrics_.counter("store_frames");
      metrics_.histogram("store_frame_us", config_.latency_reservoir);
    }
    metrics_.counter("preemptions");
    metrics_.counter("reassignments_total");
    metrics_.counter("resumed_injections_total");
    metrics_.set_gauge("queue_depth", 0.0);
    metrics_.set_gauge("queue_capacity",
                       static_cast<double>(config_.queue_capacity));
  }
  executors_.reserve(config_.executors);
  for (unsigned i = 0; i < config_.executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

CampaignService::~CampaignService() {
  begin_drain();
  wait_drained();
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
  if (pool_) pool_->shutdown();
}

JsonReport CampaignService::error_report(const std::string& code,
                                         const std::string& message) const {
  return JsonReport("error")
      .set_string("code", code)
      .set_string("error", message);
}

JsonReport CampaignService::busy_report(const std::string& reason) const {
  return JsonReport("busy")
      .set_string("reason", reason)
      .set_u64("retry_after_ms", config_.retry_after_ms);
}

void CampaignService::reply(const Emit& emit, FrameKind kind, u64 request_id,
                            const JsonReport& report) const {
  emit(Frame{kind, request_id, report.to_json()});
}

void CampaignService::handle(const Frame& request, Emit emit, u64 client_id) {
  switch (request.kind) {
    case FrameKind::kPing: {
      {
        std::lock_guard lock(metrics_mutex_);
        metrics_.counter("pings").add();
      }
      reply(emit, FrameKind::kResult, request.request_id,
            JsonReport("pong")
                .set_u64("protocol_version", kProtocolVersion)
                .set_string("role", coordinator() ? "coordinator" : "worker")
                .set_u64("workers", config_.workers.size()));
      return;
    }
    case FrameKind::kStats:
      reply(emit, FrameKind::kResult, request.request_id, stats_report());
      return;
    case FrameKind::kCancel: {
      u64 target = 0;
      try {
        target = FlatJson::parse(request.payload).get_u64("target_id", 0);
      } catch (const Error& e) {
        reply(emit, FrameKind::kError, request.request_id,
              error_report("bad_request", e.what()));
        return;
      }
      reply(emit, FrameKind::kResult, request.request_id,
            JsonReport("cancel").set_u64("target_id", target)
                .set_bool("cancelled", cancel(target, client_id)));
      return;
    }
    case FrameKind::kStoreLookup:
    case FrameKind::kStorePublish:
      // Remote verdict tier, answered inline against the process-wide store:
      // a lookup/publish is a few map probes, never worth a queue slot. The
      // coordinator daemon is the usual target, but any cache-enabled
      // vscrubd can serve as a fleet's verdict hub.
      handle_store_request(request, emit);
      return;
    case FrameKind::kRecampaign:
    case FrameKind::kMission:
    case FrameKind::kFleet:
      if (coordinator()) {
        reply(emit, FrameKind::kError, request.request_id,
              error_report("bad_request",
                           std::string("not a coordinator request kind: ") +
                               frame_kind_name(request.kind)));
        return;
      }
      break;  // work request: admission control below
    case FrameKind::kCampaign:
      break;  // local or sharded: admission control below
    default:
      reply(emit, FrameKind::kError, request.request_id,
            error_report("bad_request",
                         std::string("not a request kind: ") +
                             frame_kind_name(request.kind)));
      return;
  }

  // The payload must parse before admission: the tenant lane comes from it,
  // and a malformed request should cost one typed reply, not a queue slot
  // and an executor dispatch.
  std::string tenant;
  try {
    const FlatJson params = FlatJson::parse(
        request.payload.empty() ? "{}" : request.payload);
    tenant = spec_string(params, Param::kTenant);
  } catch (const Error& e) {
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.counter("bad_requests").add();
    }
    reply(emit, FrameKind::kError, request.request_id,
          error_report("bad_request", e.what()));
    return;
  }

  // Reject-don't-buffer admission: the queue bound is the whole backpressure
  // story, so the admit-or-reject decision is made under the lock that
  // checked the bound (no admit/reject race can oversubscribe the queue).
  Job job;
  job.request = request;
  job.emit = std::move(emit);
  job.cancelled = std::make_shared<std::atomic<bool>>(false);
  job.enqueued = std::chrono::steady_clock::now();
  job.client_id = client_id;
  job.tenant = tenant.empty() ? client_tenant(client_id) : std::move(tenant);
  std::size_t depth = 0;
  // Rejects reply only after BOTH locks are released: emit can block on a
  // stalled client socket, and neither admission (mutex_) nor metrics
  // (metrics_mutex_) may wait behind that.
  const char* reject = nullptr;
  {
    std::unique_lock lock(mutex_);
    if (draining()) {
      reject = "draining";
    } else if (sched_.size() >= config_.queue_capacity) {
      reject = "queue_full";
    } else {
      job.job_id = next_job_id_++;
      live_.push_back({client_id, request.request_id, job.job_id,
                       job.cancelled});
      const Emit accepted_emit = job.emit;
      const std::string lane = job.tenant;  // job is moved below
      sched_.set_weight(lane, config_.weight_for(lane));
      sched_.push(lane, std::move(job));
      job.emit = accepted_emit;  // for the kAccepted reply below
      depth = sched_.size();
    }
  }
  if (reject != nullptr) {
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.counter("admission_rejects").add();
    }
    reply(job.emit, FrameKind::kBusy, request.request_id,
          busy_report(reject));
    return;
  }
  // Emitted after unlocking: a slow client socket must never stall other
  // admissions. A very fast executor can therefore emit the result before
  // this kAccepted lands; clients treat kAccepted as advisory.
  reply(job.emit, FrameKind::kAccepted, request.request_id,
        JsonReport("accepted").set_u64("queue_depth", depth));
  {
    std::lock_guard mlock(metrics_mutex_);
    metrics_.counter("requests_total").add();
    metrics_.counter(std::string("requests_") +
                     frame_kind_name(request.kind)).add();
    metrics_.set_gauge("queue_depth", static_cast<double>(depth));
  }
  work_cv_.notify_one();
}

void CampaignService::handle_store_request(const Frame& request,
                                           const Emit& emit) {
  if (store_ == nullptr) {
    reply(emit, FrameKind::kError, request.request_id,
          error_report("no_store",
                       "this daemon runs without a verdict store "
                       "(start it with --cache-dir to serve the fabric's "
                       "remote tier)"));
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  u64 keys = 0, hits = 0, entries = 0;
  std::string answer;
  try {
    answer = request.kind == FrameKind::kStoreLookup
                 ? answer_store_lookup(*store_, request.payload, &keys, &hits)
                 : answer_store_publish(*store_, request.payload, &entries);
  } catch (const Error& e) {
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.counter("bad_requests").add();
    }
    reply(emit, FrameKind::kError, request.request_id,
          error_report("bad_request", e.what()));
    return;
  }
  emit(Frame{FrameKind::kResult, request.request_id, std::move(answer)});
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::lock_guard mlock(metrics_mutex_);
  metrics_.counter("store_frames").add();
  metrics_.histogram("store_frame_us", config_.latency_reservoir).record(us);
  if (request.kind == FrameKind::kStoreLookup) {
    metrics_.counter("store_lookups").add(keys);
    metrics_.counter("store_lookup_hits").add(hits);
  } else {
    metrics_.counter("store_publishes").add(entries);
  }
}

bool CampaignService::cancel(u64 request_id, u64 client_id) {
  std::lock_guard lock(mutex_);
  for (LiveEntry& e : live_) {
    if (e.client_id == client_id && e.request_id == request_id) {
      e.flag->store(true, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void CampaignService::cancel_client(u64 client_id) {
  std::lock_guard lock(mutex_);
  for (LiveEntry& e : live_) {
    if (e.client_id == client_id) {
      e.flag->store(true, std::memory_order_relaxed);
    }
  }
  // Connection ids are never reused, so the per-connection lane will see no
  // further admission: drop it once its queued (now cancelled) jobs are out.
  sched_.retire(client_tenant(client_id));
}

void CampaignService::cancel_all() {
  std::lock_guard lock(mutex_);
  for (LiveEntry& e : live_) e.flag->store(true, std::memory_order_relaxed);
}

void CampaignService::begin_drain() {
  draining_.store(true, std::memory_order_release);
  work_cv_.notify_all();
}

void CampaignService::wait_drained() {
  {
    std::unique_lock lock(mutex_);
    drained_cv_.wait(lock, [this] {
      return sched_.empty() && running_ == 0;
    });
  }
  if (store_) store_->flush();
}

bool CampaignService::idle() const {
  std::lock_guard lock(mutex_);
  return sched_.empty() && running_ == 0;
}

void CampaignService::executor_loop() {
  while (true) {
    Job job;
    std::size_t depth = 0;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !sched_.empty(); });
      if (!sched_.pop(&job)) {
        if (stop_) return;
        continue;
      }
      depth = sched_.size();
      ++running_;
    }
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.set_gauge("queue_depth", static_cast<double>(depth));
    }

    const u64 finished_job_id = job.job_id;
    const bool finished = run_job(job);  // false: preempted, job requeued

    {
      std::lock_guard lock(mutex_);
      --running_;
      if (finished) {
        for (std::size_t i = 0; i < live_.size(); ++i) {
          if (live_[i].job_id == finished_job_id) {
            live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
      if (sched_.empty() && running_ == 0) drained_cv_.notify_all();
    }
  }
}

std::string CampaignService::checkpoint_path_for(const Job& job) const {
  if (coordinator() || config_.checkpoint_every_chunks == 0 ||
      config_.checkpoint_dir().empty() ||
      (job.request.kind != FrameKind::kCampaign &&
       job.request.kind != FrameKind::kRecampaign)) {
    return {};
  }
  // Named by the server-assigned job id: client-chosen request ids collide
  // across connections, and two concurrent campaigns must never share a
  // checkpoint file. The file is what a cancelled or hard-stopped request
  // leaves behind; a preempted job resumes from the record its Job keeps.
  char name[48];
  std::snprintf(name, sizeof name, "/ckpt_%llu.vsck",
                static_cast<unsigned long long>(job.job_id));
  return config_.checkpoint_dir() + name;
}

bool CampaignService::should_preempt(const Job& job) {
  if (draining()) return false;  // the drain wants jobs DONE, not parked
  std::lock_guard lock(mutex_);
  return sched_.other_tenant_waiting(job.tenant);
}

bool CampaignService::run_job(Job& job) {
  const u64 id = job.request.request_id;
  if (!job.started && job.cancelled->load(std::memory_order_relaxed)) {
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.counter("cancelled_before_start").add();
    }
    reply(job.emit, FrameKind::kError, id,
          error_report("cancelled", "request cancelled before it started"));
    return true;
  }
  job.started = true;

  FlatJson params;
  try {
    params = FlatJson::parse(job.request.payload.empty() ? "{}"
                                                         : job.request.payload);
  } catch (const Error& e) {
    // Unreachable in practice — admission already parsed the payload — but
    // a defect here must degrade to a typed reply, not a crash.
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.counter("bad_requests").add();
    }
    reply(job.emit, FrameKind::kError, id, error_report("bad_request", e.what()));
    return true;
  }

  // Every reply happens outside metrics_mutex_: emit can block on a slow
  // client socket, and one stalled connection must not stall the metrics of
  // every other executor and admission.
  bool preempted = false;
  try {
    const JsonReport report = coordinator()
                                  ? run_sharded(job, params)
                                  : run_local(job, params, &preempted);
    if (preempted && !job.cancelled->load(std::memory_order_relaxed)) {
      // The campaign stopped at a chunk boundary and saved its checkpoint
      // into the job; the interrupted report is discarded and the job parks
      // at its lane's head. The next dispatch resumes from that record and
      // the eventual report is bit-identical to an uninterrupted run.
      {
        std::lock_guard mlock(metrics_mutex_);
        metrics_.counter("preemptions").add();
      }
      // Re-read the cancel flag under the lock cancel_client() holds: a job
      // whose connection closed meanwhile is never requeued into a lane that
      // has been retired; it replies as cancelled instead.
      bool requeued = false;
      {
        const std::string tenant = job.tenant;  // job is moved below
        std::lock_guard lock(mutex_);
        if (!job.cancelled->load(std::memory_order_relaxed)) {
          sched_.push_front(tenant, std::move(job));
          requeued = true;
        }
      }
      if (requeued) {
        work_cv_.notify_one();
        return false;
      }
    }
    // A finished (non-cancelled) campaign's checkpoint file is scratch
    // state: remove it before the result goes out, so no client sees the
    // file of a campaign it already has the answer to. Cancelled campaigns
    // keep theirs — under --checkpoint-every the resumable file is the
    // point of cancel-at-chunk-boundary.
    const std::string checkpoint_path = checkpoint_path_for(job);
    if (!checkpoint_path.empty() &&
        !job.cancelled->load(std::memory_order_relaxed)) {
      std::error_code ec;
      std::filesystem::remove(checkpoint_path, ec);
    }
    reply(job.emit, FrameKind::kResult, id, report);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - job.enqueued).count();
    std::lock_guard mlock(metrics_mutex_);
    metrics_.counter("results").add();
    metrics_.histogram("request_latency_ms", config_.latency_reservoir)
        .record(latency_ms);
  } catch (const RefusedRequest& e) {
    reply(job.emit, FrameKind::kError, id, error_report(e.code, e.what()));
  } catch (const std::exception& e) {
    {
      std::lock_guard mlock(metrics_mutex_);
      metrics_.counter("failed_requests").add();
    }
    reply(job.emit, FrameKind::kError, id, error_report("failed", e.what()));
  }
  // A coordinator's store is the fleet's verdict hub: its workers publish
  // into it, and nothing else flushes it before the drain. Persist each
  // sharded campaign's verdicts once its reply is out, off the reply path.
  if (coordinator() && store_) store_->flush();
  return true;
}

JsonReport CampaignService::run_local(Job& job, const FlatJson& params,
                                      bool* preempted) {
  const FrameKind kind = job.request.kind;
  if (kind != FrameKind::kCampaign && kind != FrameKind::kRecampaign) {
    return execute_request(kind, params,
                           {store_.get(), &*pool_, job.cancelled.get()});
  }
  const u64 id = job.request.request_id;
  const Emit emit = job.emit;
  CampaignOptions options = campaign_options_from(params);
  options.with_shared_pool(&*pool_);
  if (store_) options.with_shared_store(store_.get());

  // The chunk-boundary hook, in order: a progress frame when asked for
  // (every frame is a socket write the client must drain), then cancel,
  // then preemption. Cancel beats preemption: both stop the campaign at the
  // boundary (saving its checkpoint), but a cancelled job must deliver its
  // interrupted report, so run_job checks the cancel flag before deciding a
  // stop was a preemption. The quantum is measured from the first boundary
  // seen in THIS dispatch, so a resumed campaign gets a full quantum after
  // every preemption instead of being instantly re-preempted.
  options.on_progress = [this, &job, emit, id, preempted,
                         progress = params.get_bool("progress", false),
                         base = std::optional<u64>()](
                            const CampaignProgress& p) mutable {
    if (progress) {
      reply(emit, FrameKind::kProgress, id,
            JsonReport("progress")
                .set_u64("injections_done", p.injections_done)
                .set_u64("injections_total", p.injections_total)
                .set_u64("failures", p.failures)
                .set_u64("cache_hits", p.cache_hits)
                .set_u64("chunks_done", p.chunks_done)
                .set_u64("chunks_total", p.chunks_total)
                .set("bits_per_s", p.bits_per_s)
                .set("eta_s", p.eta_s));
    }
    if (job.cancelled->load(std::memory_order_relaxed)) return false;
    if (config_.preempt_chunks == 0) return true;
    if (!*preempted) {
      if (!base.has_value()) base = p.chunks_done;
      *preempted = p.chunks_done - *base >= config_.preempt_chunks &&
                   should_preempt(job);
    }
    return !*preempted;
  };

  // Checkpoint records stay in memory unless --checkpoint-every names a
  // file. A preemptible job keeps its last save to resume from on its next
  // dispatch. A fabric worker ships each save to its coordinator as a
  // kCheckpoint frame (the range's heartbeat, progress and restart point)
  // and resumes from the blob the coordinator sent with the range. Every
  // record is cumulative, so a shard saves at the campaign's own cadence
  // (about 16 records per range, see CampaignOptions), not per chunk.
  options.checkpoint_path = checkpoint_path_for(job);
  if (!options.checkpoint_path.empty()) {
    options.checkpoint_every_chunks = config_.checkpoint_every_chunks;
  }
  const bool keep = config_.preempt_chunks > 0;
  const bool ship = params.get_bool("ship_checkpoints", false);
  if (ship) options.checkpoint_every_chunks = 0;
  if (keep || ship) {
    options.on_checkpoint = [this, &job, keep, ship, emit,
                             id](const std::vector<u8>& record) {
      if (keep) job.checkpoint = record;
      if (ship) {
        reply(emit, FrameKind::kCheckpoint, id,
              JsonReport("checkpoint").set_string("blob", hex_encode(record)));
      }
    };
  }
  if (!job.checkpoint.empty()) {
    options.resume_checkpoint = job.checkpoint;
  } else if (params.has("resume_checkpoint")) {
    try {
      options.resume_checkpoint =
          hex_decode(params.get_string("resume_checkpoint"));
    } catch (const Error& e) {
      throw RefusedRequest("bad_request", e.what());
    }
  }
  std::unique_ptr<VsrpRemoteStore> remote;
  const std::string remote_socket =
      params.get_string("remote_store_socket", "");
  if (!remote_socket.empty()) {
    try {
      remote = std::make_unique<VsrpRemoteStore>(remote_socket);
      options.with_remote_store(remote.get());
    } catch (const Error& e) {
      // Degrade: the remote tier only buys reuse, never correctness.
      VSCRUB_WARN("remote store unreachable, running without it: ", e.what());
    }
  }
  return run_campaign_request(params, options,
                              kind == FrameKind::kRecampaign);
}

JsonReport CampaignService::run_sharded(const Job& job,
                                        const FlatJson& params) {
  const u64 id = job.request.request_id;
  FabricOptions options;
  options.workers = config_.workers;
  options.params = params;
  options.lease_ms = config_.lease_ms;
  // With a store this daemon is the fleet's verdict hub.
  if (store_ != nullptr) options.remote_store_socket = config_.socket_path;
  options.cancelled = job.cancelled.get();
  if (params.get_bool("progress", false)) {
    options.on_progress = [this, emit = job.emit, id](const JsonReport& p) {
      reply(emit, FrameKind::kProgress, id, p);
    };
  }
  const FabricResult result = run_fabric_campaign(options);
  {
    std::lock_guard mlock(metrics_mutex_);
    metrics_.counter("reassignments_total").add(result.reassignments);
    metrics_.counter("resumed_injections_total")
        .add(result.resumed_injections);
  }
  return result.merged;
}

JsonReport CampaignService::stats_report() const {
  std::size_t depth;
  std::size_t live;
  std::size_t tenants;
  std::size_t lanes;
  {
    std::lock_guard lock(mutex_);
    depth = sched_.size();
    live = live_.size();
    tenants = sched_.tenants_waiting();
    lanes = sched_.lane_count();
  }
  JsonReport report("service_stats");
  report.set_u64("protocol_version", kProtocolVersion)
      .set_u64("executors", executors_.size())
      .set_u64("pool_threads", pool_ ? pool_->thread_count() : 0)
      .set_u64("workers", config_.workers.size())
      .set_u64("queue_depth_now", depth)
      .set_u64("live_requests", live)
      .set_u64("sched_tenants_waiting", tenants)
      .set_u64("sched_lanes", lanes)
      .set_u64("preempt_chunks", config_.preempt_chunks)
      .set_bool("draining", draining())
      .set_bool("store_enabled", store_ != nullptr)
      .set_u64("store_entries", store_ ? store_->size() : 0);
  if (store_) {
    // The store's own write path: what each flush of fresh verdicts costs.
    const VerdictStoreStats s = store_->stats();
    MetricsRegistry flushes;
    flushes.counter("store_flushes").add(s.flushes);
    flushes.counter("store_appended_segments").add(s.appended_segments);
    flushes.counter("store_appended_bytes").add(s.appended_bytes);
    flushes.counter("store_rewrites").add(s.rewrites);
    flushes.histogram("store_flush_us") = s.flush_us;
    report.add_metrics(flushes);
  }
  std::lock_guard mlock(metrics_mutex_);
  report.add_metrics(metrics_);
  return report;
}

}  // namespace vscrub
