#include "server/solve_server.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <utility>

#include "analysis/lint.h"
#include "core/metrics.h"
#include "core/orchestrator.h"
#include "core/streaming_pipeline.h"
#include "core/workload.h"
#include "util/units.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep::core {

using util::MutexLock;

namespace {

std::string tenant_label(int tenant) {
  return "tenant=\"" + std::to_string(tenant) + "\"";
}

/// A run needed the fault machinery's failover path: SPEs were dead at
/// boot or died mid-run, or chunks had to be redispatched.
bool saw_failover(const RunReport& r) {
  const sim::CounterSet* f = r.counters.find_child("faults");
  return f != nullptr && (f->value("spes_disabled") > 0 ||
                          f->value("spes_failed") > 0 ||
                          f->value("redispatched_chunks") > 0);
}

std::variant<sweep::Deck, stencil::StencilSpec> parse_input(
    JobKind kind, const std::string& text, const std::string& source) {
  try {
    if (kind == JobKind::kSweep) {
      sweep::Deck deck = sweep::parse_deck_string(text);
      deck.source = source;
      return deck;
    }
    stencil::StencilSpec spec = stencil::parse_spec_string(text);
    spec.origin = source;
    return spec;
  } catch (const sweep::DeckError& e) {
    throw AdmissionError(AdmissionError::Reason::kParse, e.what());
  } catch (const stencil::StencilError& e) {
    throw AdmissionError(AdmissionError::Reason::kParse, e.what());
  }
}

}  // namespace

const char* job_kind_name(JobKind k) {
  return k == JobKind::kSweep ? "sweep" : "stencil";
}

const char* admission_reason_name(AdmissionError::Reason r) {
  switch (r) {
    case AdmissionError::Reason::kParse: return "parse";
    case AdmissionError::Reason::kLint: return "lint";
    case AdmissionError::Reason::kLsBudget: return "ls-budget";
    case AdmissionError::Reason::kGridBudget: return "grid-budget";
    case AdmissionError::Reason::kQueueFull: return "queue-full";
    case AdmissionError::Reason::kShutdown: return "shutdown";
  }
  return "unknown";
}

JobInput::JobInput(JobKind kind, const std::string& text,
                   const std::string& source)
    : input_(parse_input(kind, text, source)) {}

const std::string& JobInput::source() const noexcept {
  return deck() ? deck()->source : spec()->origin;
}

analysis::Diagnostics JobInput::lint(CellSweepConfig cfg) const {
  if (const sweep::Deck* d = deck()) {
    cfg.sweep = d->sweep;
    return analysis::lint_deck(*d, cfg);
  }
  return analysis::lint_stencil(*spec(), cfg);
}

long long JobInput::cells() const {
  return deck() ? deck()->problem.grid().cells() : spec()->cells();
}

std::size_t JobInput::ls_footprint(const CellSweepConfig& cfg) const {
  if (const sweep::Deck* d = deck())
    return sweep_placement(
               cfg, d->problem.grid().it,
               sweep::deck_moments(*d, sweep::SnQuadrature(d->sn_order)))
        .footprint(cfg.buffers);
  return stencil::block_placement(
             stencil::plan_block(*spec(), real_bytes_of(cfg.precision),
                                 cfg.aligned_rows))
      .footprint(cfg.buffers);
}

JobResult JobInput::run(CellSweepConfig cfg, RunMode mode,
                        util::ThreadPool* pool) const {
  JobResult r;
  if (const sweep::Deck* d = deck()) {
    cfg.sweep = d->sweep;
    cfg.sweep.pool = pool;
    r.report =
        CellSweep3D(d->problem, cfg, d->sn_order, sweep::kDeckLMax, d->nm_cap)
            .run(mode);
  } else {
    const stencil::StencilReport rep =
        stencil::CellStencil(*spec(), cfg).run(mode, 1, pool);
    // Copied, not moved: the copy drops the report vectors' growth
    // slack, which a server keeping every result would otherwise hold.
    r.report = rep.run;
    r.checksum = rep.checksum;
    r.residual = rep.residual;
  }
  r.ok = true;
  return r;
}

SolveServer::SolveServer(const ServerConfig& cfg)
    : cfg_(cfg),
      base_(CellSweepConfig::from_stage(cfg.stage)),
      pool_(std::max(1, cfg.host_threads)),
      alloc_(base_.chip.num_spes),
      cache_(base_.chip) {
  cfg_.tenants = std::max(1, cfg_.tenants);
  cfg_.queue_limit = std::max<std::size_t>(1, cfg_.queue_limit);
  base_.faults = cfg_.faults;
  workers_.reserve(static_cast<std::size_t>(cfg_.tenants));
  for (int t = 0; t < cfg_.tenants; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

SolveServer::~SolveServer() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_queue_.notify_all();
  join_workers();
}

void SolveServer::join_workers() {
  {
    MutexLock lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  for (std::thread& w : workers_) w.join();
}

void SolveServer::stop() {
  std::vector<Job> cancelled;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    while (!queue_.empty()) {
      cancelled.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  cv_queue_.notify_all();

  // Publish every cancelled job as a cancelled result carrying the
  // partial lifecycle trace it accumulated (admission + enqueue stamps;
  // complete stays false). drain()/wait() then see them like any other
  // finished job instead of hanging on results that will never come.
  // No per-job flight dump here: a stop() storm is routine shutdown,
  // and the summary "stop" event below tells the story.
  const std::size_t n = cancelled.size();
  for (Job& job : cancelled)
    publish_cancelled(std::move(job),
                      "cancelled: server stopped before the job ran", "stop",
                      /*dump=*/false);
  recorder_.record(clock_.now_s(), "stop", -1, -1,
                   "cancelled=" + std::to_string(n));
  join_workers();
}

bool SolveServer::cancel(int id) {
  Job queued;
  {
    MutexLock lock(mu_);
    if (id < 1 || id >= next_id_) return false;
    if (done_.find(id) != done_.end()) return false;  // already finished
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [id](const Job& j) { return j.id == id; });
    if (it == queue_.end()) {
      // Not queued and not done: the job is in a worker's hands. Flip
      // its cooperative flag; the pipeline aborts at the next wave
      // boundary (or the worker notices before starting the run). The
      // flag leaves the registry only with the done_ insert, under
      // this same lock, so it is still there.
      cancel_flags_.at(id)->store(true, std::memory_order_relaxed);
      return true;
    }
    queued = std::move(*it);
    queue_.erase(it);
  }
  publish_cancelled(std::move(queued), "cancelled: job cancelled while queued",
                    "cancel", /*dump=*/true);
  return true;
}

void SolveServer::publish_cancelled(Job&& job, const std::string& why,
                                    const char* reason, bool dump) {
  job.trace.report_s = clock_.now_s();
  recorder_.record(job.trace.report_s, "cancel", job.id, job.trace.tenant,
                   std::string("reason=") + reason + " name=" +
                       (job.req.name.empty() ? "?" : job.req.name));
  metrics_.counter_add("cellsweep_jobs_cancelled_total",
                       std::string("reason=\"") + reason + "\"", 1.0,
                       "Jobs cancelled before completing, by reason");
  // Dump before publishing: a client woken by the cancelled result
  // must be able to see the post-mortem file already on disk.
  if (dump) dump_flight(reason);
  JobResult r;
  r.id = job.id;
  r.name = job.req.name;
  r.kind = job.req.kind;
  r.ok = false;
  r.cancelled = true;
  r.error = why;
  r.trace = job.trace;
  {
    MutexLock lock(mu_);
    ++stats_.cancelled;
    cancel_flags_.erase(job.id);
    done_.emplace(job.id, std::move(r));
  }
  cv_done_.notify_all();
}

int SolveServer::tenant_weight(int tenant) const noexcept {
  if (tenant < 0 ||
      tenant >= static_cast<int>(cfg_.tenant_weights.size()))
    return 1;
  return std::max(1, cfg_.tenant_weights[static_cast<std::size_t>(tenant)]);
}

int SolveServer::tenant_quota(int tenant) const noexcept {
  if (tenant < 0 || tenant >= static_cast<int>(cfg_.tenant_quotas.size()))
    return 0;
  return std::max(0, cfg_.tenant_quotas[static_cast<std::size_t>(tenant)]);
}

void SolveServer::admit(Job& job) const {
  // Admission reuses the static linters, so a job the server accepts
  // can never be one the runtime would reject -- and a rejected job
  // costs zero simulated (and near-zero host) work. All checks run
  // outside the queue lock.
  job.input.emplace(job.req.kind, job.req.text);
  const analysis::Diagnostics diags = job.input->lint(base_);
  if (diags.has_errors())
    throw AdmissionError(AdmissionError::Reason::kLint,
                         std::string(job.input->deck() ? "deck" : "spec") +
                             " rejected by lint:\n" + diags.summary());
  const long long cells = job.input->cells();
  const std::size_t ls_bytes = job.input->ls_footprint(base_);
  if (cfg_.grid_cell_budget > 0 && cells > cfg_.grid_cell_budget)
    throw AdmissionError(
        AdmissionError::Reason::kGridBudget,
        "grid of " + std::to_string(cells) + " cells exceeds the server's " +
            std::to_string(cfg_.grid_cell_budget) + "-cell budget");
  if (cfg_.ls_budget_bytes > 0 && ls_bytes > cfg_.ls_budget_bytes)
    throw AdmissionError(
        AdmissionError::Reason::kLsBudget,
        "simulated-LS footprint of " + std::to_string(ls_bytes) +
            " bytes/SPE exceeds the server's " +
            std::to_string(cfg_.ls_budget_bytes) + "-byte budget");
}

int SolveServer::submit(const JobRequest& req) {
  Job job;
  job.req = req;
  job.trace.admit_start_s = clock_.now_s();
  try {
    admit(job);
  } catch (const AdmissionError& e) {
    {
      MutexLock lock(mu_);
      ++stats_.rejected;
    }
    metrics_.counter_add(
        "cellsweep_jobs_rejected_total",
        std::string("reason=\"") + admission_reason_name(e.reason()) + "\"",
        1.0, "Jobs refused at admission, by typed reason");
    recorder_.record(clock_.now_s(), "reject", -1, -1,
                     std::string("reason=") + admission_reason_name(e.reason()) +
                         " name=" + (req.name.empty() ? "?" : req.name));
    throw;
  }
  job.trace.admit_end_s = clock_.now_s();
  int id = 0;
  std::size_t depth = 0;
  try {
    MutexLock lock(mu_);
    if (stopping_) {
      ++stats_.rejected;
      throw AdmissionError(AdmissionError::Reason::kShutdown,
                           "server is stopping; no new work accepted");
    }
    if (queue_.size() >= cfg_.queue_limit) {
      ++stats_.rejected;
      throw AdmissionError(
          AdmissionError::Reason::kQueueFull,
          "queue full: " + std::to_string(queue_.size()) +
              " job(s) pending (limit " + std::to_string(cfg_.queue_limit) +
              ")");
    }
    id = next_id_++;
    job.id = id;
    if (job.req.name.empty()) job.req.name = "job-" + std::to_string(id);
    job.cancel_flag = std::make_shared<std::atomic<bool>>(false);
    // Registered in the same critical section that makes the job
    // visible, so cancel() always finds a live job's flag.
    cancel_flags_.emplace(id, job.cancel_flag);
    job.trace.enqueue_s = clock_.now_s();
    ++stats_.submitted;
    queue_.push_back(std::move(job));
    depth = queue_.size();
  } catch (const AdmissionError& e) {
    const char* reason = admission_reason_name(e.reason());
    metrics_.counter_add("cellsweep_jobs_rejected_total",
                         std::string("reason=\"") + reason + "\"", 1.0,
                         "Jobs refused at admission, by typed reason");
    recorder_.record(clock_.now_s(), "reject", -1, -1,
                     std::string("reason=") + reason +
                         " name=" + (req.name.empty() ? "?" : req.name));
    // An admission storm pushing the queue to its limit is exactly the
    // incident the flight recorder exists for: dump the window.
    if (e.reason() == AdmissionError::Reason::kQueueFull)
      dump_flight("queue-full");
    throw;
  }
  cv_queue_.notify_one();
  metrics_.counter_add("cellsweep_jobs_admitted_total", "", 1.0,
                       "Jobs accepted into the queue");
  metrics_.gauge_set("cellsweep_queue_depth", "",
                     static_cast<double>(depth),
                     "Jobs currently queued (not yet dequeued)");
  metrics_.series_sample("cellsweep_queue_depth_series", "", clock_.now_s(),
                         static_cast<double>(depth),
                         "Queue depth over host time");
  recorder_.record(clock_.now_s(), "admit", id, -1,
                   "depth=" + std::to_string(depth));
  return id;
}

void SolveServer::worker_loop(int tenant) {
  for (;;) {
    Job job;
    std::size_t depth = 0;
    {
      MutexLock lock(mu_);
      // Predicate re-checked under mu_ on every wakeup (and visibly so
      // to the thread-safety analysis: the guarded reads sit in this
      // function, not in a lambda analyzed without the lock context).
      while (!stopping_ && queue_.empty()) cv_queue_.wait(mu_);
      if (queue_.empty()) return;  // stopping, and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    job.trace.tenant = tenant;
    job.trace.dequeue_s = clock_.now_s();
    metrics_.gauge_set("cellsweep_queue_depth", "",
                       static_cast<double>(depth),
                       "Jobs currently queued (not yet dequeued)");
    metrics_.series_sample("cellsweep_queue_depth_series", "",
                           job.trace.dequeue_s, static_cast<double>(depth),
                           "Queue depth over host time");
    recorder_.record(job.trace.dequeue_s, "dequeue", job.id, tenant,
                     "name=" + job.req.name);

    // Cancelled while queued but snatched by cancel()'s second look
    // (or its deadline expired in the queue): publish without running.
    if (job.cancel_flag &&
        job.cancel_flag->load(std::memory_order_relaxed)) {
      publish_cancelled(std::move(job),
                        "cancelled: job cancelled while queued", "cancel",
                        /*dump=*/true);
      continue;
    }
    if (job.req.deadline_ms > 0 &&
        job.trace.queue_wait_s() * 1000.0 >
            static_cast<double>(job.req.deadline_ms)) {
      publish_cancelled(
          std::move(job),
          "cancelled: deadline of " + std::to_string(job.req.deadline_ms) +
              " ms expired while the job was queued",
          "deadline", /*dump=*/true);
      continue;
    }

    JobResult res = run_job(job);
    res.trace.report_s = clock_.now_s();
    res.trace.complete = !res.cancelled;

    // Per-tenant latency distributions: queue wait (enqueue->dequeue)
    // and service time (solver entry->exit). Recorded outside mu_.
    const std::string label = tenant_label(tenant);
    const double qw = res.trace.queue_wait_s();
    if (JobTrace::reached(qw))
      metrics_.observe("cellsweep_queue_wait_seconds", label, qw,
                       "Host seconds a job waited in the queue");
    const double svc = res.trace.service_s();
    if (JobTrace::reached(svc))
      metrics_.observe("cellsweep_service_seconds", label, svc,
                       "Host seconds a job spent in the solver");
    if (res.cancelled)
      metrics_.counter_add("cellsweep_jobs_cancelled_total",
                           "reason=\"cancel\"", 1.0,
                           "Jobs cancelled before completing, by reason");
    else
      metrics_.counter_add(res.ok ? "cellsweep_jobs_completed_total"
                                  : "cellsweep_jobs_failed_total",
                           label, 1.0,
                           res.ok ? "Jobs finished ok, by tenant"
                                  : "Jobs finished with an error, by tenant");
    if (res.ok && res.plan_cache_hit)
      metrics_.counter_add("cellsweep_plan_cache_job_hits_total", label, 1.0,
                           "Jobs that reused a cached plan, by tenant");

    const bool failover = res.ok && saw_failover(res.report);
    recorder_.record(res.trace.report_s,
                     res.cancelled ? "cancel" : res.ok ? "complete" : "fail",
                     job.id, tenant,
                     res.cancelled
                         ? "reason=cancel-mid-run name=" + job.req.name
                         : res.ok
                               ? "name=" + job.req.name
                               : "name=" + job.req.name +
                                     " error=" + res.error);
    if (failover) {
      const sim::CounterSet& f = *res.report.counters.find_child("faults");
      const auto count = [&f](const char* counter) {
        return std::to_string(static_cast<std::uint64_t>(f.value(counter)));
      };
      recorder_.record(clock_.now_s(), "failover", job.id, tenant,
                       "spes_disabled=" + count("spes_disabled") +
                           " spes_failed=" + count("spes_failed") +
                           " redispatched=" + count("redispatched_chunks"));
    }

    // Dump before publishing: a client woken by its result must be
    // able to see the post-mortem file already on disk.
    if (res.cancelled) dump_flight("cancel");
    else if (!res.ok) dump_flight("job-failure");
    if (failover) dump_flight("failover");

    {
      MutexLock lock(mu_);
      if (res.cancelled)
        ++stats_.cancelled;
      else
        res.ok ? ++stats_.completed : ++stats_.failed;
      cancel_flags_.erase(job.id);
      done_.emplace(job.id, std::move(res));
    }
    cv_done_.notify_all();
  }
}

JobResult SolveServer::run_job(Job& job) {
  JobResult r;
  // The solver claims SPEs on this thread: the thread-local
  // accumulator attributes exactly this job's blocked time.
  SpeAllocator::reset_thread_claim_wait();
  try {
    CellSweepConfig cfg = job_config(job);
    bool hit = false;
    job.trace.plan_start_s = job.trace.plan_end_s = clock_.now_s();
    if (const sweep::Deck* d = job.input->deck()) {
      const PlanCache::Plan plan = cache_.plan(*d, cfg);
      job.trace.plan_end_s = clock_.now_s();
      cfg.quadrature = plan.quadrature;
      cfg.warm_kernels = plan.kernels;
      hit = plan.hit;
    }

    job.trace.run_start_s = clock_.now_s();
    r = job.input->run(cfg, job.req.mode, &pool_);
    job.trace.run_end_s = clock_.now_s();
    r.plan_cache_hit = hit;
  } catch (const RunCancelled& e) {
    // Cooperative mid-run cancellation: the solve unwound within a
    // diagonal, or the pipeline at a wave boundary, releasing its SPE
    // claim on the way out. The partial trace keeps every stamp the
    // run reached, run_end_s included.
    if (JobTrace::reached(job.trace.run_start_s) &&
        !JobTrace::reached(job.trace.run_end_s))
      job.trace.run_end_s = clock_.now_s();
    r.cancelled = true;
    r.error = std::string("cancelled: ") + e.what();
  } catch (const std::exception& e) {
    // A failing solve (fault plan kills every SPE, hazard escalation)
    // takes down its job, never the server.
    if (JobTrace::reached(job.trace.run_start_s) &&
        !JobTrace::reached(job.trace.run_end_s))
      job.trace.run_end_s = clock_.now_s();
    r.error = e.what();
  }
  job.trace.claim_wait_s = SpeAllocator::thread_claim_wait_s();
  if (job.trace.claim_wait_s > 0.0)
    job.trace.claim_start_s =
        clock_.at_s(SpeAllocator::thread_claim_wait_from());
  r.id = job.id;
  r.name = job.req.name;
  r.kind = job.req.kind;
  r.trace = job.trace;
  return r;
}

CellSweepConfig SolveServer::job_config(const Job& job) {
  CellSweepConfig cfg = base_;
  cfg.spe_allocator = &alloc_;
  cfg.claim_weight = tenant_weight(job.trace.tenant);
  cfg.claim_quota = tenant_quota(job.trace.tenant);
  cfg.cancel = job.cancel_flag.get();
  return cfg;
}

JobResult SolveServer::wait(int id) {
  MutexLock lock(mu_);
  if (id < 1 || id >= next_id_)
    throw std::invalid_argument("SolveServer::wait: unknown job id " +
                                std::to_string(id));
  while (done_.find(id) == done_.end()) cv_done_.wait(mu_);
  // The result is copied out while mu_ is still held: done_ may grow
  // (and rebalance its tree) the moment the lock drops.
  return done_.at(id);
}

std::vector<JobResult> SolveServer::drain() {
  MutexLock lock(mu_);
  while (done_.size() != stats_.submitted) cv_done_.wait(mu_);
  std::vector<JobResult> all;
  all.reserve(done_.size());
  for (const auto& [id, res] : done_) all.push_back(res);
  return all;
}

SolveServer::Stats SolveServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::vector<TracedJob> SolveServer::traced_jobs() const {
  MutexLock lock(mu_);
  std::vector<TracedJob> jobs;
  jobs.reserve(done_.size());
  // done_ is keyed by job id, so iteration is submission order.
  for (const auto& [id, res] : done_)
    jobs.push_back(TracedJob{id, res.name, res.trace});
  return jobs;
}

void SolveServer::dump_flight(const char* trigger) {
  metrics_.counter_add("cellsweep_flightrec_dumps_total",
                       std::string("trigger=\"") + trigger + "\"", 1.0,
                       "Flight-recorder dumps, by trigger");
  if (cfg_.flight_recorder_path.empty()) return;
  const int seq = dump_seq_.fetch_add(1);
  const std::string path = cfg_.flight_recorder_path + "-" +
                           std::to_string(HostClock::wall_ms()) + "-" +
                           std::to_string(seq) + ".json";
  std::ofstream out(path);
  if (out) recorder_.dump(out);
}

namespace {

/// One single-entry family for the derived (non-registry) stats.
MetricsRegistry::Family derived_family(const std::string& name,
                                       MetricType type, const char* help,
                                       double value) {
  MetricsRegistry::Family f;
  f.name = name;
  f.type = type;
  f.help = help;
  MetricsRegistry::Entry e;
  e.value = value;
  f.entries.push_back(std::move(e));
  return f;
}

}  // namespace

MetricsRegistry::Snapshot SolveServer::metrics_snapshot() const {
  MetricsRegistry::Snapshot snap = metrics_.snapshot();

  // Families derived from the component stats at call time, so one
  // snapshot covers the whole server without the components having to
  // push into the registry on their hot paths.
  const SpeAllocator::Stats as = alloc_.stats();
  const PlanCache::Stats cs = cache_.stats();
  const util::ThreadPool::Telemetry pt = pool_.telemetry();
  std::vector<MetricsRegistry::Family> extra;
  extra.push_back(derived_family("cellsweep_spe_claims_total",
                                 MetricType::kCounter,
                                 "SPE allocator claim() grants",
                                 static_cast<double>(as.claims)));
  extra.push_back(derived_family("cellsweep_spe_expands_total",
                                 MetricType::kCounter,
                                 "SPE claims grown after pressure passed",
                                 static_cast<double>(as.expands)));
  extra.push_back(derived_family("cellsweep_spe_shrinks_total",
                                 MetricType::kCounter,
                                 "SPE claims shrunk (yields and releases)",
                                 static_cast<double>(as.shrinks)));
  extra.push_back(derived_family("cellsweep_spe_waited_claims_total",
                                 MetricType::kCounter,
                                 "SPE claims that had to block",
                                 static_cast<double>(as.waited_claims)));
  extra.push_back(derived_family("cellsweep_spe_peak_tenants",
                                 MetricType::kGauge,
                                 "Most simultaneous SPE claim holders",
                                 static_cast<double>(as.peak_tenants)));
  {
    MetricsRegistry::Family f;
    f.name = "cellsweep_spe_claim_wait_seconds";
    f.type = MetricType::kHistogram;
    f.help = "Host seconds claim() calls spent blocked";
    MetricsRegistry::Entry e;
    e.hist = as.claim_wait_s;
    f.entries.push_back(std::move(e));
    extra.push_back(std::move(f));
  }
  extra.push_back(derived_family("cellsweep_plan_cache_hits_total",
                                 MetricType::kCounter, "Plan-cache hits",
                                 static_cast<double>(cs.hits)));
  extra.push_back(derived_family("cellsweep_plan_cache_misses_total",
                                 MetricType::kCounter, "Plan-cache misses",
                                 static_cast<double>(cs.misses)));
  extra.push_back(derived_family("cellsweep_pool_forks_total",
                                 MetricType::kCounter,
                                 "Host-pool parallel_for dispatches",
                                 static_cast<double>(pt.forks)));
  extra.push_back(derived_family("cellsweep_pool_items_total",
                                 MetricType::kCounter,
                                 "Host-pool work items dispatched",
                                 static_cast<double>(pt.items)));
  extra.push_back(derived_family("cellsweep_pool_peak_fork_queue",
                                 MetricType::kGauge,
                                 "Most concurrent host-pool fork callers",
                                 static_cast<double>(pt.peak_fork_queue)));
  extra.push_back(derived_family("cellsweep_pool_utilization",
                                 MetricType::kGauge,
                                 "Busy fraction of host-pool capacity "
                                 "while forks were live",
                                 pool_.utilization()));
  extra.push_back(derived_family("cellsweep_flightrec_dropped_total",
                                 MetricType::kCounter,
                                 "Events aged out of the flight recorder",
                                 static_cast<double>(recorder_.dropped())));

  // Merge, keeping the sorted-by-name snapshot contract. Derived names
  // never collide with registry names by construction.
  for (MetricsRegistry::Family& f : extra)
    snap.families.push_back(std::move(f));
  std::sort(snap.families.begin(), snap.families.end(),
            [](const MetricsRegistry::Family& a,
               const MetricsRegistry::Family& b) { return a.name < b.name; });
  return snap;
}

void write_server_metrics_json(std::ostream& os, const SolveServer& server) {
  const SolveServer::Stats st = server.stats();
  const PlanCache::Stats cs = server.plan_cache_stats();
  const SpeAllocator::Stats as = server.allocator_stats();
  const util::ThreadPool::Telemetry pt = server.pool_telemetry();
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n  \"server\": {\n"
     << "    \"stats\": {\"submitted\": " << st.submitted
     << ", \"completed\": " << st.completed << ", \"failed\": " << st.failed
     << ", \"rejected\": " << st.rejected
     << ", \"cancelled\": " << st.cancelled << "},\n"
     << "    \"plan_cache\": {\"hits\": " << cs.hits
     << ", \"misses\": " << cs.misses << "},\n"
     << "    \"spe_allocator\": {\"claims\": " << as.claims
     << ", \"expands\": " << as.expands << ", \"shrinks\": " << as.shrinks
     << ", \"waited_claims\": " << as.waited_claims
     << ", \"peak_tenants\": " << as.peak_tenants << "},\n"
     << "    \"host_pool\": {\"forks\": " << pt.forks
     << ", \"items\": " << pt.items
     << ", \"peak_fork_queue\": " << pt.peak_fork_queue
     << ", \"utilization\": " << util::cformat("%.6f", server.pool_utilization())
     << "},\n"
     << "    \"flight_recorder\": {\"capacity\": "
     << server.flight_recorder().capacity()
     << ", \"dropped\": " << server.flight_recorder().dropped() << "},\n"
     << "    \"families\": ";
  write_snapshot_json(os, server.metrics_snapshot(), 4);
  os << "\n  }\n}\n";
}

}  // namespace cellsweep::core
