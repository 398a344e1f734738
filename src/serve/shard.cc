#include "serve/shard.hh"

#include <chrono>
#include <unordered_map>

#include "analysis/formulas.hh"
#include "analysis/metrics.hh"
#include "base/error.hh"
#include "base/logging.hh"
#include "engine/registry.hh"
#include "mat/ops.hh"

namespace sap {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMicros(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     t0)
        .count();
}

/**
 * Request validation that *reports* instead of throwing: the
 * engine-kind match plus exactly EnginePlan::check() — the serve
 * path reuses the library's own validation seam, so the two can
 * never drift apart again.
 */
std::string
validateRequest(const SystolicEngine &engine, const EnginePlan &plan)
{
    if (plan.kind != engine.kind())
        return "engine '" + engine.name() + "' serves " +
               problemKindName(engine.kind()) + " but the request is " +
               problemKindName(plan.kind);
    return plan.check();
}

ShapeKey
shapeKeyOf(const std::string &engine_name, const EnginePlan &plan)
{
    ShapeKey key;
    key.engine = engine_name;
    key.kind = plan.kind;
    key.rows = plan.a.rows();
    key.cols = plan.a.cols();
    key.outCols =
        plan.kind == ProblemKind::MatMul ? plan.bmat.cols() : 0;
    key.w = plan.w;
    key.mode = plan.mode;
    return key;
}

/**
 * Exact comparison against the host oracle. Trisolve requests
 * divide, so cross-checked workloads should keep the intermediates
 * representable (e.g. unit-diagonal integer systems); the tolerance
 * hook for real-valued workloads is the ROADMAP float item.
 */
bool
matchesOracle(const EnginePlan &plan, const EngineRunResult &r)
{
    if (plan.kind == ProblemKind::MatMul)
        return r.c == matMulAdd(plan.a, plan.bmat, plan.e);
    Vec<Scalar> gold = plan.kind == ProblemKind::MatVec
        ? matVec(plan.a, plan.x, plan.b)
        : forwardSolve(plan.a, plan.b);
    return r.y.size() == gold.size() && maxAbsDiff(r.y, gold) == 0.0;
}

/** One instance of every registered engine, by name. */
std::map<std::string, std::unique_ptr<SystolicEngine>>
makeEngineTable()
{
    std::map<std::string, std::unique_ptr<SystolicEngine>> table;
    for (const std::string &name : engineNames())
        table.emplace(name, makeEngine(name));
    return table;
}

/**
 * True when two requests bind identical plans: same engine, kind,
 * array size, and byte-identical bound matrices (sameDenseBytes, the
 * byte semantics of the plan cache's check). This is the backstop
 * behind digest-keyed batch grouping — two requests whose digests
 * collide must not share a prepared plan.
 */
bool
sameBinding(const ServeRequest &a, const ServeRequest &b)
{
    return a.engine == b.engine && a.plan.kind == b.plan.kind &&
           a.plan.w == b.plan.w && sameDenseBytes(a.plan.a, b.plan.a) &&
           (a.plan.kind != ProblemKind::MatMul ||
            sameDenseBytes(a.plan.bmat, b.plan.bmat));
}

/**
 * The paper's closed-form cycle count for @p plan on @p engine_name
 * (§4–§5 via analysis/formulas.hh), or -1 when no formula covers the
 * engine (grouped/spiral/no-feedback have extra scheduling slack the
 * closed forms do not model). Feeds the measured-vs-analytic drift
 * gauge: continuous serving-time evidence that the simulators still
 * track the formulas.
 */
Cycle
formulaCycles(const std::string &engine_name, const EnginePlan &plan)
{
    const Index w = plan.w;
    if (w <= 0)
        return -1;
    auto bar = [w](Index n) { return (n + w - 1) / w; };
    if (engine_name == "linear")
        return formulas::tMatVec(w, bar(plan.a.rows()),
                                 bar(plan.a.cols()));
    if (engine_name == "overlapped")
        return formulas::tMatVecOverlap(w, bar(plan.a.rows()),
                                        bar(plan.a.cols()));
    if (engine_name == "hex")
        return formulas::tMatMul(w, bar(plan.a.cols()),
                                 bar(plan.a.rows()),
                                 bar(plan.bmat.cols()));
    if (engine_name == "mesh")
        return formulas::tMesh(w, bar(plan.a.cols()),
                               bar(plan.a.rows()),
                               bar(plan.bmat.cols()));
    if (engine_name == "tri")
        return formulas::tTriSolve(w, bar(plan.a.rows()));
    return -1;
}

} // namespace

Shard::Shard(const Options &opts)
    : opts_(opts), cache_(opts.planCacheCapacity),
      engines_(makeEngineTable()), pool_(opts.threads)
{
    if (opts_.metrics) {
        metrics_ = std::make_unique<MetricsRegistry>();
        inst_.requests = &metrics_->counter("serve_requests_total");
        inst_.failures = &metrics_->counter("serve_failures_total");
        inst_.crossCheckFailures =
            &metrics_->counter("serve_cross_check_failures_total");
        inst_.modeCounts[0] =
            &metrics_->counter("serve_mode_simulate_total");
        inst_.modeCounts[1] =
            &metrics_->counter("serve_mode_fast_total");
        inst_.modeCounts[2] =
            &metrics_->counter("serve_mode_validate_total");
        inst_.queueDepth =
            &metrics_->gauge("serve_queue_depth", GaugeAgg::Sum);
        inst_.cyclesDrift = &metrics_->gauge(
            "serve_cycles_formula_drift", GaugeAgg::Max);
        inst_.queueWait =
            &metrics_->histogram("serve_queue_wait_micros");
        inst_.latency = &metrics_->histogram("serve_latency_micros");
    }
}

void
Shard::noteEnqueued(std::size_t n)
{
    if (inst_.queueDepth)
        inst_.queueDepth->add(static_cast<double>(n));
}

void
Shard::noteDequeued(Clock::time_point enqueuedAt,
                    const std::shared_ptr<RequestTrace> &trace,
                    std::size_t n)
{
    traceStamp(trace, TraceStage::Dequeue);
    if (inst_.queueDepth)
        inst_.queueDepth->add(-static_cast<double>(n));
    if (inst_.queueWait)
        inst_.queueWait->record(elapsedMicros(enqueuedAt));
}

std::future<ServeResponse>
Shard::submit(ServeRequest req)
{
    // No digest hint: hash on the worker (inside handle), keeping
    // the submitting client thread free of O(rows·cols) work.
    const Clock::time_point tq = Clock::now();
    noteEnqueued();
    auto task = std::make_shared<std::packaged_task<ServeResponse()>>(
        [this, req = std::move(req), tq]() {
            noteDequeued(tq, req.trace);
            return handle(req);
        });
    std::future<ServeResponse> fut = task->get_future();
    pool_.post([task] { (*task)(); });
    return fut;
}

std::future<ServeResponse>
Shard::submit(ServeRequest req, Digest digest)
{
    const Clock::time_point tq = Clock::now();
    noteEnqueued();
    auto task = std::make_shared<std::packaged_task<ServeResponse()>>(
        [this, req = std::move(req), digest, tq]() {
            noteDequeued(tq, req.trace);
            return handle(req, digest);
        });
    std::future<ServeResponse> fut = task->get_future();
    pool_.post([task] { (*task)(); });
    return fut;
}

void
Shard::submitAsync(ServeRequest req, CompletionFn done)
{
    SAP_ASSERT(done, "submitAsync() needs a completion callback");
    // One shared holder: std::function requires copyable targets,
    // and the request is worth not copying per post. As with
    // submit(), hashing happens on the worker.
    const Clock::time_point tq = Clock::now();
    noteEnqueued();
    auto job = std::make_shared<std::pair<ServeRequest, CompletionFn>>(
        std::move(req), std::move(done));
    pool_.post([this, job, tq] {
        noteDequeued(tq, job->first.trace);
        job->second(handle(job->first));
    });
}

void
Shard::submitAsync(ServeRequest req, CompletionFn done, Digest digest)
{
    SAP_ASSERT(done, "submitAsync() needs a completion callback");
    const Clock::time_point tq = Clock::now();
    noteEnqueued();
    auto job = std::make_shared<std::pair<ServeRequest, CompletionFn>>(
        std::move(req), std::move(done));
    pool_.post([this, job, digest, tq] {
        noteDequeued(tq, job->first.trace);
        job->second(handle(job->first, digest));
    });
}

std::vector<std::future<ServeResponse>>
Shard::submitBatch(std::vector<ServeRequest> reqs)
{
    std::vector<std::pair<ServeRequest, Digest>> keyed;
    keyed.reserve(reqs.size());
    for (ServeRequest &req : reqs) {
        Digest digest = planDigest(req.engine, req.plan);
        keyed.emplace_back(std::move(req), digest);
    }
    return submitBatch(std::move(keyed));
}

std::vector<std::future<ServeResponse>>
Shard::submitBatch(std::vector<std::pair<ServeRequest, Digest>> reqs)
{
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(reqs.size());

    // Partition by plan digest; serveGroup() re-checks exact binding
    // equality, so a digest collision degrades to individual service
    // rather than a shared (wrong) plan.
    std::unordered_map<Digest, std::shared_ptr<std::vector<Job>>>
        groups;
    std::vector<std::pair<Digest, std::shared_ptr<std::vector<Job>>>>
        post_order;
    for (auto &keyed : reqs) {
        Job job;
        job.req = std::move(keyed.first);
        futures.push_back(job.promise.get_future());
        std::shared_ptr<std::vector<Job>> &group =
            groups[keyed.second];
        if (!group) {
            group = std::make_shared<std::vector<Job>>();
            post_order.emplace_back(keyed.second, group);
        }
        group->push_back(std::move(job));
    }
    const Clock::time_point tq = Clock::now();
    noteEnqueued(reqs.size());
    for (const auto &entry : post_order) {
        const Digest digest = entry.first;
        const std::shared_ptr<std::vector<Job>> group = entry.second;
        pool_.post([this, digest, group, tq] {
            // The whole group leaves the queue when its worker picks
            // it up; per-job Dequeue stamps happen in serveGroup().
            noteDequeued(tq, nullptr, group->size());
            serveGroup(digest, *group);
        });
    }
    return futures;
}

const SystolicEngine *
Shard::engineFor(const std::string &name) const
{
    auto it = engines_.find(name);
    return it == engines_.end() ? nullptr : it->second.get();
}

ServeResponse
Shard::handle(const ServeRequest &req)
{
    return handle(req, planDigest(req.engine, req.plan));
}

ServeResponse
Shard::handle(const ServeRequest &req, Digest digest)
{
    const Clock::time_point t0 = Clock::now();
    const SystolicEngine *engine = engineFor(req.engine);
    if (!engine) {
        ServeResponse resp =
            fail("unknown engine '" + req.engine + "'", t0);
        resp.trace = req.trace;
        return resp;
    }
    std::string error = validateRequest(*engine, req.plan);
    if (!error.empty()) {
        ServeResponse resp = fail(std::move(error), t0);
        resp.trace = req.trace;
        return resp;
    }

    // Preparation and execution can fail recoverably (a singular
    // triangular system, a validate-mode divergence): an error
    // response, not a dead shard.
    try {
        PlanCache::Prepared cached =
            cache_.prepare(*engine, req.plan, digest);
        if (req.trace) {
            req.trace->stamp(TraceStage::Prepare);
            req.trace->cacheHit = cached.hit;
        }
        ServeResponse resp =
            finish(req, *engine, *cached.plan, cached.hit, t0);
        resp.trace = req.trace;
        return resp;
    } catch (const EngineError &e) {
        ServeResponse resp = fail(e.what(), t0);
        resp.trace = req.trace;
        return resp;
    }
}

ServeResponse
Shard::fail(std::string error, Clock::time_point t0)
{
    ServeResponse resp;
    resp.error = std::move(error);
    stats_.recordFailure();
    if (inst_.failures)
        inst_.failures->add();
    resp.latencyMicros = elapsedMicros(t0);
    return resp;
}

ServeResponse
Shard::finish(const ServeRequest &req, const SystolicEngine &engine,
              const PreparedPlan &prepared, bool cacheHit,
              Clock::time_point t0)
{
    ServeResponse resp;
    resp.cacheHit = cacheHit;
    resp.result =
        engine.runPrepared(prepared, EngineInputs::of(req.plan));
    resp.ok = true;
    traceStamp(req.trace, TraceStage::Execute);

    if (req.crossCheck || opts_.crossCheckAll) {
        resp.crossCheckOk = matchesOracle(req.plan, resp.result);
        if (!resp.crossCheckOk) {
            stats_.recordCrossCheckFailure();
            if (inst_.crossCheckFailures)
                inst_.crossCheckFailures->add();
        }
    }

    resp.latencyMicros = elapsedMicros(t0);
    const ShapeKey shape = shapeKeyOf(req.engine, req.plan);
    stats_.record(shape, cacheHit, resp.result.stats.cycles,
                  resp.latencyMicros);
    if (metrics_) {
        inst_.requests->add();
        inst_.latency->record(resp.latencyMicros);
        const auto mode = static_cast<std::size_t>(req.plan.mode);
        if (mode < 3)
            inst_.modeCounts[mode]->add();
        // Measured-vs-analytic drift: how far the served cycle count
        // strayed from the paper's closed form for this engine/shape
        // (Max-aggregated — the gauge reports the worst case seen).
        const Cycle predicted = formulaCycles(req.engine, req.plan);
        if (predicted > 0)
            inst_.cyclesDrift->setMax(relDiff(
                static_cast<double>(resp.result.stats.cycles),
                static_cast<double>(predicted)));
    }
    if (req.trace) {
        req.trace->label = shape.label();
        req.trace->kind = problemKindName(req.plan.kind);
        req.trace->cacheHit = cacheHit;
    }
    return resp;
}

void
Shard::serveGroup(Digest digest, std::vector<Job> &jobs)
{
    // The first valid request is the leader: it pays the (possibly
    // cached) prepare, and every follower with identical bindings
    // rides the same plan as a reported cache hit. Malformed
    // requests resolve to error responses without blocking the
    // group; digest collisions fall back to individual service.
    const Job *leader = nullptr;
    const SystolicEngine *leader_engine = nullptr;
    std::shared_ptr<const PreparedPlan> shared_plan;

    for (Job &job : jobs) {
        const ServeRequest &req = job.req;
        const Clock::time_point t0 = Clock::now();
        traceStamp(req.trace, TraceStage::Dequeue);

        if (leader && sameBinding(leader->req, req)) {
            // Followers still need operand validation: sameBinding()
            // covers only the bound matrices, and a malformed x/b/e
            // must become an error response, not an engine assert.
            std::string error =
                validateRequest(*leader_engine, req.plan);
            if (!error.empty()) {
                job.promise.set_value(fail(std::move(error), t0));
                continue;
            }
            try {
                job.promise.set_value(finish(req, *leader_engine,
                                             *shared_plan,
                                             /*cacheHit=*/true, t0));
            } catch (const EngineError &e) {
                job.promise.set_value(fail(e.what(), t0));
            }
            continue;
        }
        if (leader) {
            // Digest collision: a different binding in this group.
            job.promise.set_value(handle(req));
            continue;
        }

        const SystolicEngine *engine = engineFor(req.engine);
        if (!engine) {
            job.promise.set_value(
                fail("unknown engine '" + req.engine + "'", t0));
            continue;
        }
        std::string error = validateRequest(*engine, req.plan);
        if (!error.empty()) {
            job.promise.set_value(fail(std::move(error), t0));
            continue;
        }
        try {
            PlanCache::Prepared cached =
                cache_.prepare(*engine, req.plan, digest);
            leader = &job;
            leader_engine = engine;
            shared_plan = cached.plan;
            job.promise.set_value(
                finish(req, *engine, *shared_plan, cached.hit, t0));
        } catch (const EngineError &e) {
            job.promise.set_value(fail(e.what(), t0));
        }
    }
}

ServerStats
Shard::stats() const
{
    return stats(/*include_samples=*/false);
}

ServerStats
Shard::stats(bool include_samples) const
{
    PlanCacheStats cache_stats = cache_.stats();
    return stats_.snapshot(&cache_stats, include_samples);
}

MetricsSnapshot
Shard::metricsSnapshot() const
{
    if (!metrics_)
        return {};
    MetricsSnapshot snap = metrics_->snapshot();
    // The plan cache keeps its own counters; inject them here rather
    // than double-count on the request path.
    const PlanCacheStats cache_stats = cache_.stats();
    snap.counters["plan_cache_hits_total"] = cache_stats.hits;
    snap.counters["plan_cache_misses_total"] = cache_stats.misses;
    snap.counters["plan_cache_evictions_total"] =
        cache_stats.evictions;
    snap.counters["plan_cache_collisions_total"] =
        cache_stats.collisions;
    return snap;
}

double
Shard::queueDepth() const
{
    return inst_.queueDepth ? inst_.queueDepth->value() : 0;
}

} // namespace sap
