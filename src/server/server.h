/**
 * @file
 * The multi-tenant compile server daemon core.
 *
 * Promotes the in-process CompileService to a long-running network
 * service: clients connect over a unix-domain socket (TCP behind a
 * flag), identify a tenant with Hello, upload a variational template
 * with PrepareServing, warm it with Prewarm, and then run their hybrid
 * loop through Serve — every tenant sharing one content-addressed
 * pulse cache, so identical blocks across tenants cost one synthesis
 * total.
 *
 * Multi-tenant fairness layers on the PR 4 resource bounds:
 *  - per-tenant quotas: a plan-count cap, a served-bytes (egress)
 *    budget, and a concurrent-bulk cap, each refused with a
 *    QuotaExceeded error frame instead of degrading other tenants;
 *  - two request classes: interactive Serve traffic preempts bulk
 *    Prewarm work — a prewarm waits at the PriorityGate until no
 *    serve is pending, so grid warming never sits in front of a
 *    latency-sensitive optimizer iteration;
 *  - observability: the server counts every event once, in its
 *    MetricRegistry; a Metrics frame scrapes that registry together
 *    with the shared ServiceStats/CacheStats (per-tenant hit rates,
 *    served bytes, quota rejections, latency histograms).
 *
 * Failure containment: a malformed frame or body errors that one
 * connection; every other session keeps serving. Shutdown (frame or
 * SIGTERM via requestStop()) drains sessions and joins every thread —
 * the ThreadPool's shutdown-wake submit() semantics make that clean
 * even with producers blocked on a full synthesis queue.
 */

#ifndef QPC_SERVER_SERVER_H
#define QPC_SERVER_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/service.h"
#include "server/protocol.h"
#include "server/snapshot.h"
#include "telemetry/metrics.h"

namespace qpc {

/** Per-tenant fairness bounds (0 = unlimited where noted). */
struct TenantQuota
{
    /** Serving plans a tenant may hold at once. */
    std::uint64_t maxPlans = 64;
    /**
     * Lifetime cap on serialized pulse bytes served to the tenant
     * (0 = unlimited): the egress half of cache-budget attribution,
     * so one hot tenant cannot monopolize the shared compile
     * capacity unmetered. Only replies that carry pulses are billed.
     */
    std::uint64_t maxServedBytes = 0;
    /** Concurrent bulk (Prewarm) requests a tenant may run. */
    std::uint64_t maxConcurrentBulk = 2;
};

/** Configuration of one CompileServer. */
struct CompileServerOptions
{
    /** Unix-domain listen path; empty disables the unix listener. */
    std::string socketPath;
    /**
     * Optional loopback TCP listener: 0 disables, -1 binds an
     * ephemeral port (read it back via boundTcpPort()), otherwise the
     * given port.
     */
    int tcpPort = 0;
    /** listen(2) backlog. */
    int listenBacklog = 64;
    /** The shared compile service every tenant serves through. */
    CompileServiceOptions service;
    /** Quota applied to each tenant. */
    TenantQuota quota;
    /**
     * Serve handling slower than this logs one structured
     * "slow-serve" warn() line with the span breakdown (where the
     * time went: cache probes, synthesis waits, exact synthesis).
     * 0 disables the log.
     */
    std::uint64_t slowServeThresholdUs = 0;
    /**
     * Reap a session whose peer sends nothing for this long (and
     * bound every reply write by the same budget), so a half-open or
     * stalled connection cannot pin a thread + fd forever. 0 = never
     * (legacy blocking reads).
     */
    int idleTimeoutMs = 0;
    /**
     * Live-session cap: a connection past it is shed with a Busy
     * error frame instead of accepted unboundedly (thread-per-
     * connection makes each session a real thread). 0 = unlimited.
     */
    int maxSessions = 0;
    /**
     * stop() grace window for in-flight replies after requestStop()'s
     * read-side shutdown, before remaining session sockets are
     * force-closed.
     */
    int drainTimeoutMs = 5000;
};

/**
 * Two-class admission: interactive serves preempt bulk prewarms.
 * Serves never wait here; a bulk request waits until no serve is
 * pending. Factored out (and exercised directly in tests) because the
 * ordering argument is easiest to make on the gate alone.
 */
class PriorityGate
{
  public:
    /** An interactive request entered the server. Never blocks. */
    void beginServe();
    /** It finished; the last one out releases waiting bulk work. */
    void endServe();
    /**
     * Block a bulk request until no interactive request is pending.
     * Returns false when the gate was stopped instead (shutdown).
     */
    bool waitBulkTurn();
    /** Release every waiter (shutdown path). */
    void stop();

    /** Bulk requests that had to wait at least once. */
    std::uint64_t bulkYields() const;
    /** Interactive requests currently pending. */
    int pendingServes() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    int pendingServes_ = 0;
    std::uint64_t bulkYields_ = 0;
    bool stopped_ = false;
};

/** What restoring a serving snapshot accomplished. */
struct SnapshotRestoreReport
{
    std::size_t plans = 0;          ///< Plans re-prepared.
    std::uint64_t uniqueBlocks = 0; ///< Blocks prewarmed across plans.
    std::uint64_t cacheHits = 0;    ///< Blocks found warm (disk tier).
    std::uint64_t synthRuns = 0;    ///< Blocks synthesized cold.
    double wallSeconds = 0.0;

    /** Warm fraction of the restore's prewarm: ~1.0 when the replica
     * shares (or copied) the fleet's disk tier under the snapshot's
     * epoch; ~0.0 on a cold boot. */
    double
    hitRate() const
    {
        return uniqueBlocks
                   ? static_cast<double>(cacheHits) /
                         static_cast<double>(uniqueBlocks)
                   : 0.0;
    }
};

/** A long-running, multi-tenant compile server. */
class CompileServer
{
  public:
    explicit CompileServer(CompileServerOptions options);
    /** stop()s if still running. */
    ~CompileServer();

    CompileServer(const CompileServer&) = delete;
    CompileServer& operator=(const CompileServer&) = delete;

    /**
     * Bind the configured listeners and start accepting sessions.
     * fatal() on bind/listen failure (daemon startup is user-facing
     * configuration).
     */
    void start();

    /**
     * Initiate shutdown without joining: stops the listeners, wakes
     * the priority gate, and shuts down every live session socket.
     * Safe to call from a session thread (the Shutdown frame handler)
     * or any other; idempotent.
     */
    void requestStop();

    /**
     * Full shutdown: requestStop(), then join the accept loop and
     * every session thread. Must not be called from a session thread.
     * Idempotent; the destructor calls it.
     */
    void stop();

    /** True once requestStop() has been called. */
    bool stopRequested() const;

    /** Block until requestStop() is called (frame, signal, or peer). */
    void waitUntilStopRequested();

    /** Actual TCP port after start() when tcpPort was -1 (else as
     * configured; 0 when the TCP listener is disabled). */
    int boundTcpPort() const;

    /**
     * Snapshot everything a MetricsOk frame carries: the registry's
     * server and per-tenant counters and histograms, plus the levels
     * and shared-service figures read at scrape time (live
     * connections, plans held, service/cache counters, gate yields,
     * serve-path latency distributions) — ready for
     * renderPrometheus() on either end of the wire.
     */
    MetricsSnapshot metricsSnapshot() const;

    const CompileServerOptions& options() const { return options_; }
    CompileService& service() { return service_; }

    /**
     * Capture the serving state a warm replica boot needs: the
     * calibration epoch plus every tenant's plan circuits. Callable on
     * a live server (tenant registry locked per tenant).
     */
    ServingSnapshot snapshotServing() const;

    /**
     * Re-prepare and prewarm a snapshot's plans, adopting its epoch
     * *first* so the minted fingerprints match the disk records the
     * snapshotting fleet wrote. Meant for the window between
     * construction and start(), but safe on a live server too (plans
     * land under their tenants as if prepared over the wire).
     */
    SnapshotRestoreReport restoreServing(const ServingSnapshot& snapshot);

  private:
    /** One tenant's registry entry, shared by all its sessions. */
    struct Tenant
    {
        std::string name;
        std::uint32_t id = 0;

        std::mutex mu; ///< Guards plans / nextPlanId.
        std::uint64_t nextPlanId = 1;
        /** Plans are tenant-scoped: every session of the tenant can
         * serve any plan the tenant prepared. shared_ptr so a serve
         * outlives a concurrent registry mutation. */
        struct PlanEntry
        {
            std::shared_ptr<const ServingPlan> plan;
            int numParams = 0; ///< Theta length serve() must receive.
            /** The template the plan was prepared from, kept so an
             * epoch bump (and snapshotServing) can re-prepare the
             * plan under the new epoch without a client round-trip.
             * shared_ptr: PlanEntry is copied per serve. */
            std::shared_ptr<const Circuit> circuit;
        };
        std::map<std::uint64_t, PlanEntry> plans;

        /** Prewarm requests running now (a level, not a count). */
        std::atomic<std::uint64_t> activeBulk{0};

        /** @name This tenant's metrics, owned by the server's
         * registry and resolved at intern time.
         *  @{ */
        MetricRegistry::Counter* serves = nullptr;
        MetricRegistry::Counter* prewarms = nullptr;
        /** Served segments found warm / synthesized on serve. */
        MetricRegistry::Counter* serveHits = nullptr;
        MetricRegistry::Counter* serveMisses = nullptr;
        /** Serialized pulse bytes served. */
        MetricRegistry::Counter* servedBytes = nullptr;
        MetricRegistry::Counter* quotaRejections = nullptr;
        LatencyHistogram* serveNs = nullptr;
        /** @} */
    };

    /** One live connection. */
    struct Session
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void sessionLoop(Session* session);
    /** Join and close every finished session (registry lock held by
     * caller). */
    void reapFinishedSessionsLocked();

    /** Validate the header, time the dispatch (per-frame-type handle
     * histograms), and delegate; false ends the session. */
    bool handleFrame(Session& session,
                     std::shared_ptr<Tenant>& tenant,
                     const std::vector<std::uint8_t>& payload);

    /** Dispatch one validated request; false ends the session. */
    bool handleRequest(Session& session,
                       std::shared_ptr<Tenant>& tenant, MsgType type,
                       const std::vector<std::uint8_t>& payload);

    std::shared_ptr<Tenant> internTenant(const std::string& name);

    /**
     * Re-prepare every tenant's plans under the service's current
     * epoch and swap them in (pointer swap under the tenant lock;
     * in-flight serves finish against the old plan through their
     * shared_ptr, so serves never fail mid-bump). Returns the number
     * of plans re-keyed and appends the new entries to `rekeyed` for
     * the caller's background rewarm.
     */
    std::uint32_t rekeyPlansForEpoch(
        std::vector<std::shared_ptr<const ServingPlan>>& rekeyed);

    /**
     * Prewarm re-keyed plans on a tracked background thread (bulk
     * class: each plan yields at the priority gate), recording the
     * bump-to-warm recovery latency; serves keep succeeding meanwhile
     * — a missing bin just synthesizes on demand.
     */
    void rewarmPlansAsync(
        std::vector<std::shared_ptr<const ServingPlan>> plans);

    /** Reply write bounded by idleTimeoutMs: a peer that stops
     * reading cannot pin a session thread forever. */
    bool sendFrame(int fd, const std::vector<std::uint8_t>& payload);

    bool sendError(int fd, WireError code, const std::string& message);

    /** Shed one just-accepted connection with a Busy frame
     * (registry lock held by caller). */
    void shedConnection(int fd);

    CompileServerOptions options_;
    CompileService service_;
    PriorityGate gate_;

    /** Every event the server counts: the counters below, the
     * per-frame-type handle histograms, and each tenant's metrics. */
    MetricRegistry registry_;
    MetricRegistry::Counter& connectionsAccepted_;
    /** Malformed frames and bodies seen. */
    MetricRegistry::Counter& protocolErrors_;
    /** accept(2) errors (EMFILE...). */
    MetricRegistry::Counter& acceptFailures_;
    /** Connections shed at session capacity. */
    MetricRegistry::Counter& busyRejections_;
    MetricRegistry::Counter& sessionsReapedIdle_;
    /** Calibration-epoch bumps served (BumpEpoch frames honored). */
    MetricRegistry::Counter& epochBumps_;
    /** Handle-latency histogram per request MsgType (index = type
     * byte), resolved from the registry at construction. */
    LatencyHistogram* handleNs_[64] = {};

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = 0;
    std::thread acceptThread_;
    bool started_ = false;
    bool joined_ = false;

    mutable std::mutex stopMu_;
    std::condition_variable stopCv_;
    std::atomic<bool> stopRequested_{false};

    mutable std::mutex registryMu_;
    std::map<std::string, std::shared_ptr<Tenant>> tenants_;
    std::vector<std::unique_ptr<Session>> sessions_;
    std::uint32_t nextTenantId_ = 1;

    /** Bump-to-rewarmed recovery latency; registry-owned, resolved at
     * construction like the handle histograms. */
    LatencyHistogram* epochRecoveryNs_ = nullptr;
    /** Background rewarm threads started by BumpEpoch; joined in
     * stop() (the gate's stop() unblocks any still waiting). */
    std::mutex rewarmMu_;
    std::vector<std::thread> rewarmThreads_;

    /** Live sessions (a level, read at scrape time). */
    std::atomic<std::uint64_t> connectionsActive_{0};
};

} // namespace qpc

#endif // QPC_SERVER_SERVER_H
