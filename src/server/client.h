/**
 * @file
 * Client library for the compile server: one blocking connection, one
 * typed method per protocol request. Drivers embed this to move their
 * hybrid loop's compilation to a shared daemon without speaking the
 * wire format themselves; the examples' qpc-client is a thin shell
 * around it.
 *
 * Error model: every method returns nullopt/false on failure and
 * leaves the reason in lastError()/lastErrorCode(); a later
 * successful call clears both. A transport failure (peer gone,
 * malformed reply) also drops the connection — call connected() to
 * distinguish "request refused" from "link dead".
 *
 * Resilience: with ClientOptions{deadlineMs, maxRetries} set, every
 * request gets a per-frame I/O deadline (a stalled server fails the
 * call instead of blocking the optimizer forever), and a transport
 * failure triggers automatic reconnection with exponential backoff +
 * jitter. Reconnection transparently re-establishes the session: the
 * client caches its tenant name and every prepared circuit, re-runs
 * Hello and PrepareServing against the new connection, and remaps
 * plan ids — so the plan ids callers hold stay valid across a server
 * restart and serve() is retry-safe for a long optimizer loop.
 * Definitive refusals (quota, bad request, unknown plan) are never
 * retried; Busy shedding and transport errors are. clientStats()
 * reports the retry/timeout/reconnect counts and the reconnect
 * latency distribution.
 */

#ifndef QPC_SERVER_CLIENT_H
#define QPC_SERVER_CLIENT_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pulse/schedule.h"
#include "server/protocol.h"
#include "telemetry/histogram.h"

namespace qpc {

/** Resilience knobs of one CompileClient. */
struct ClientOptions
{
    /**
     * Per-request I/O deadline in milliseconds: every frame write and
     * read must complete within this budget or the call fails (and
     * the connection drops, since frame sync is lost). 0 = block
     * forever (legacy behavior).
     */
    int deadlineMs = 0;
    /**
     * Transport-failure retries per request (0 = fail fast). Each
     * retry reconnects and re-establishes the session first when the
     * link is down. Server refusals other than Busy never retry.
     */
    int maxRetries = 0;
    /** First retry backoff; doubles per attempt. */
    int backoffBaseMs = 10;
    /** Backoff ceiling. */
    int backoffMaxMs = 1000;
    /**
     * Re-dial + re-Hello + re-PrepareServing on a dead link before a
     * retryable request. Off = a dropped connection fails every later
     * call until the caller reconnects explicitly.
     */
    bool reconnect = true;
};

/** Counters a resilient caller (or the CI smoke) inspects. */
struct ClientStats
{
    std::uint64_t retries = 0;       ///< Requests re-sent after a failure.
    std::uint64_t timeouts = 0;      ///< Frames that hit the deadline.
    std::uint64_t reconnects = 0;    ///< Sessions re-established.
    std::uint64_t reconnectFailures = 0; ///< Re-dials that failed.
    std::uint64_t plansRemapped = 0; ///< Plans re-prepared on reconnect.
    std::uint64_t busyRejections = 0; ///< Busy sheds observed.
    /** Latency of each successful session re-establishment
     * (dial + Hello + every re-PrepareServing). */
    HistogramSnapshot reconnectNs;
};

/** A blocking client connection to one compile server. */
class CompileClient
{
  public:
    explicit CompileClient(ClientOptions options = {});
    ~CompileClient();

    CompileClient(const CompileClient&) = delete;
    CompileClient& operator=(const CompileClient&) = delete;

    /** Connect over a unix-domain socket. Resets the cached session
     * (tenant, plans): a new endpoint is a new session. */
    bool connectUnix(const std::string& path);
    /** Connect over loopback TCP (TCP_NODELAY set). Resets the
     * cached session. */
    bool connectTcp(int port);
    bool connected() const { return fd_ >= 0; }
    void close();

    /** The server's HelloOk: tenant identity plus its quota terms. */
    struct HelloReply
    {
        std::uint32_t tenantId = 0;
        std::uint64_t maxPlans = 0;
        std::uint64_t maxServedBytes = 0;
        std::uint64_t maxConcurrentBulk = 0;
        /** The server's calibration epoch at connect. */
        std::uint64_t epochCounter = 0;
        std::uint64_t epochModelHash = 0;
    };
    /** Identify this connection's tenant; required before any
     * plan-scoped request. The name is cached for reconnection. */
    std::optional<HelloReply> hello(const std::string& tenant);

    struct PrepareReply
    {
        std::uint64_t planId = 0;
        std::uint32_t numFixedBlocks = 0;
        std::uint32_t numParamGates = 0;
    };
    /**
     * Upload a variational template; the server partitions and
     * prepares it for serving. The circuit is cached so a reconnect
     * can re-prepare it; the returned planId stays valid across
     * reconnects (the client remaps it to the new server-side id).
     */
    std::optional<PrepareReply> prepareServing(const Circuit& circuit);

    struct PrewarmReply
    {
        std::uint32_t uniqueBlocks = 0;
        std::uint64_t synthRuns = 0;
        std::uint64_t cacheHits = 0;
        double wallSeconds = 0.0;
    };
    /** Bulk-warm a plan: Fixed blocks plus its quantized grid. */
    std::optional<PrewarmReply> prewarm(std::uint64_t plan_id);

    struct ServeReply
    {
        double pulseNs = 0.0;
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t quantHits = 0;
        std::uint64_t quantMisses = 0;
        std::uint64_t exactServes = 0;
        double quantErrorBound = 0.0;
        /** Epoch the serving plan is keyed to. Lags the server epoch
         * between a BumpEpoch and that plan's re-key; comparing it to
         * HelloReply::epochCounter detects mid-flight calibration
         * drift. */
        std::uint64_t epochCounter = 0;
        std::uint32_t numSegments = 0;
        /** Decoded pulse segments; empty unless want_pulses. */
        std::vector<PulseSchedule> pulses;
    };
    /** Serve one parameter binding of a prepared plan. */
    std::optional<ServeReply> serve(std::uint64_t plan_id,
                                    const std::vector<double>& theta,
                                    bool want_pulses = false);

    /** Snapshot the server's metric registry (counters, gauges, and
     * latency histograms) — render with renderPrometheus(). */
    std::optional<MetricsSnapshot> metrics();

    /** Ask the server to shut down; true on an acknowledged stop.
     * Never retried (a lost ack must not re-kill a fresh server). */
    bool shutdownServer();

    struct BumpEpochReply
    {
        std::uint64_t newCounter = 0;
        std::uint64_t modelHash = 0;
        std::uint32_t plansRekeyed = 0;
    };
    /**
     * Advance the server's calibration epoch (recalibration landed):
     * every plan is re-keyed and re-prewarmed server-side while serves
     * continue. model_hash 0 keeps the current device-model hash.
     * Never retried — a lost ack must not double-bump.
     */
    std::optional<BumpEpochReply>
    bumpEpoch(std::uint64_t model_hash = 0);

    /**
     * Raw exchange: send one payload, read one reply payload. The
     * fuzz tests use this to push hostile bytes through a real
     * connection; nullopt means the transport died (or the deadline
     * expired). Never retried.
     */
    std::optional<std::vector<std::uint8_t>>
    roundTrip(const std::vector<std::uint8_t>& payload);

    /** Human-readable reason for the last failed call; empty after a
     * success. */
    const std::string& lastError() const { return lastError_; }
    /** Wire code of the last Error frame (Internal for transport,
     * None after a success). */
    WireError lastErrorCode() const { return lastErrorCode_; }

    /** Retry/timeout/reconnect counters for this client. */
    ClientStats clientStats() const;

    const ClientOptions& options() const { return options_; }

    /** The raw socket (tests inject mid-frame disconnects with it). */
    int fd() const { return fd_; }

  private:
    enum class Endpoint { None, Unix, Tcp };

    /** One cached template: enough to re-prepare after a reconnect. */
    struct CachedPlan
    {
        Circuit circuit;
        std::uint64_t serverPlanId = 0; ///< Id on the *current* server.
    };

    /**
     * Retrying exchange: (re)establish the session if needed, send
     * the payload `build()` produces (rebuilt per attempt so plan-id
     * remaps take effect), read + validate the reply. nullopt (with
     * lastError set) after the attempt budget; an Error frame's
     * code/message land in lastErrorCode()/lastError() and — except
     * for Busy — end the attempt loop immediately.
     */
    std::optional<std::vector<std::uint8_t>>
    request(MsgType want,
            const std::function<std::vector<std::uint8_t>()>& build,
            bool retryable = true);

    /** One deadline-bounded write+read; drops the connection and
     * sets lastError on failure. */
    std::optional<std::vector<std::uint8_t>>
    exchangeOnce(const std::vector<std::uint8_t>& payload);

    /** exchangeOnce + header/Error validation, no retry — the
     * building block reestablish() uses to avoid recursion. */
    std::optional<std::vector<std::uint8_t>>
    exchangeExpect(MsgType want,
                   const std::vector<std::uint8_t>& payload);

    /** Dial the cached endpoint (socket + connect + NODELAY). */
    bool dial();

    /** Dial, re-Hello the cached tenant, re-PrepareServing every
     * cached circuit and remap its server plan id. */
    bool reestablish();

    /** Exponential backoff with jitter before retry `attempt`. */
    void backoffSleep(int attempt);

    /** Caller plan id -> current server plan id (identity until a
     * reconnect remaps). Unknown ids pass through so the server can
     * answer NotFound itself. */
    std::uint64_t mappedPlanId(std::uint64_t plan_id) const;

    bool fail(WireError code, const std::string& message);
    void clearError();
    void resetSession();

    ClientOptions options_;
    int fd_ = -1;
    std::string lastError_;
    WireError lastErrorCode_ = WireError::None;
    /** Whether the last failure may succeed on retry (transport,
     * timeout, Busy) vs a definitive server refusal. */
    bool retryableFailure_ = true;

    Endpoint endpoint_ = Endpoint::None;
    std::string unixPath_;
    int tcpPort_ = 0;

    std::string tenant_;
    bool haveTenant_ = false;
    /** Keyed by the caller-visible plan id. */
    std::map<std::uint64_t, CachedPlan> plans_;

    ClientStats stats_;
    LatencyHistogram reconnectNs_;
    Rng jitter_;
};

} // namespace qpc

#endif // QPC_SERVER_CLIENT_H
