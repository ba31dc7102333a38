#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "partial/strict.h"
#include "pulse/serialize.h"
#include "telemetry/trace.h"

namespace qpc {

namespace {

/** Longest tenant name a Hello may carry. */
constexpr std::size_t kMaxTenantName = 256;
/** Largest theta vector a Serve may carry. */
constexpr std::uint32_t kMaxThetaLen = 1u << 16;
/** How often the accept loop re-checks the stop flag. */
constexpr int kAcceptPollMs = 100;
/** First accept-failure backoff; doubles per consecutive failure. */
constexpr int kAcceptBackoffMinMs = 10;
/** Accept-failure backoff ceiling. */
constexpr int kAcceptBackoffMaxMs = 1000;
/** Write budget for the Busy frame sent to a shed connection. */
constexpr int kShedWriteMs = 100;

void
closeIfOpen(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** The label block on every metric of one tenant. */
std::string
tenantLabels(const std::string& tenant)
{
    return "{tenant=\"" + promLabelEscape(tenant) + "\"}";
}

} // namespace

void
PriorityGate::beginServe()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++pendingServes_;
}

void
PriorityGate::endServe()
{
    std::lock_guard<std::mutex> lock(mu_);
    panicIf(pendingServes_ <= 0, "endServe() without beginServe()");
    if (--pendingServes_ == 0)
        cv_.notify_all();
}

bool
PriorityGate::waitBulkTurn()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (pendingServes_ > 0)
        ++bulkYields_;
    cv_.wait(lock,
             [this] { return stopped_ || pendingServes_ == 0; });
    return !stopped_;
}

void
PriorityGate::stop()
{
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
}

std::uint64_t
PriorityGate::bulkYields() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bulkYields_;
}

int
PriorityGate::pendingServes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pendingServes_;
}

CompileServer::CompileServer(CompileServerOptions options)
    : options_(std::move(options)), service_(options_.service),
      connectionsAccepted_(
          registry_.counter("qpc_server_connections_accepted_total")),
      protocolErrors_(
          registry_.counter("qpc_server_protocol_errors_total")),
      acceptFailures_(
          registry_.counter("qpc_server_accept_failures_total")),
      busyRejections_(
          registry_.counter("qpc_server_busy_rejections_total")),
      sessionsReapedIdle_(
          registry_.counter("qpc_server_sessions_reaped_idle_total")),
      epochBumps_(registry_.counter("qpc_epoch_bumps_total"))
{
    fatalIf(options_.socketPath.empty() && options_.tcpPort == 0,
            "compile server needs a unix socket path or a TCP port");
    // Resolve the per-frame-type handle histograms once, so the
    // per-frame hot path is an array index, not a registry lookup.
    const std::pair<MsgType, const char*> kRequestTypes[] = {
        {MsgType::Hello, "Hello"},
        {MsgType::PrepareServing, "PrepareServing"},
        {MsgType::Prewarm, "Prewarm"},
        {MsgType::Serve, "Serve"},
        {MsgType::Shutdown, "Shutdown"},
        {MsgType::Metrics, "Metrics"},
        {MsgType::BumpEpoch, "BumpEpoch"},
    };
    for (const auto& [type, name] : kRequestTypes)
        handleNs_[static_cast<std::uint8_t>(type)] =
            &registry_.histogram(
                std::string("qpc_server_handle_us{type=\"") + name +
                "\"}");
    epochRecoveryNs_ = &registry_.histogram("qpc_epoch_recovery_us");
}

CompileServer::~CompileServer()
{
    stop();
}

void
CompileServer::start()
{
    panicIf(started_, "start() called twice");
    started_ = true;

    if (!options_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        fatalIf(options_.socketPath.size() >= sizeof(addr.sun_path),
                "unix socket path too long: ", options_.socketPath);
        std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        fatalIf(unixFd_ < 0, "cannot create unix socket: ",
                std::strerror(errno));
        // A stale path from a crashed predecessor must not block a
        // restart; a live server on the path will still make bind
        // fail below.
        ::unlink(options_.socketPath.c_str());
        fatalIf(::bind(unixFd_,
                       reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) != 0,
                "cannot bind ", options_.socketPath, ": ",
                std::strerror(errno));
        fatalIf(::listen(unixFd_, options_.listenBacklog) != 0,
                "cannot listen on ", options_.socketPath, ": ",
                std::strerror(errno));
    }

    if (options_.tcpPort != 0) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        fatalIf(tcpFd_ < 0, "cannot create TCP socket: ",
                std::strerror(errno));
        const int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(options_.tcpPort > 0
                                  ? static_cast<std::uint16_t>(
                                        options_.tcpPort)
                                  : 0);
        fatalIf(::bind(tcpFd_,
                       reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) != 0,
                "cannot bind TCP port ", options_.tcpPort, ": ",
                std::strerror(errno));
        fatalIf(::listen(tcpFd_, options_.listenBacklog) != 0,
                "cannot listen on TCP port: ", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(tcpFd_,
                          reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0)
            boundTcpPort_ = ntohs(bound.sin_port);
    }

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

int
CompileServer::boundTcpPort() const
{
    return boundTcpPort_;
}

void
CompileServer::requestStop()
{
    bool expected = false;
    if (!stopRequested_.compare_exchange_strong(expected, true))
        return;
    {
        std::lock_guard<std::mutex> lock(stopMu_);
        stopCv_.notify_all();
    }
    gate_.stop();
    // Wake every blocked read: shutdown (not close — the fds stay
    // valid until their threads are joined) the listeners and every
    // live session socket.
    if (unixFd_ >= 0)
        ::shutdown(unixFd_, SHUT_RDWR);
    if (tcpFd_ >= 0)
        ::shutdown(tcpFd_, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(registryMu_);
    // Read side only: blocked readers wake with EOF, but a reply
    // already being written still flushes — stop() force-closes
    // whatever is left after the drain window.
    for (const auto& session : sessions_)
        if (session->fd >= 0)
            ::shutdown(session->fd, SHUT_RD);
}

bool
CompileServer::stopRequested() const
{
    return stopRequested_.load(std::memory_order_relaxed);
}

void
CompileServer::waitUntilStopRequested()
{
    std::unique_lock<std::mutex> lock(stopMu_);
    stopCv_.wait(lock, [this] { return stopRequested(); });
}

void
CompileServer::stop()
{
    if (!started_ || joined_)
        return;
    requestStop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::unique_ptr<Session>> sessions;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        sessions.swap(sessions_);
    }
    // Graceful drain: requestStop() only shut the read side, so
    // sessions finish flushing in-flight replies. Give them a bounded
    // window, then force-close writers stuck on a peer that stopped
    // reading — joins below must never hang on one.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() +
        std::chrono::milliseconds(
            options_.drainTimeoutMs > 0 ? options_.drainTimeoutMs : 0);
    for (;;) {
        bool draining = false;
        for (const auto& session : sessions)
            if (session->thread.joinable() &&
                !session->done.load(std::memory_order_acquire))
                draining = true;
        if (!draining || Clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const auto& session : sessions)
        if (!session->done.load(std::memory_order_acquire) &&
            session->fd >= 0)
            ::shutdown(session->fd, SHUT_RDWR);
    for (const auto& session : sessions) {
        if (session->thread.joinable())
            session->thread.join();
        closeIfOpen(session->fd);
    }
    // Rewarm threads last: only session handlers spawn them, so none
    // can appear once every session is joined — and the stopped gate
    // unblocks any still waiting at waitBulkTurn().
    std::vector<std::thread> rewarm;
    {
        std::lock_guard<std::mutex> lock(rewarmMu_);
        rewarm.swap(rewarmThreads_);
    }
    for (std::thread& thread : rewarm)
        if (thread.joinable())
            thread.join();
    closeIfOpen(unixFd_);
    closeIfOpen(tcpFd_);
    if (!options_.socketPath.empty())
        ::unlink(options_.socketPath.c_str());
    joined_ = true;
}

void
CompileServer::reapFinishedSessionsLocked()
{
    auto alive = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            closeIfOpen((*it)->fd);
        } else {
            if (alive != it)
                *alive = std::move(*it);
            ++alive;
        }
    }
    sessions_.erase(alive, sessions_.end());
}

void
CompileServer::acceptLoop()
{
    using Clock = std::chrono::steady_clock;
    int backoff_ms = 0;
    Clock::time_point last_warn{};
    while (!stopRequested()) {
        pollfd fds[2];
        nfds_t n = 0;
        if (unixFd_ >= 0)
            fds[n++] = pollfd{unixFd_, POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[n++] = pollfd{tcpFd_, POLLIN, 0};
        const int ready = ::poll(fds, n, kAcceptPollMs);
        if (stopRequested())
            break;
        if (ready <= 0)
            continue;
        for (nfds_t i = 0; i < n; ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0) {
                const int err = errno;
                // A connection that vanished between poll and accept
                // (or a signal) is routine, not a failure.
                if (err == EINTR || err == EAGAIN ||
                    err == EWOULDBLOCK || err == ECONNABORTED)
                    continue;
                // Persistent failure (EMFILE/ENFILE...): the listener
                // stays readable, so without a backoff this loop
                // busy-polls at 100% CPU until fds free up.
                acceptFailures_.inc();
                const Clock::time_point now = Clock::now();
                if (now - last_warn >= std::chrono::seconds(1)) {
                    last_warn = now;
                    warn("accept failed: ", std::strerror(err),
                         " (backing off ",
                         backoff_ms > 0 ? backoff_ms
                                        : kAcceptBackoffMinMs,
                         " ms)");
                }
                backoff_ms = backoff_ms == 0
                                 ? kAcceptBackoffMinMs
                                 : std::min(backoff_ms * 2,
                                            kAcceptBackoffMaxMs);
                // Sleep in slices so shutdown stays responsive.
                for (int slept = 0;
                     slept < backoff_ms && !stopRequested();
                     slept += kAcceptBackoffMinMs)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(kAcceptBackoffMinMs));
                break;
            }
            backoff_ms = 0;
            if (fds[i].fd == tcpFd_)
                setTcpNoDelay(fd);
            connectionsAccepted_.inc();
            connectionsActive_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(registryMu_);
            // Reap before growing: a long-lived daemon must not hold
            // one dead fd + joinable thread per connection it ever
            // served.
            reapFinishedSessionsLocked();
            if (stopRequested()) {
                // Raced with requestStop() after its fd sweep: this
                // socket would never be shut down, leaving stop()
                // joining a session blocked in read. Refuse it.
                ::close(fd);
                connectionsActive_.fetch_sub(
                    1, std::memory_order_relaxed);
                continue;
            }
            if (options_.maxSessions > 0 &&
                sessions_.size() >=
                    static_cast<std::size_t>(options_.maxSessions)) {
                shedConnection(fd);
                continue;
            }
            sessions_.push_back(std::make_unique<Session>());
            Session* session = sessions_.back().get();
            session->fd = fd;
            session->thread =
                std::thread([this, session] { sessionLoop(session); });
        }
    }
}

void
CompileServer::shedConnection(int fd)
{
    busyRejections_.inc();
    WireWriter w = beginMessage(MsgType::Error);
    w.u32(static_cast<std::uint32_t>(WireError::Busy));
    w.str("server at session capacity");
    FrameError why = FrameError::None;
    writeFrame(fd, w.bytes(), kShedWriteMs, &why);
    // Drain whatever the peer already sent (its Hello, typically):
    // closing a TCP socket with unread data sends RST, which would
    // destroy the Busy frame before the client reads it.
    std::uint8_t sink[512];
    while (::recv(fd, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
    }
    ::close(fd);
    connectionsActive_.fetch_sub(1, std::memory_order_relaxed);
}

void
CompileServer::sessionLoop(Session* session)
{
    std::shared_ptr<Tenant> tenant;
    while (!stopRequested()) {
        FrameError why = FrameError::None;
        std::optional<std::vector<std::uint8_t>> payload =
            readFrame(session->fd, options_.idleTimeoutMs, &why);
        // EOF, disconnect mid-frame, or a hostile length prefix: the
        // framing on this connection cannot be trusted any further, so
        // the session ends — other tenants' sessions are untouched.
        // A deadline expiry is the idle reap: a half-open peer (or
        // one that trickles a partial frame and goes silent) must not
        // hold this thread + fd forever.
        if (!payload) {
            if (why == FrameError::Timeout)
                sessionsReapedIdle_.inc();
            break;
        }
        if (!handleFrame(*session, tenant, *payload))
            break;
    }
    // FIN the peer now (it may be blocked on a reply); the fd itself
    // stays open until the reaper or stop() joins this thread.
    ::shutdown(session->fd, SHUT_RDWR);
    connectionsActive_.fetch_sub(1, std::memory_order_relaxed);
    session->done.store(true, std::memory_order_release);
}

std::shared_ptr<CompileServer::Tenant>
CompileServer::internTenant(const std::string& name)
{
    std::lock_guard<std::mutex> lock(registryMu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end())
        return it->second;
    auto tenant = std::make_shared<Tenant>();
    tenant->name = name;
    tenant->id = nextTenantId_++;
    const std::string labels = tenantLabels(name);
    const auto counter = [&](const char* base) {
        return &registry_.counter(base + labels);
    };
    tenant->serves = counter("qpc_tenant_serves_total");
    tenant->prewarms = counter("qpc_tenant_prewarms_total");
    tenant->serveHits = counter("qpc_tenant_serve_hits_total");
    tenant->serveMisses = counter("qpc_tenant_serve_misses_total");
    tenant->servedBytes = counter("qpc_tenant_served_bytes_total");
    tenant->quotaRejections =
        counter("qpc_tenant_quota_rejections_total");
    tenant->serveNs = &registry_.histogram("qpc_tenant_serve_us" + labels);
    tenants_.emplace(name, tenant);
    return tenant;
}

bool
CompileServer::sendFrame(int fd, const std::vector<std::uint8_t>& payload)
{
    FrameError why = FrameError::None;
    return writeFrame(fd, payload, options_.idleTimeoutMs, &why);
}

bool
CompileServer::sendError(int fd, WireError code,
                         const std::string& message)
{
    WireWriter w = beginMessage(MsgType::Error);
    w.u32(static_cast<std::uint32_t>(code));
    w.str(message);
    return sendFrame(fd, w.bytes());
}

bool
CompileServer::handleFrame(Session& session,
                           std::shared_ptr<Tenant>& tenant,
                           const std::vector<std::uint8_t>& payload)
{
    const std::optional<MsgType> type = peekMessage(payload);
    if (!type) {
        // Unknown version or type: this peer speaks something else;
        // error and hang up rather than guess at its framing.
        protocolErrors_.inc();
        sendError(session.fd, WireError::BadRequest,
                  "unknown protocol version or message type");
        return false;
    }
    const std::uint64_t t0 = traceNowNs();
    const bool keep = handleRequest(session, tenant, *type, payload);
    const std::uint64_t t1 = traceNowNs();
    // Reply types sent as requests land in handleRequest's default
    // arm and have no histogram; every real request type has one.
    const auto index = static_cast<std::uint8_t>(*type);
    if (index < sizeof(handleNs_) / sizeof(handleNs_[0]) &&
        handleNs_[index] != nullptr)
        handleNs_[index]->record(t1 > t0 ? t1 - t0 : 0);
    return keep;
}

bool
CompileServer::handleRequest(Session& session,
                             std::shared_ptr<Tenant>& tenant,
                             MsgType type,
                             const std::vector<std::uint8_t>& payload)
{
    WireReader r(payload);
    r.u8(); // version, validated by peekMessage
    r.u8(); // type

    // A malformed *body* inside a well-framed payload: report and keep
    // the connection (framing is still in sync).
    const auto badBody = [&](const std::string& what) {
        protocolErrors_.inc();
        return sendError(session.fd, WireError::BadRequest, what);
    };

    switch (type) {
    case MsgType::Hello: {
        const std::string name = r.str();
        if (!r.done() || name.empty() || name.size() > kMaxTenantName)
            return badBody("malformed Hello");
        tenant = internTenant(name);
        WireWriter w = beginMessage(MsgType::HelloOk);
        w.u32(tenant->id);
        w.u64(options_.quota.maxPlans);
        w.u64(options_.quota.maxServedBytes);
        w.u64(options_.quota.maxConcurrentBulk);
        const CalibrationEpoch epoch = service_.epoch();
        w.u64(epoch.counter);
        w.u64(epoch.modelHash);
        return sendFrame(session.fd, w.bytes());
    }

    case MsgType::PrepareServing: {
        if (!tenant)
            return sendError(session.fd, WireError::BadRequest,
                             "Hello required before PrepareServing");
        std::optional<Circuit> circuit = decodeCircuit(r);
        if (!circuit || !r.done())
            return badBody("malformed PrepareServing circuit");
        {
            std::lock_guard<std::mutex> lock(tenant->mu);
            if (tenant->plans.size() >= options_.quota.maxPlans) {
                tenant->quotaRejections->inc();
                return sendError(session.fd, WireError::QuotaExceeded,
                                 "tenant plan quota exhausted");
            }
        }
        // Partition + fingerprint outside the tenant lock: this is
        // the expensive half, and other sessions of the tenant must
        // keep serving while it runs.
        Tenant::PlanEntry entry;
        entry.numParams = circuit->numParams();
        entry.circuit = std::make_shared<const Circuit>(*circuit);
        try {
            const StrictPartition partition = strictPartition(*circuit);
            entry.plan = std::make_shared<const ServingPlan>(
                service_.prepareServing(partition));
        } catch (const std::exception& e) {
            return sendError(session.fd, WireError::Internal,
                             e.what());
        }
        std::uint64_t plan_id = 0;
        {
            std::lock_guard<std::mutex> lock(tenant->mu);
            if (tenant->plans.size() >= options_.quota.maxPlans) {
                tenant->quotaRejections->inc();
                return sendError(session.fd, WireError::QuotaExceeded,
                                 "tenant plan quota exhausted");
            }
            plan_id = tenant->nextPlanId++;
            tenant->plans.emplace(plan_id, entry);
        }
        WireWriter w = beginMessage(MsgType::PrepareOk);
        w.u64(plan_id);
        w.u32(static_cast<std::uint32_t>(
            entry.plan->numFixedBlocks()));
        w.u32(static_cast<std::uint32_t>(entry.plan->numParamGates()));
        return sendFrame(session.fd, w.bytes());
    }

    case MsgType::Prewarm: {
        if (!tenant)
            return sendError(session.fd, WireError::BadRequest,
                             "Hello required before Prewarm");
        const std::uint64_t plan_id = r.u64();
        if (!r.done())
            return badBody("malformed Prewarm");
        std::shared_ptr<const ServingPlan> plan;
        {
            std::lock_guard<std::mutex> lock(tenant->mu);
            auto it = tenant->plans.find(plan_id);
            if (it != tenant->plans.end())
                plan = it->second.plan;
        }
        if (!plan)
            return sendError(session.fd, WireError::NotFound,
                             "unknown plan id");
        // Bulk class: bounded per tenant, and it yields to every
        // pending interactive serve before touching the worker pool.
        const std::uint64_t bulk_before =
            tenant->activeBulk.fetch_add(1, std::memory_order_relaxed);
        if (bulk_before >= options_.quota.maxConcurrentBulk) {
            tenant->activeBulk.fetch_sub(1, std::memory_order_relaxed);
            tenant->quotaRejections->inc();
            return sendError(session.fd, WireError::QuotaExceeded,
                             "tenant bulk quota exhausted");
        }
        if (!gate_.waitBulkTurn()) {
            tenant->activeBulk.fetch_sub(1, std::memory_order_relaxed);
            sendError(session.fd, WireError::ShuttingDown,
                      "server is shutting down");
            return false;
        }
        BatchCompileReport fixed, bins;
        try {
            fixed = service_.precompilePlan(*plan);
            bins = service_.prewarmQuantizedBins(*plan);
        } catch (const std::exception& e) {
            tenant->activeBulk.fetch_sub(1, std::memory_order_relaxed);
            return sendError(session.fd, WireError::Internal,
                             e.what());
        }
        tenant->activeBulk.fetch_sub(1, std::memory_order_relaxed);
        tenant->prewarms->inc();
        WireWriter w = beginMessage(MsgType::PrewarmOk);
        w.u32(static_cast<std::uint32_t>(fixed.uniqueBlocks +
                                         bins.uniqueBlocks));
        w.u64(fixed.synthRuns + bins.synthRuns);
        w.u64(fixed.cacheHits + bins.cacheHits);
        w.f64(fixed.wallSeconds + bins.wallSeconds);
        return sendFrame(session.fd, w.bytes());
    }

    case MsgType::Serve: {
        if (!tenant)
            return sendError(session.fd, WireError::BadRequest,
                             "Hello required before Serve");
        const std::uint64_t plan_id = r.u64();
        const bool want_pulses = r.u8() != 0;
        const std::uint32_t n = r.u32();
        if (!r.ok() || n > kMaxThetaLen)
            return badBody("malformed Serve");
        std::vector<double> theta(n);
        for (std::uint32_t i = 0; i < n; ++i)
            theta[i] = r.f64();
        if (!r.done())
            return badBody("malformed Serve");
        for (double t : theta)
            if (!std::isfinite(t))
                return badBody("non-finite theta");
        Tenant::PlanEntry entry;
        {
            std::lock_guard<std::mutex> lock(tenant->mu);
            auto it = tenant->plans.find(plan_id);
            if (it != tenant->plans.end())
                entry = it->second;
        }
        if (!entry.plan)
            return sendError(session.fd, WireError::NotFound,
                             "unknown plan id");
        // Validated here because ParamExpr::bind treats a short theta
        // as a fatal() — a user error must error this request, not
        // take the daemon down.
        if (static_cast<int>(theta.size()) < entry.numParams)
            return badBody("theta shorter than the plan's parameters");
        if (options_.quota.maxServedBytes > 0 &&
            tenant->servedBytes->value() >=
                options_.quota.maxServedBytes) {
            tenant->quotaRejections->inc();
            return sendError(session.fd, WireError::QuotaExceeded,
                             "tenant served-bytes quota exhausted");
        }
        ServedPulse served;
        {
            // The span covers the gate plus the service call, so its
            // children (cache-probe, synthesis-wait, and — through
            // the pool's parent chaining — queue-wait and synthesis)
            // nest under one "serve" per request. The phase capture
            // collects those same child durations for the slow-serve
            // log; it only pays its per-span cost when the knob is
            // actually on.
            TraceSpan span("serve");
            if (span.tracing()) {
                span.arg("tenant", tenant->name);
                span.arg("plan", std::to_string(plan_id));
            }
            std::optional<ScopedPhaseCapture> phases;
            if (options_.slowServeThresholdUs > 0)
                phases.emplace();
            const std::uint64_t t0 = traceNowNs();
            gate_.beginServe();
            try {
                served = service_.serve(*entry.plan, theta);
            } catch (const std::exception& e) {
                gate_.endServe();
                return sendError(session.fd, WireError::Internal,
                                 e.what());
            }
            gate_.endServe();
            const std::uint64_t t1 = traceNowNs();
            const std::uint64_t serve_ns = t1 > t0 ? t1 - t0 : 0;
            tenant->serveNs->record(serve_ns);
            if (phases &&
                serve_ns >= options_.slowServeThresholdUs * 1000) {
                warn("slow-serve tenant=", tenant->name,
                     " plan=", plan_id,
                     " total_us=", serve_ns / 1000,
                     " segments=", served.segments.size(), " ",
                     phases->breakdown().summary());
            }
        }
        // Egress is billed for the pulse bytes the reply carries: a
        // metadata-only reply carries none.
        std::uint64_t bytes = 0;
        if (want_pulses)
            for (const PulsePtr& segment : served.segments)
                bytes += segment->serializedBytes();
        tenant->serves->inc();
        tenant->serveHits->inc(served.cacheHits + served.quantHits);
        tenant->serveMisses->inc(served.cacheMisses +
                                 served.quantMisses +
                                 served.exactServes);
        tenant->servedBytes->inc(bytes);
        WireWriter w = beginMessage(MsgType::ServeOk);
        w.f64(served.pulseNs);
        w.u64(served.cacheHits);
        w.u64(served.cacheMisses);
        w.u64(served.quantHits);
        w.u64(served.quantMisses);
        w.u64(served.exactServes);
        w.f64(served.quantErrorBound);
        // The *plan's* epoch, not the server's: after a bump it lags
        // until rekeyPlansForEpoch swaps the plan, which is exactly
        // the drift a fleet client wants to observe.
        w.u64(entry.plan->epoch().counter);
        w.u32(static_cast<std::uint32_t>(served.segments.size()));
        if (want_pulses)
            for (const PulsePtr& segment : served.segments)
                w.blob(serializePulseSchedule(*segment));
        return sendFrame(session.fd, w.bytes());
    }

    case MsgType::Metrics: {
        if (!r.done()) {
            protocolErrors_.inc();
            return sendError(session.fd, WireError::BadRequest,
                             "malformed Metrics body");
        }
        WireWriter w = beginMessage(MsgType::MetricsOk);
        encodeMetrics(w, metricsSnapshot());
        return sendFrame(session.fd, w.bytes());
    }

    case MsgType::Shutdown: {
        WireWriter w = beginMessage(MsgType::ShutdownOk);
        sendFrame(session.fd, w.bytes());
        // requestStop() is async-safe from this session thread; the
        // join happens in stop() on the daemon's main thread.
        requestStop();
        return false;
    }

    case MsgType::BumpEpoch: {
        const std::uint64_t model_hash = r.u64();
        if (!r.done())
            return badBody("malformed BumpEpoch");
        // Advance the epoch first: every fingerprint minted from here
        // on carries it. Old plans keep serving their old-epoch
        // records (put() stamps by fingerprint epoch) until swapped.
        const CalibrationEpoch epoch = service_.bumpEpoch(model_hash);
        epochBumps_.inc();
        std::vector<std::shared_ptr<const ServingPlan>> rekeyed;
        const std::uint32_t plans_rekeyed = rekeyPlansForEpoch(rekeyed);
        rewarmPlansAsync(std::move(rekeyed));
        WireWriter w = beginMessage(MsgType::BumpEpochOk);
        w.u64(epoch.counter);
        w.u64(epoch.modelHash);
        w.u32(plans_rekeyed);
        return sendFrame(session.fd, w.bytes());
    }

    default:
        // A reply type sent as a request.
        protocolErrors_.inc();
        sendError(session.fd, WireError::BadRequest,
                  "reply type sent as a request");
        return false;
    }
}

std::uint32_t
CompileServer::rekeyPlansForEpoch(
    std::vector<std::shared_ptr<const ServingPlan>>& rekeyed)
{
    // Snapshot the work list under the locks, prepare outside them:
    // re-preparing fingerprints every block of every plan, and serves
    // must keep flowing while that runs.
    struct Item
    {
        std::shared_ptr<Tenant> tenant;
        std::uint64_t planId = 0;
        std::shared_ptr<const Circuit> circuit;
    };
    std::vector<Item> items;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        for (const auto& [name, tenant] : tenants_) {
            std::lock_guard<std::mutex> plan_lock(tenant->mu);
            for (const auto& [id, entry] : tenant->plans)
                if (entry.circuit)
                    items.push_back({tenant, id, entry.circuit});
        }
    }
    std::uint32_t swapped = 0;
    for (Item& item : items) {
        std::shared_ptr<const ServingPlan> plan;
        try {
            const StrictPartition partition =
                strictPartition(*item.circuit);
            plan = std::make_shared<const ServingPlan>(
                service_.prepareServing(partition));
        } catch (const std::exception& e) {
            warn("epoch rekey failed for tenant=", item.tenant->name,
                 " plan=", item.planId, ": ", e.what());
            continue;
        }
        {
            std::lock_guard<std::mutex> plan_lock(item.tenant->mu);
            auto it = item.tenant->plans.find(item.planId);
            // Dropped meanwhile (tenant quota churn): nothing to swap.
            if (it == item.tenant->plans.end())
                continue;
            it->second.plan = plan;
        }
        rekeyed.push_back(std::move(plan));
        ++swapped;
    }
    return swapped;
}

void
CompileServer::rewarmPlansAsync(
    std::vector<std::shared_ptr<const ServingPlan>> plans)
{
    if (plans.empty())
        return;
    const std::uint64_t t0 = traceNowNs();
    std::thread thread([this, plans = std::move(plans), t0] {
        for (const std::shared_ptr<const ServingPlan>& plan : plans) {
            // Bulk class, exactly like a wire Prewarm: every pending
            // interactive serve goes first, and a stopped gate means
            // shutdown — bins left cold just synthesize on demand.
            if (!gate_.waitBulkTurn())
                return;
            try {
                service_.precompilePlan(*plan);
                service_.prewarmQuantizedBins(*plan);
            } catch (const std::exception& e) {
                warn("epoch rewarm failed: ", e.what());
                return;
            }
        }
        const std::uint64_t t1 = traceNowNs();
        epochRecoveryNs_->record(t1 > t0 ? t1 - t0 : 0);
    });
    std::lock_guard<std::mutex> lock(rewarmMu_);
    rewarmThreads_.push_back(std::move(thread));
}

ServingSnapshot
CompileServer::snapshotServing() const
{
    ServingSnapshot snapshot;
    snapshot.epoch = service_.epoch();
    std::lock_guard<std::mutex> lock(registryMu_);
    for (const auto& [name, tenant] : tenants_) {
        std::lock_guard<std::mutex> plan_lock(tenant->mu);
        for (const auto& [id, entry] : tenant->plans)
            if (entry.circuit)
                snapshot.plans.push_back(
                    SnapshotPlan{name, *entry.circuit});
    }
    return snapshot;
}

SnapshotRestoreReport
CompileServer::restoreServing(const ServingSnapshot& snapshot)
{
    SnapshotRestoreReport report;
    const auto start = std::chrono::steady_clock::now();
    // Epoch first: the whole point is that plans prepared below mint
    // the same fingerprints — hence the same disk-tier filenames — as
    // the fleet that wrote the snapshot.
    service_.setEpoch(snapshot.epoch);
    for (const SnapshotPlan& snap_plan : snapshot.plans) {
        std::shared_ptr<Tenant> tenant = internTenant(snap_plan.tenant);
        Tenant::PlanEntry entry;
        entry.numParams = snap_plan.circuit.numParams();
        entry.circuit =
            std::make_shared<const Circuit>(snap_plan.circuit);
        try {
            const StrictPartition partition =
                strictPartition(snap_plan.circuit);
            entry.plan = std::make_shared<const ServingPlan>(
                service_.prepareServing(partition));
            const BatchCompileReport fixed =
                service_.precompilePlan(*entry.plan);
            const BatchCompileReport bins =
                service_.prewarmQuantizedBins(*entry.plan);
            report.uniqueBlocks += fixed.uniqueBlocks +
                                   bins.uniqueBlocks;
            report.cacheHits += fixed.cacheHits + bins.cacheHits;
            report.synthRuns += fixed.synthRuns + bins.synthRuns;
        } catch (const std::exception& e) {
            warn("snapshot restore failed for tenant=",
                 snap_plan.tenant, ": ", e.what());
            continue;
        }
        {
            std::lock_guard<std::mutex> plan_lock(tenant->mu);
            tenant->plans.emplace(tenant->nextPlanId++,
                                  std::move(entry));
        }
        ++report.plans;
    }
    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return report;
}

MetricsSnapshot
CompileServer::metricsSnapshot() const
{
    // The registry holds every event the server counts; what is added
    // here is read once at scrape time: levels, the gate's yields, and
    // the shared service's own counters and histograms.
    MetricsSnapshot out = registry_.collect();
    const auto counter = [&](const char* name, std::uint64_t v) {
        out.counters.push_back({name, v});
    };
    const auto gauge = [&](const std::string& name, double v) {
        out.gauges.push_back({name, v});
    };
    counter("qpc_server_bulk_yields_total", gate_.bulkYields());

    const ServiceStats service = service_.stats();
    counter("qpc_service_requests_total", service.requests);
    counter("qpc_service_cache_hits_total", service.cacheHits);
    counter("qpc_service_coalesced_total", service.coalesced);
    counter("qpc_service_synth_runs_total", service.synthRuns);
    counter("qpc_service_rejected_total", service.rejected);
    counter("qpc_service_exact_serves_total", service.exactServes);
    counter("qpc_service_quant_hits_total", service.quantHits);
    counter("qpc_service_quant_misses_total", service.quantMisses);
    counter("qpc_service_quant_fallbacks_total", service.quantFallbacks);

    const CacheStats cache = service_.cacheStats();
    counter("qpc_cache_lookups_total", cache.lookups);
    counter("qpc_cache_mem_hits_total", cache.hits);
    counter("qpc_cache_disk_hits_total", cache.diskHits);
    counter("qpc_cache_misses_total", cache.misses);
    gauge("qpc_cache_entries", static_cast<double>(cache.entries));
    gauge("qpc_cache_bytes_in_use", static_cast<double>(cache.bytesInUse));

    gauge("qpc_calibration_epoch",
          static_cast<double>(service_.epoch().counter));
    gauge("qpc_server_connections_active",
          static_cast<double>(
              connectionsActive_.load(std::memory_order_relaxed)));
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        for (const auto& [name, tenant] : tenants_) {
            const std::string labels = tenantLabels(name);
            std::size_t plans = 0;
            {
                std::lock_guard<std::mutex> plan_lock(tenant->mu);
                plans = tenant->plans.size();
            }
            gauge("qpc_tenant_plans" + labels,
                  static_cast<double>(plans));
            const std::uint64_t hits = tenant->serveHits->value();
            const std::uint64_t total =
                hits + tenant->serveMisses->value();
            gauge("qpc_tenant_hit_rate" + labels,
                  total ? static_cast<double>(hits) / total : 0.0);
        }
    }

    const ServiceTelemetry telemetry = service_.telemetry();
    const auto histogram = [&](const char* name,
                               const HistogramSnapshot& snap) {
        out.histograms.push_back({name, snap});
    };
    histogram("qpc_serve_us", telemetry.serveNs);
    histogram("qpc_prepare_serving_us", telemetry.prepareNs);
    histogram("qpc_synthesis_us", telemetry.synthNs);
    histogram("qpc_queue_wait_us", telemetry.queueWaitNs);
    histogram("qpc_job_run_us", telemetry.jobRunNs);
    histogram("qpc_cache_get_us", telemetry.cacheGetNs);
    histogram("qpc_cache_put_us", telemetry.cachePutNs);
    histogram("qpc_disk_read_us", telemetry.diskReadNs);
    histogram("qpc_disk_write_us", telemetry.diskWriteNs);

    out.sortByName();
    return out;
}

} // namespace qpc
