// The compile-server edge under failure: client deadlines, reconnect
// with session re-establishment, server idle reaping, Busy shedding,
// accept-failure backoff, and the socket-layer regressions (hostile
// ServeOk segment count, stale lastError, TCP_NODELAY). Everything
// here rides the tier-1 lane, so ASan and TSan see every scenario.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ir/circuit.h"
#include "ir/param.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using namespace qpc;
using Clock = std::chrono::steady_clock;

/** Unique scratch directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string& stem)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "." + std::to_string(::getpid())))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** A small variational template: 2 Fixed blocks, 2 rotations. */
Circuit
paramTemplate()
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, ParamExpr::theta(0));
    c.h(0);
    c.cx(0, 1);
    c.rz(1, ParamExpr::theta(1));
    return c;
}

CompileServerOptions
baseOptions(const std::string& socket_path)
{
    CompileServerOptions options;
    options.socketPath = socket_path;
    options.service.numWorkers = 2;
    options.service.maxQueuedJobs = 16;
    return options;
}

/** Poll `cond` for up to `budget_ms`; true once it holds. */
template <typename Cond>
bool
eventually(Cond cond, int budget_ms = 5000)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(budget_ms);
    while (Clock::now() < deadline) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return cond();
}

/** One counter of a live server's scrape; 0 while it is absent. */
std::uint64_t
scrapedCounter(const CompileServer& server, const std::string& name)
{
    const MetricsSnapshot metrics = server.metricsSnapshot();
    const std::uint64_t* value = metrics.counter(name);
    return value ? *value : 0;
}

/** Raw connected unix socket, bypassing the client library. */
int
rawConnect(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * A scripted fake "server": listens on a unix socket, accepts one
 * connection, and for each client frame replies with the next entry
 * of `replies` — an entry may be a deliberately truncated or hostile
 * byte string, or empty to stall (read the request, answer nothing).
 * Exercises the client's deadline and decode hardening without a real
 * CompileServer cooperating in its own sabotage.
 */
class ScriptedPeer
{
  public:
    ScriptedPeer(const std::string& path,
                 std::vector<std::vector<std::uint8_t>> replies)
        : replies_(std::move(replies))
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(listenFd_, 0);
        EXPECT_EQ(::bind(listenFd_,
                         reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd_, 4), 0);
        thread_ = std::thread([this] { run(); });
    }

    ~ScriptedPeer()
    {
        stop_.store(true);
        ::shutdown(listenFd_, SHUT_RDWR);
        if (connFd_.load() >= 0)
            ::shutdown(connFd_.load(), SHUT_RDWR);
        thread_.join();
        if (connFd_.load() >= 0)
            ::close(connFd_.load());
        ::close(listenFd_);
    }

  private:
    void run()
    {
        connFd_.store(::accept(listenFd_, nullptr, nullptr));
        if (connFd_.load() < 0)
            return;
        for (const std::vector<std::uint8_t>& reply : replies_) {
            // Consume the client's request frame: length prefix, then
            // body. A short read means the client gave up — done.
            std::uint8_t prefix[4];
            if (!readFull(prefix, sizeof(prefix)))
                return;
            std::uint32_t len = 0;
            for (int i = 0; i < 4; ++i)
                len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
            std::vector<std::uint8_t> body(len);
            if (len > 0 && !readFull(body.data(), len))
                return;
            if (reply.empty())
                continue; // scripted stall: leave the client hanging
            if (::send(connFd_.load(), reply.data(), reply.size(),
                       MSG_NOSIGNAL) !=
                static_cast<ssize_t>(reply.size()))
                return;
        }
        // Keep the connection open (but silent) until torn down, so
        // the client sees a stall rather than an EOF.
        while (!stop_.load()) {
            std::uint8_t sink[64];
            const ssize_t n = ::recv(connFd_.load(), sink, sizeof(sink), 0);
            if (n <= 0)
                return;
        }
    }

    bool readFull(std::uint8_t* dst, std::size_t n)
    {
        std::size_t got = 0;
        while (got < n) {
            const ssize_t r = ::recv(connFd_.load(), dst + got, n - got, 0);
            if (r <= 0)
                return false;
            got += static_cast<std::size_t>(r);
        }
        return true;
    }

    std::vector<std::vector<std::uint8_t>> replies_;
    int listenFd_ = -1;
    std::atomic<int> connFd_{-1};
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** A well-framed wire message (length prefix + payload). */
std::vector<std::uint8_t>
framed(const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> out;
    const auto n = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

// ---------------------------------------------------------------------
// Tentpole: kill-and-reconnect end to end
// ---------------------------------------------------------------------

TEST(Resilience, ClientRidesThroughServerRestart)
{
    TempDir dir("qpc_reconnect");
    const std::string path = dir.path() + "/qpc.sock";
    auto server = std::make_unique<CompileServer>(baseOptions(path));
    server->start();

    ClientOptions copts;
    copts.deadlineMs = 5000;
    copts.maxRetries = 20;
    copts.backoffBaseMs = 5;
    copts.backoffMaxMs = 50;
    CompileClient client(copts);
    ASSERT_TRUE(client.connectUnix(path));
    ASSERT_TRUE(client.hello("phoenix"));
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared);
    ASSERT_TRUE(client.serve(prepared->planId, {0.1, 0.2}));

    // Kill the daemon mid-loop and bring up a fresh one on the same
    // path — a fresh process with empty tenant/plan registries.
    server->stop();
    server = std::make_unique<CompileServer>(baseOptions(path));
    server->start();

    // The held plan id must keep working: the client re-Hellos,
    // re-prepares the cached circuit, and remaps the id under the
    // hood.
    const auto served = client.serve(prepared->planId, {0.3, 0.4});
    ASSERT_TRUE(served) << client.lastError();
    EXPECT_GT(served->numSegments, 0u);

    const ClientStats stats = client.clientStats();
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.reconnects, 1u);
    EXPECT_EQ(stats.plansRemapped, 1u);
    EXPECT_GE(stats.reconnectNs.count, 1u);
    // A successful ride-through is a success: no stale error.
    EXPECT_TRUE(client.lastError().empty());
    EXPECT_EQ(client.lastErrorCode(), WireError::None);
}

TEST(Resilience, FailFastClientStaysDeadAcrossRestart)
{
    TempDir dir("qpc_failfast");
    const std::string path = dir.path() + "/qpc.sock";
    auto server = std::make_unique<CompileServer>(baseOptions(path));
    server->start();

    CompileClient client; // defaults: no retries
    ASSERT_TRUE(client.connectUnix(path));
    ASSERT_TRUE(client.hello("mortal"));
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared);

    server->stop();
    server = std::make_unique<CompileServer>(baseOptions(path));
    server->start();

    // Legacy semantics preserved: without a retry budget the dropped
    // connection fails the call instead of silently reconnecting.
    EXPECT_FALSE(client.serve(prepared->planId, {0.1, 0.2}));
    EXPECT_FALSE(client.connected());
    EXPECT_EQ(client.clientStats().reconnects, 0u);
}

// ---------------------------------------------------------------------
// Tentpole: client deadlines against a stalled peer
// ---------------------------------------------------------------------

TEST(Resilience, DeadlineFailsHelloAgainstSilentPeer)
{
    TempDir dir("qpc_stall");
    const std::string path = dir.path() + "/stall.sock";
    // One scripted stall: read the Hello, never answer.
    ScriptedPeer peer(path, {{}});

    ClientOptions copts;
    copts.deadlineMs = 200;
    CompileClient client(copts);
    ASSERT_TRUE(client.connectUnix(path));

    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(client.hello("tenant"));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - t0);
    // Must be the deadline, not a hang (nor an instant EOF).
    EXPECT_GE(elapsed.count(), 150);
    EXPECT_LT(elapsed.count(), 3000);
    EXPECT_GE(client.clientStats().timeouts, 1u);
    EXPECT_FALSE(client.connected());
    EXPECT_NE(client.lastError().find("deadline"), std::string::npos)
        << client.lastError();
}

TEST(Resilience, DeadlineCoversWholeFrameAgainstMidReplyStall)
{
    TempDir dir("qpc_trickle");
    const std::string path = dir.path() + "/trickle.sock";
    // Reply with a frame that claims 64 bytes but delivers 8, then
    // stall: a per-chunk timeout would keep resetting; the whole-frame
    // budget must still expire.
    std::vector<std::uint8_t> partial = {64, 0, 0, 0, 1, 2, 3,
                                         4,  5, 6, 7, 8};
    ScriptedPeer peer(path, {partial});

    ClientOptions copts;
    copts.deadlineMs = 200;
    CompileClient client(copts);
    ASSERT_TRUE(client.connectUnix(path));

    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(client.hello("tenant"));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - t0);
    EXPECT_LT(elapsed.count(), 3000);
    EXPECT_GE(client.clientStats().timeouts, 1u);
}

// ---------------------------------------------------------------------
// Tentpole: server idle timeout reaps half-open peers
// ---------------------------------------------------------------------

TEST(Resilience, IdleTimeoutReapsHalfOpenPeer)
{
    TempDir dir("qpc_idle");
    CompileServerOptions options =
        baseOptions(dir.path() + "/qpc.sock");
    options.idleTimeoutMs = 200;
    CompileServer server(std::move(options));
    server.start();

    // A peer that sends half a length prefix and goes silent: without
    // the idle timeout this pins a session thread + fd forever.
    const int fd = rawConnect(server.options().socketPath);
    ASSERT_GE(fd, 0);
    const std::uint8_t half_prefix[2] = {8, 0};
    ASSERT_EQ(::send(fd, half_prefix, sizeof(half_prefix),
                     MSG_NOSIGNAL),
              2);

    EXPECT_TRUE(eventually([&] {
        return scrapedCounter(server,
                              "qpc_server_sessions_reaped_idle_total") >= 1;
    })) << "half-open peer was never reaped";
    // The reaped session released its slot: no leaked live session.
    EXPECT_TRUE(eventually([&] {
        const MetricsSnapshot metrics = server.metricsSnapshot();
        const double* active =
            metrics.gauge("qpc_server_connections_active");
        return active && *active == 0.0;
    }));
    ::close(fd);

    // A quiet-but-healthy rhythm within the timeout still works.
    CompileClient probe;
    ASSERT_TRUE(probe.connectUnix(server.options().socketPath));
    EXPECT_TRUE(probe.hello("prompt-tenant"));

    // stop() must join every thread promptly — a leak here hangs the
    // test (and the TSan lane reports the stuck thread).
    const Clock::time_point t0 = Clock::now();
    server.stop();
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - t0)
                  .count(),
              5000);
}

// ---------------------------------------------------------------------
// Tentpole: overload shedding with Busy
// ---------------------------------------------------------------------

TEST(Resilience, MaxSessionsShedsWithBusyFrame)
{
    TempDir dir("qpc_busy");
    CompileServerOptions options =
        baseOptions(dir.path() + "/qpc.sock");
    options.maxSessions = 1;
    CompileServer server(std::move(options));
    server.start();

    CompileClient occupant;
    ASSERT_TRUE(occupant.connectUnix(server.options().socketPath));
    ASSERT_TRUE(occupant.hello("occupant"));

    // Second connection: shed with a Busy frame, not a silent close.
    CompileClient shed;
    ASSERT_TRUE(shed.connectUnix(server.options().socketPath));
    EXPECT_FALSE(shed.hello("excess"));
    EXPECT_EQ(shed.lastErrorCode(), WireError::Busy)
        << shed.lastError();
    EXPECT_GE(shed.clientStats().busyRejections, 1u);
    EXPECT_GE(scrapedCounter(server, "qpc_server_busy_rejections_total"),
              1u);

    // Capacity freed: a retrying client gets admitted once the
    // occupant hangs up (the accept loop reaps, then admits).
    occupant.close();
    ClientOptions copts;
    copts.maxRetries = 50;
    copts.backoffBaseMs = 5;
    copts.backoffMaxMs = 50;
    CompileClient patient(copts);
    ASSERT_TRUE(patient.connectUnix(server.options().socketPath));
    EXPECT_TRUE(eventually(
        [&] { return patient.hello("patient").has_value(); }))
        << patient.lastError();
}

// ---------------------------------------------------------------------
// Satellite: accept-failure backoff under fd exhaustion
// ---------------------------------------------------------------------

TEST(Resilience, AcceptBackoffUnderFdExhaustion)
{
    TempDir dir("qpc_emfile");
    CompileServer server(baseOptions(dir.path() + "/qpc.sock"));
    server.start();

    // Create the probe's socket while fds are still available; the
    // connect itself needs no further fd on our side.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(probe, 0);

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    // Clamp the table just above the highest fd in use, then plug the
    // remaining holes so the server's accept() gets EMFILE.
    rlimit clamped = saved;
    clamped.rlim_cur = static_cast<rlim_t>(probe + 4);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &clamped), 0);
    std::vector<int> hogs;
    for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
         fd = ::open("/dev/null", O_RDONLY))
        hogs.push_back(fd);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server.options().socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(probe,
                        reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);

    // The pending connection keeps the listener readable while every
    // accept() fails: the old code busy-polled here at 100% CPU.
    const auto failures_now = [&] {
        return scrapedCounter(server, "qpc_server_accept_failures_total");
    };
    EXPECT_TRUE(eventually([&] { return failures_now() >= 1; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const std::uint64_t failures = failures_now();
    EXPECT_GE(failures, 1u);
    // Exponential backoff bounds the failure rate; a hot spin racks
    // up thousands in 400 ms.
    EXPECT_LE(failures, 100u);

    for (int fd : hogs)
        ::close(fd);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    // With fds available again the pending connection is admitted.
    EXPECT_TRUE(eventually([&] {
        return scrapedCounter(server,
                              "qpc_server_connections_accepted_total") >= 1;
    }));
    ::close(probe);

    CompileClient liveness;
    ASSERT_TRUE(liveness.connectUnix(server.options().socketPath));
    EXPECT_TRUE(liveness.hello("after-the-storm"));
}

// ---------------------------------------------------------------------
// Satellite: hostile ServeOk segment count
// ---------------------------------------------------------------------

TEST(Resilience, HostileServeOkSegmentCountRejected)
{
    TempDir dir("qpc_hostile");
    const std::string path = dir.path() + "/hostile.sock";
    // A ServeOk claiming 2^32-1 pulse segments with no payload behind
    // them: trusting the count for reserve() means a multi-GB
    // allocation before the first blob read fails.
    WireWriter w = beginMessage(MsgType::ServeOk);
    w.f64(1.0);  // pulseNs
    w.u64(0);    // cacheHits
    w.u64(0);    // cacheMisses
    w.u64(0);    // quantHits
    w.u64(0);    // quantMisses
    w.u64(0);    // exactServes
    w.f64(0.0);  // quantErrorBound
    w.u32(0xFFFFFFFFu);
    ScriptedPeer peer(path, {framed(w.bytes())});

    ClientOptions copts;
    copts.deadlineMs = 2000;
    CompileClient client(copts);
    ASSERT_TRUE(client.connectUnix(path));
    EXPECT_FALSE(client.serve(7, {0.1}, /*want_pulses=*/true));
    EXPECT_NE(client.lastError().find("segment count"),
              std::string::npos)
        << client.lastError();
}

// ---------------------------------------------------------------------
// Satellite: stale lastError cleared by later success
// ---------------------------------------------------------------------

TEST(Resilience, LastErrorClearedOnLaterSuccess)
{
    TempDir dir("qpc_stale");
    CompileServer server(baseOptions(dir.path() + "/qpc.sock"));
    server.start();

    CompileClient client;
    ASSERT_TRUE(client.connectUnix(server.options().socketPath));
    ASSERT_TRUE(client.hello("tenant"));

    // Provoke a real refusal...
    EXPECT_FALSE(client.serve(999, {0.1, 0.2}));
    EXPECT_EQ(client.lastErrorCode(), WireError::NotFound);
    EXPECT_FALSE(client.lastError().empty());

    // ...then succeed: the stale error must not linger.
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared);
    EXPECT_TRUE(client.lastError().empty());
    EXPECT_EQ(client.lastErrorCode(), WireError::None);

    EXPECT_TRUE(client.serve(prepared->planId, {0.1, 0.2}));
    EXPECT_TRUE(client.lastError().empty());
    EXPECT_EQ(client.lastErrorCode(), WireError::None);
}

// ---------------------------------------------------------------------
// Satellite: TCP_NODELAY on the TCP path
// ---------------------------------------------------------------------

TEST(Resilience, TcpNoDelaySetOnClientSocket)
{
    TempDir dir("qpc_nodelay");
    CompileServerOptions options =
        baseOptions(dir.path() + "/qpc.sock");
    options.tcpPort = -1; // ephemeral
    CompileServer server(std::move(options));
    server.start();
    ASSERT_GT(server.boundTcpPort(), 0);

    CompileClient client;
    ASSERT_TRUE(client.connectTcp(server.boundTcpPort()));
    int flag = 0;
    socklen_t len = sizeof(flag);
    ASSERT_EQ(::getsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY,
                           &flag, &len),
              0);
    EXPECT_EQ(flag, 1);
    // And the full request path works over TCP with Nagle off.
    EXPECT_TRUE(client.hello("tcp-tenant"));
}

// ---------------------------------------------------------------------
// Definitive refusals are not retried
// ---------------------------------------------------------------------

TEST(Resilience, DefinitiveRefusalDoesNotBurnRetries)
{
    TempDir dir("qpc_refusal");
    CompileServer server(baseOptions(dir.path() + "/qpc.sock"));
    server.start();

    ClientOptions copts;
    copts.maxRetries = 10;
    copts.backoffBaseMs = 50;
    CompileClient client(copts);
    ASSERT_TRUE(client.connectUnix(server.options().socketPath));
    ASSERT_TRUE(client.hello("tenant"));

    // NotFound is definitive: one round trip, no backoff sleeps.
    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(client.serve(12345, {0.1}));
    EXPECT_EQ(client.lastErrorCode(), WireError::NotFound);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - t0)
                  .count(),
              1000);
    EXPECT_EQ(client.clientStats().retries, 0u);
    // The connection survives a refusal (framing is still in sync).
    EXPECT_TRUE(client.connected());
}

} // namespace
