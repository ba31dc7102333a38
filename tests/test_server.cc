#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/rng.h"
#include "ir/circuit.h"
#include "ir/param.h"
#include "runtime/service.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using namespace qpc;

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

/** A running server on a unique unix socket in a temp dir. */
class ServerHarness
{
  public:
    explicit ServerHarness(TenantQuota quota = {}, int workers = 2)
        : dir_("qpc_server")
    {
        CompileServerOptions options;
        options.socketPath = dir_.path() + "/qpc.sock";
        options.service.numWorkers = workers;
        options.service.maxQueuedJobs = 16;
        options.quota = quota;
        server_ = std::make_unique<CompileServer>(std::move(options));
        server_->start();
    }

    const std::string& socket() const
    {
        return server_->options().socketPath;
    }
    CompileServer& server() { return *server_; }

    /** A fresh connection can still complete a Hello: the liveness
     * probe after every hostile-input test. */
    bool
    alive()
    {
        CompileClient probe;
        return probe.connectUnix(socket()) &&
               probe.hello("liveness-probe").has_value();
    }

  private:
    TempDir dir_;
    std::unique_ptr<CompileServer> server_;
};

/** Raw connected socket, bypassing the client library's framing. */
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

bool
sendRaw(int fd, const std::vector<std::uint8_t>& bytes)
{
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
}

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
// Wire primitives
// ---------------------------------------------------------------------

TEST(Wire, WriterReaderRoundTrip)
{
    WireWriter w;
    w.u8(7);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-42);
    w.f64(-0.0);
    w.str("tenant");
    w.blob({1, 2, 3});

    WireReader r(w.bytes());
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i32(), -42);
    const double z = r.f64();
    EXPECT_EQ(z, 0.0);
    EXPECT_TRUE(std::signbit(z));
    EXPECT_EQ(r.str(), "tenant");
    EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_TRUE(r.done());
}

TEST(Wire, ReaderLatchesOnShortRead)
{
    const std::vector<std::uint8_t> two{1, 2};
    WireReader r(two);
    r.u64(); // Needs 8 bytes, has 2.
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.done());
    // Every later read stays zero instead of walking off the buffer.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.str(), "");
}

TEST(Wire, ReaderRejectsLyingStringLength)
{
    WireWriter w;
    w.u32(1000); // Claims 1000 bytes...
    w.u8('x');   // ... delivers 1.
    WireReader r(w.bytes());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Wire, CircuitRoundTripIsExact)
{
    const Circuit original = paramTemplate();
    const std::optional<Circuit> back =
        decodeCircuit(encodeCircuit(original));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->numQubits(), original.numQubits());
    ASSERT_EQ(back->size(), original.size());
    for (int i = 0; i < original.size(); ++i) {
        const GateOp& a = original.ops()[static_cast<size_t>(i)];
        const GateOp& b = back->ops()[static_cast<size_t>(i)];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.q0, b.q0);
        EXPECT_EQ(a.q1, b.q1);
        EXPECT_EQ(a.angle.index, b.angle.index);
        EXPECT_EQ(a.angle.coeff, b.angle.coeff);
        EXPECT_EQ(a.angle.offset, b.angle.offset);
    }
}

TEST(Wire, CircuitDecodeRejectsHostileRecords)
{
    const std::vector<std::uint8_t> good =
        encodeCircuit(paramTemplate());

    // Bad magic.
    auto bad = good;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(decodeCircuit(bad).has_value());

    // Unsupported version.
    bad = good;
    bad[4] = 99;
    EXPECT_FALSE(decodeCircuit(bad).has_value());

    // Truncation at every prefix must decode as an error, not a crash.
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        std::vector<std::uint8_t> prefix(good.begin(),
                                         good.begin() +
                                             static_cast<long>(cut));
        EXPECT_FALSE(decodeCircuit(prefix).has_value()) << cut;
    }

    // Random bit flips: decode either round-trips validly or errors;
    // it must never panic (Circuit::add would, on bad indices).
    Rng rng(20260807);
    for (int round = 0; round < 500; ++round) {
        bad = good;
        const int flips = 1 + rng.randint(0, 4);
        for (int f = 0; f < flips; ++f)
            bad[static_cast<size_t>(
                rng.randint(0, static_cast<int>(bad.size()) - 1))] ^=
                static_cast<std::uint8_t>(1u << rng.randint(0, 7));
        (void)decodeCircuit(bad);
    }
}

/** A snapshot with every section populated, histogram from real
 * recordings so its bucket invariants hold by construction. */
MetricsSnapshot
sampleMetrics()
{
    MetricsSnapshot snap;
    snap.counters.push_back({"qpc_test_requests_total", 1234});
    snap.counters.push_back({"qpc_test_errors_total", 0});
    snap.gauges.push_back({"qpc_test_entries", 17.5});
    LatencyHistogram hist;
    hist.record(10);
    hist.record(900);
    hist.record(48000);
    hist.record(48000);
    snap.histograms.push_back({"qpc_test_latency_us", hist.snapshot()});
    return snap;
}

TEST(Wire, MetricsRoundTrip)
{
    const MetricsSnapshot snap = sampleMetrics();
    WireWriter w;
    encodeMetrics(w, snap);
    WireReader r(w.bytes());
    const std::optional<MetricsSnapshot> back = decodeMetrics(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(r.done());
    ASSERT_EQ(back->counters.size(), 2u);
    EXPECT_EQ(back->counters[0].name, "qpc_test_requests_total");
    EXPECT_EQ(back->counters[0].value, 1234u);
    ASSERT_EQ(back->gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(back->gauges[0].value, 17.5);
    ASSERT_EQ(back->histograms.size(), 1u);
    EXPECT_EQ(back->histograms[0].name, "qpc_test_latency_us");
    EXPECT_TRUE(back->histograms[0].histogram ==
                snap.histograms[0].histogram);
    // The decoded copy renders and interpolates like the original.
    EXPECT_DOUBLE_EQ(back->histograms[0].histogram.percentileNs(100),
                     48000.0);
}

TEST(Wire, MetricsDecodeRejectsHostileHistograms)
{
    // Each lambda writes one WireHistogram body that violates a
    // structural invariant decodeWireHistogram must enforce.
    struct Hostile
    {
        const char* what;
        void (*write)(WireWriter&);
    };
    const Hostile cases[] = {
        {"bucket index out of range",
         [](WireWriter& w) {
             w.str("h");
             w.u64(1); // count
             w.u64(5); // sum
             w.u64(5); // min
             w.u64(5); // max
             w.u32(1);
             w.u32(LatencyHistogram::kNumBuckets); // one past the end
             w.u64(1);
         }},
        {"bucket indices not strictly increasing",
         [](WireWriter& w) {
             w.str("h");
             w.u64(2);
             w.u64(10);
             w.u64(5);
             w.u64(5);
             w.u32(2);
             w.u32(5);
             w.u64(1);
             w.u32(5); // duplicate index
             w.u64(1);
         }},
        {"zero-count bucket",
         [](WireWriter& w) {
             w.str("h");
             w.u64(0);
             w.u64(0);
             w.u64(0);
             w.u64(0);
             w.u32(1);
             w.u32(3);
             w.u64(0);
         }},
        {"bucket counts disagree with total",
         [](WireWriter& w) {
             w.str("h");
             w.u64(10); // claims 10...
             w.u64(50);
             w.u64(5);
             w.u64(5);
             w.u32(1);
             w.u32(5);
             w.u64(3); // ...buckets hold 3
         }},
        {"min above max",
         [](WireWriter& w) {
             w.str("h");
             w.u64(1);
             w.u64(9);
             w.u64(9); // min
             w.u64(5); // max < min
             w.u32(1);
             w.u32(9);
             w.u64(1);
         }},
        {"nonzero stats on an empty histogram",
         [](WireWriter& w) {
             w.str("h");
             w.u64(0);
             w.u64(99); // sum must be 0 when count is 0
             w.u64(0);
             w.u64(0);
             w.u32(0);
         }},
    };
    for (const Hostile& hostile : cases) {
        WireWriter w;
        hostile.write(w);
        WireReader r(w.bytes());
        EXPECT_FALSE(decodeWireHistogram(r).has_value())
            << "accepted: " << hostile.what;
    }
}

TEST(Wire, MetricsDecodeSurvivesBitFlipFuzz)
{
    WireWriter w;
    encodeMetrics(w, sampleMetrics());
    const std::vector<std::uint8_t> golden = w.bytes();

    Rng rng(20260808);
    for (int round = 0; round < 2000; ++round) {
        std::vector<std::uint8_t> body = golden;
        const int flips = 1 + rng.randint(0, 7);
        for (int i = 0; i < flips; ++i)
            body[static_cast<size_t>(rng.randint(
                0, static_cast<int>(body.size()) - 1))] ^=
                static_cast<std::uint8_t>(1u << rng.randint(0, 7));
        if (rng.bernoulli(0.25)) // Truncation, too.
            body.resize(static_cast<size_t>(
                rng.randint(0, static_cast<int>(body.size()))));
        WireReader r(body);
        const std::optional<MetricsSnapshot> snap = decodeMetrics(r);
        if (!snap.has_value())
            continue;
        // Whatever survives the flips must still be internally
        // consistent: a re-encode of it decodes cleanly.
        WireWriter again;
        encodeMetrics(again, *snap);
        WireReader r2(again.bytes());
        EXPECT_TRUE(decodeMetrics(r2).has_value());
        EXPECT_TRUE(r2.done());
    }
}

// ---------------------------------------------------------------------
// PriorityGate
// ---------------------------------------------------------------------

TEST(PriorityGate, BulkWaitsForPendingServes)
{
    PriorityGate gate;
    gate.beginServe();

    std::atomic<bool> released{false};
    std::thread bulk([&] {
        EXPECT_TRUE(gate.waitBulkTurn());
        released.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(released.load());
    EXPECT_EQ(gate.pendingServes(), 1);

    gate.endServe();
    bulk.join();
    EXPECT_TRUE(released.load());
    EXPECT_EQ(gate.bulkYields(), 1u);
}

TEST(PriorityGate, StopReleasesWaitersWithFalse)
{
    PriorityGate gate;
    gate.beginServe();
    std::thread bulk([&] { EXPECT_FALSE(gate.waitBulkTurn()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    gate.stop();
    bulk.join();
}

// ---------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------

TEST(Server, SingleTenantPrepareWarmServe)
{
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));

    const auto hello = client.hello("alice");
    ASSERT_TRUE(hello.has_value());
    EXPECT_GT(hello->maxPlans, 0u);

    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    EXPECT_GT(prepared->numFixedBlocks, 0u);
    EXPECT_EQ(prepared->numParamGates, 2u);

    const auto warmed = client.prewarm(prepared->planId);
    ASSERT_TRUE(warmed.has_value());
    EXPECT_GT(warmed->uniqueBlocks, 0u);

    const auto served =
        client.serve(prepared->planId, {0.25, -1.5}, true);
    ASSERT_TRUE(served.has_value());
    EXPECT_GT(served->pulseNs, 0.0);
    EXPECT_EQ(served->pulses.size(), served->numSegments);
    EXPECT_GT(served->cacheHits, 0u); // Prewarmed blocks were warm.

    const auto metrics = client.metrics();
    ASSERT_TRUE(metrics.has_value());
    const std::string alice = "{tenant=\"alice\"}";
    const std::uint64_t* serves =
        metrics->counter("qpc_tenant_serves_total" + alice);
    const double* plans = metrics->gauge("qpc_tenant_plans" + alice);
    const std::uint64_t* bytes =
        metrics->counter("qpc_tenant_served_bytes_total" + alice);
    const double* hit_rate = metrics->gauge("qpc_tenant_hit_rate" + alice);
    ASSERT_TRUE(serves && plans && bytes && hit_rate);
    EXPECT_EQ(*serves, 1u);
    EXPECT_EQ(*plans, 1.0);
    EXPECT_GT(*bytes, 0u);
    EXPECT_GT(*hit_rate, 0.0);
}

TEST(Server, FourConcurrentTenantsShareTheCache)
{
    ServerHarness harness({}, 4);
    constexpr int kTenants = 4;
    constexpr int kServes = 8;
    std::atomic<int> failures{0};

    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t)
        tenants.emplace_back([&, t] {
            CompileClient client;
            if (!client.connectUnix(harness.socket())) {
                failures.fetch_add(1);
                return;
            }
            if (!client.hello("tenant-" + std::to_string(t))) {
                failures.fetch_add(1);
                return;
            }
            // Every tenant uploads the *same* template: the shared
            // content-addressed cache should collapse their Fixed
            // blocks onto one synthesis each.
            const auto prepared =
                client.prepareServing(paramTemplate());
            if (!prepared) {
                failures.fetch_add(1);
                return;
            }
            if (!client.prewarm(prepared->planId)) {
                failures.fetch_add(1);
                return;
            }
            Rng rng(static_cast<uint64_t>(1000 + t));
            for (int i = 0; i < kServes; ++i)
                if (!client.serve(prepared->planId, rng.angles(2)))
                    failures.fetch_add(1);
        });
    for (std::thread& t : tenants)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    const MetricsSnapshot metrics = harness.server().metricsSnapshot();
    for (int t = 0; t < kTenants; ++t) {
        const std::string labels =
            "{tenant=\"tenant-" + std::to_string(t) + "\"}";
        const std::uint64_t* serves =
            metrics.counter("qpc_tenant_serves_total" + labels);
        const double* plans = metrics.gauge("qpc_tenant_plans" + labels);
        ASSERT_TRUE(serves && plans) << labels;
        EXPECT_EQ(*serves, static_cast<std::uint64_t>(kServes));
        EXPECT_EQ(*plans, 1.0);
    }
    // Cross-tenant dedup: 4 identical templates cost one synthesis
    // per unique block (single flight + shared cache), not four.
    const std::uint64_t* synth_runs =
        metrics.counter("qpc_service_synth_runs_total");
    const double* entries = metrics.gauge("qpc_cache_entries");
    const std::uint64_t* hits =
        metrics.counter("qpc_service_cache_hits_total");
    ASSERT_TRUE(synth_runs && entries && hits);
    EXPECT_LE(static_cast<double>(*synth_runs), *entries);
    EXPECT_GT(*hits, 0u);
}

TEST(Server, TcpListenerServesOnEphemeralPort)
{
    TempDir dir("qpc_server_tcp");
    CompileServerOptions options;
    options.socketPath = dir.path() + "/qpc.sock";
    options.tcpPort = -1; // Ephemeral.
    options.service.numWorkers = 2;
    CompileServer server(std::move(options));
    server.start();
    ASSERT_GT(server.boundTcpPort(), 0);

    CompileClient client;
    ASSERT_TRUE(client.connectTcp(server.boundTcpPort()));
    ASSERT_TRUE(client.hello("tcp-tenant").has_value());
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    EXPECT_TRUE(client.serve(prepared->planId, {0.1, 0.2}).has_value());
}

// ---------------------------------------------------------------------
// Quotas and request errors
// ---------------------------------------------------------------------

TEST(Server, PlanQuotaRejectsWithoutKillingTheSession)
{
    TenantQuota quota;
    quota.maxPlans = 1;
    ServerHarness harness(quota);
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("greedy").has_value());

    const auto first = client.prepareServing(paramTemplate());
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(client.prepareServing(paramTemplate()).has_value());
    EXPECT_EQ(client.lastErrorCode(), WireError::QuotaExceeded);

    // The session survives the refusal and the held plan still serves.
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.serve(first->planId, {0.1, 0.2}).has_value());

    const MetricsSnapshot metrics = harness.server().metricsSnapshot();
    const std::uint64_t* rejections = metrics.counter(
        "qpc_tenant_quota_rejections_total{tenant=\"greedy\"}");
    ASSERT_NE(rejections, nullptr);
    EXPECT_EQ(*rejections, 1u);
}

TEST(Server, ServedBytesQuotaCapsEgress)
{
    TenantQuota quota;
    quota.maxServedBytes = 1; // First pulse-carrying serve exhausts it.
    ServerHarness harness(quota);
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("metered").has_value());
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());

    // Metadata-only replies carry no pulse bytes: nothing is billed,
    // so they never exhaust the quota.
    const auto servedBytes = [&client] {
        const std::optional<MetricsSnapshot> metrics = client.metrics();
        const std::uint64_t* bytes =
            metrics ? metrics->counter(
                          "qpc_tenant_served_bytes_total{tenant=\"metered\"}")
                    : nullptr;
        EXPECT_NE(bytes, nullptr);
        return bytes ? *bytes : ~std::uint64_t{0};
    };
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(client.serve(prepared->planId, {0.1, 0.2 * i}));
    EXPECT_EQ(servedBytes(), 0u);

    ASSERT_TRUE(
        client.serve(prepared->planId, {0.1, 0.2}, true).has_value());
    EXPECT_GT(servedBytes(), 0u);
    EXPECT_FALSE(
        client.serve(prepared->planId, {0.3, 0.4}).has_value());
    EXPECT_EQ(client.lastErrorCode(), WireError::QuotaExceeded);
    EXPECT_TRUE(client.connected());
}

TEST(Server, RequestErrorsAreSurfacedNotFatal)
{
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));

    // Plan-scoped requests before Hello.
    EXPECT_FALSE(client.prewarm(1).has_value());
    EXPECT_EQ(client.lastErrorCode(), WireError::BadRequest);

    ASSERT_TRUE(client.hello("alice").has_value());

    // Unknown plan.
    EXPECT_FALSE(client.serve(999, {0.1}).has_value());
    EXPECT_EQ(client.lastErrorCode(), WireError::NotFound);

    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());

    // Short theta: ParamExpr::bind would fatal() the process on this;
    // the server must pre-validate and refuse the request instead.
    EXPECT_FALSE(client.serve(prepared->planId, {0.1}).has_value());
    EXPECT_EQ(client.lastErrorCode(), WireError::BadRequest);

    // Non-finite theta.
    EXPECT_FALSE(
        client.serve(prepared->planId,
                     {0.1, std::numeric_limits<double>::quiet_NaN()})
            .has_value());
    EXPECT_EQ(client.lastErrorCode(), WireError::BadRequest);

    // The session is still healthy after every refusal.
    EXPECT_TRUE(
        client.serve(prepared->planId, {0.1, 0.2}).has_value());
}

// ---------------------------------------------------------------------
// Protocol fuzzing: hostile bytes error per-connection, never crash
// ---------------------------------------------------------------------

TEST(ServerFuzz, TruncatedFrameEndsOnlyThatConnection)
{
    ServerHarness harness;
    const int fd = rawConnect(harness.socket());
    ASSERT_GE(fd, 0);
    // Prefix promises 100 bytes, delivers 10, hangs up.
    ASSERT_TRUE(sendRaw(fd, {100, 0, 0, 0}));
    ASSERT_TRUE(sendRaw(fd, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
    ::close(fd);
    EXPECT_TRUE(harness.alive());
}

TEST(ServerFuzz, OversizedLengthPrefixIsRefusedWithoutAllocating)
{
    ServerHarness harness;
    for (const std::uint32_t n :
         {kMaxFramePayload + 1, 0xFFFFFFFFu, 0u}) {
        const int fd = rawConnect(harness.socket());
        ASSERT_GE(fd, 0);
        std::vector<std::uint8_t> prefix;
        for (int i = 0; i < 4; ++i)
            prefix.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
        ASSERT_TRUE(sendRaw(fd, prefix));
        // The server must drop the connection (EOF on our read), not
        // try to read/allocate n bytes.
        std::uint8_t byte = 0;
        EXPECT_EQ(::read(fd, &byte, 1), 0);
        ::close(fd);
    }
    EXPECT_TRUE(harness.alive());
}

TEST(ServerFuzz, WrongVersionByteGetsErrorFrame)
{
    ServerHarness harness;
    const int fd = rawConnect(harness.socket());
    ASSERT_GE(fd, 0);
    WireWriter w;
    w.u8(kServerProtocolVersion + 1);
    w.u8(static_cast<std::uint8_t>(MsgType::Hello));
    w.str("alice");
    ASSERT_TRUE(sendRaw(fd, framed(w.bytes())));

    const std::optional<std::vector<std::uint8_t>> reply =
        readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(peekMessage(*reply), MsgType::Error);
    ::close(fd);
    EXPECT_TRUE(harness.alive());
}

TEST(ServerFuzz, GarbageBodyErrorsButKeepsTheConnection)
{
    ServerHarness harness;
    const int fd = rawConnect(harness.socket());
    ASSERT_GE(fd, 0);

    // Well-framed Hello with a lying string length.
    WireWriter w = beginMessage(MsgType::Hello);
    w.u32(10000);
    w.u8('x');
    ASSERT_TRUE(sendRaw(fd, framed(w.bytes())));
    std::optional<std::vector<std::uint8_t>> reply = readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(peekMessage(*reply), MsgType::Error);

    // Framing stayed in sync: a valid Hello on the same connection
    // still succeeds.
    WireWriter ok = beginMessage(MsgType::Hello);
    ok.str("recovered");
    ASSERT_TRUE(sendRaw(fd, framed(ok.bytes())));
    reply = readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(peekMessage(*reply), MsgType::HelloOk);
    ::close(fd);

    const MetricsSnapshot metrics = harness.server().metricsSnapshot();
    const std::uint64_t* errors =
        metrics.counter("qpc_server_protocol_errors_total");
    ASSERT_NE(errors, nullptr);
    EXPECT_GT(*errors, 0u);
}

TEST(ServerFuzz, HostileCircuitRecordIsRefused)
{
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("fuzzer").has_value());

    // A circuit whose qubit indices are out of range: would panic in
    // Circuit::add if the server trusted the bytes.
    std::vector<std::uint8_t> record =
        encodeCircuit(paramTemplate());
    // q0 of the first op lives right after magic+version+counts+kind.
    record[4 + 4 + 4 + 4 + 1] = 0x7F;
    WireWriter w = beginMessage(MsgType::PrepareServing);
    w.raw(record.data(), record.size());
    const auto reply = client.roundTrip(w.bytes());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(peekMessage(*reply), MsgType::Error);
    EXPECT_TRUE(harness.alive());
}

TEST(ServerFuzz, ReplyTypeAsRequestClosesTheConnection)
{
    ServerHarness harness;
    const int fd = rawConnect(harness.socket());
    ASSERT_GE(fd, 0);
    WireWriter w = beginMessage(MsgType::ServeOk);
    w.u64(0);
    ASSERT_TRUE(sendRaw(fd, framed(w.bytes())));
    const std::optional<std::vector<std::uint8_t>> reply =
        readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(peekMessage(*reply), MsgType::Error);
    // Then EOF: the server hung up on us.
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    ::close(fd);
    EXPECT_TRUE(harness.alive());
}

TEST(ServerFuzz, RetiredStatsFramesAreRefused)
{
    // Version 3 retired the Stats request (type 5) and its reply
    // (type 69). A peer still speaking version 2, or sending either
    // retired type byte, gets BadRequest and a counted protocol
    // error; other tenants' sessions keep serving.
    ServerHarness harness;
    CompileClient bystander;
    ASSERT_TRUE(bystander.connectUnix(harness.socket()));
    ASSERT_TRUE(bystander.hello("bystander").has_value());
    const auto prepared = bystander.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    ASSERT_TRUE(bystander.serve(prepared->planId, {0.1, 0.2}));

    const std::pair<std::uint8_t, std::uint8_t> retired[] = {
        {2, 5}, {kServerProtocolVersion, 5}, {kServerProtocolVersion, 69}};
    for (const auto& [version, type] : retired) {
        const int fd = rawConnect(harness.socket());
        ASSERT_GE(fd, 0);
        WireWriter w;
        w.u8(version);
        w.u8(type);
        ASSERT_TRUE(sendRaw(fd, framed(w.bytes())));
        const std::optional<std::vector<std::uint8_t>> reply =
            readFrame(fd);
        ::close(fd);
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(peekMessage(*reply), MsgType::Error);
        WireReader r(*reply);
        r.u8();
        r.u8();
        EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(WireError::BadRequest))
            << "version " << int(version) << " type " << int(type);
    }

    const MetricsSnapshot metrics = harness.server().metricsSnapshot();
    const std::uint64_t* errors =
        metrics.counter("qpc_server_protocol_errors_total");
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(*errors, 3u);
    EXPECT_TRUE(bystander.serve(prepared->planId, {0.3, 0.4}));
}

TEST(ServerFuzz, RandomFrameSoupNeverKillsTheServer)
{
    ServerHarness harness;
    Rng rng(987654321);

    // Seed corpus: one valid instance of every request type.
    std::vector<std::vector<std::uint8_t>> corpus;
    {
        WireWriter hello = beginMessage(MsgType::Hello);
        hello.str("seed");
        corpus.push_back(hello.take());
        WireWriter prep = beginMessage(MsgType::PrepareServing);
        encodeCircuit(prep, paramTemplate());
        corpus.push_back(prep.take());
        WireWriter warm = beginMessage(MsgType::Prewarm);
        warm.u64(1);
        corpus.push_back(warm.take());
        WireWriter serve = beginMessage(MsgType::Serve);
        serve.u64(1);
        serve.u8(0);
        serve.u32(2);
        serve.f64(0.1);
        serve.f64(0.2);
        corpus.push_back(serve.take());
        WireWriter bump = beginMessage(MsgType::BumpEpoch);
        bump.u64(0);
        corpus.push_back(bump.take());
        corpus.push_back(beginMessage(MsgType::Metrics).take());
    }

    for (int round = 0; round < 60; ++round) {
        const int fd = rawConnect(harness.socket());
        ASSERT_GE(fd, 0);
        // A few frames per connection: mutated corpus members or raw
        // noise, sometimes cut mid-frame.
        const int frames = 1 + rng.randint(0, 3);
        for (int f = 0; f < frames; ++f) {
            std::vector<std::uint8_t> payload;
            if (rng.bernoulli(0.7)) {
                payload = corpus[static_cast<size_t>(rng.randint(
                    0, static_cast<int>(corpus.size()) - 1))];
                const int flips = 1 + rng.randint(0, 6);
                for (int i = 0; i < flips; ++i)
                    payload[static_cast<size_t>(rng.randint(
                        0,
                        static_cast<int>(payload.size()) - 1))] ^=
                        static_cast<std::uint8_t>(
                            1u << rng.randint(0, 7));
            } else {
                payload.resize(
                    static_cast<size_t>(1 + rng.randint(0, 63)));
                for (std::uint8_t& b : payload)
                    b = static_cast<std::uint8_t>(
                        rng.randint(0, 255));
            }
            std::vector<std::uint8_t> wire = framed(payload);
            const bool cut = rng.bernoulli(0.2);
            if (cut) // Mid-frame disconnect.
                wire.resize(static_cast<size_t>(
                    1 + rng.randint(0,
                                    static_cast<int>(wire.size()) -
                                        1)));
            if (!sendRaw(fd, wire))
                break; // Server already hung up on this connection.
            if (cut)
                break; // The server is owed bytes it will never get:
                       // hang up (it must cope), don't wait for a
                       // reply it cannot send.
            if (rng.bernoulli(0.5)) {
                // Drain one reply if the server sent one; ignore it.
                if (!readFrame(fd))
                    break;
            }
        }
        ::close(fd);
    }

    // The server survived the soup and still serves real work.
    EXPECT_TRUE(harness.alive());
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("survivor").has_value());
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    EXPECT_TRUE(
        client.serve(prepared->planId, {0.5, -0.5}).has_value());
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

TEST(Server, MetricsFrameMatchesServedWork)
{
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("alice").has_value());
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    ASSERT_TRUE(client.serve(prepared->planId, {0.5, -0.5}).has_value());
    ASSERT_TRUE(client.serve(prepared->planId, {0.5, -0.5}).has_value());

    const std::optional<MetricsSnapshot> metrics = client.metrics();
    ASSERT_TRUE(metrics.has_value());

    // The frame agrees with the service it scrapes.
    const std::uint64_t* requests =
        metrics->counter("qpc_service_requests_total");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(*requests, harness.server().service().stats().requests);
    const std::uint64_t* serves =
        metrics->counter("qpc_tenant_serves_total{tenant=\"alice\"}");
    ASSERT_NE(serves, nullptr);
    EXPECT_EQ(*serves, 2u);

    // Serve latencies land in both the global and the per-tenant
    // histograms, already converted to wire-safe snapshots.
    const HistogramSnapshot* serveUs = metrics->histogram("qpc_serve_us");
    ASSERT_NE(serveUs, nullptr);
    EXPECT_GE(serveUs->count, 2u);
    const HistogramSnapshot* tenantUs =
        metrics->histogram("qpc_tenant_serve_us{tenant=\"alice\"}");
    ASSERT_NE(tenantUs, nullptr);
    EXPECT_EQ(tenantUs->count, 2u);
    EXPECT_GT(tenantUs->maxNs, 0u);

    // The snapshot arrives sorted, so exposition is deterministic.
    for (size_t i = 1; i < metrics->counters.size(); ++i)
        EXPECT_LT(metrics->counters[i - 1].name,
                  metrics->counters[i].name);

    // And it renders: every advertised family gets a TYPE header.
    const std::string text = renderPrometheus(*metrics);
    EXPECT_NE(text.find("# TYPE qpc_service_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE qpc_serve_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("qpc_serve_us_bucket{le=\"+Inf\"}"),
              std::string::npos);
}

TEST(Server, MalformedMetricsBodyIsRefused)
{
    ServerHarness harness;
    const int fd = rawConnect(harness.socket());
    ASSERT_GE(fd, 0);
    WireWriter w = beginMessage(MsgType::Metrics);
    w.u8(0xAB); // Trailing junk: the request body must be empty.
    ASSERT_TRUE(sendRaw(fd, framed(w.bytes())));
    const std::optional<std::vector<std::uint8_t>> reply =
        readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(peekMessage(*reply), MsgType::Error);
    ::close(fd);
    EXPECT_TRUE(harness.alive());
}

TEST(Server, ScrapedFamiliesSurviveTheStatsRetirement)
{
    // Every counter and gauge family a scrape exported while the Stats
    // frame still existed keeps its name, and the facts that used to
    // travel only in that frame's reply have names too: dashboards
    // and bench/e2e key on these.
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("alice").has_value());
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    ASSERT_TRUE(client.serve(prepared->planId, {0.5, -0.5}).has_value());
    const std::optional<MetricsSnapshot> metrics = client.metrics();
    ASSERT_TRUE(metrics.has_value());

    const std::string alice = "{tenant=\"alice\"}";
    const std::string counters[] = {
        "qpc_server_connections_accepted_total",
        "qpc_server_protocol_errors_total",
        "qpc_server_bulk_yields_total",
        "qpc_server_accept_failures_total",
        "qpc_server_busy_rejections_total",
        "qpc_server_sessions_reaped_idle_total",
        "qpc_service_requests_total",
        "qpc_service_cache_hits_total",
        "qpc_service_coalesced_total",
        "qpc_service_synth_runs_total",
        "qpc_service_rejected_total",
        "qpc_service_exact_serves_total",
        "qpc_service_quant_hits_total",
        "qpc_service_quant_misses_total",
        "qpc_service_quant_fallbacks_total",
        "qpc_cache_lookups_total",
        "qpc_cache_mem_hits_total",
        "qpc_cache_disk_hits_total",
        "qpc_cache_misses_total",
        "qpc_epoch_bumps_total",
        "qpc_tenant_serves_total" + alice,
        "qpc_tenant_served_bytes_total" + alice,
        "qpc_tenant_quota_rejections_total" + alice,
        "qpc_tenant_prewarms_total" + alice,
        "qpc_tenant_serve_hits_total" + alice,
        "qpc_tenant_serve_misses_total" + alice,
    };
    for (const std::string& name : counters)
        EXPECT_NE(metrics->counter(name), nullptr) << name;
    const std::string gauges[] = {
        "qpc_calibration_epoch",
        "qpc_server_connections_active",
        "qpc_cache_entries",
        "qpc_cache_bytes_in_use",
        "qpc_tenant_hit_rate" + alice,
        "qpc_tenant_plans" + alice,
    };
    for (const std::string& name : gauges)
        EXPECT_NE(metrics->gauge(name), nullptr) << name;
    EXPECT_NE(metrics->histogram("qpc_server_handle_us{type=\"Serve\"}"),
              nullptr);

    // The hit rate is derived from the two counters it summarizes.
    const std::uint64_t* hits =
        metrics->counter("qpc_tenant_serve_hits_total" + alice);
    const std::uint64_t* misses =
        metrics->counter("qpc_tenant_serve_misses_total" + alice);
    const double* hit_rate = metrics->gauge("qpc_tenant_hit_rate" + alice);
    ASSERT_TRUE(hits && misses && hit_rate);
    ASSERT_GT(*hits + *misses, 0u);
    EXPECT_DOUBLE_EQ(*hit_rate, static_cast<double>(*hits) /
                                    static_cast<double>(*hits + *misses));
}

/** paramTemplate's shape with a constant phase inside each Fixed
 * block, so every distinct phase compiles its own cold blocks. */
Circuit
phasedTemplate(double phase)
{
    Circuit c(2);
    c.h(0);
    c.rz(0, phase);
    c.cx(0, 1);
    c.rz(1, ParamExpr::theta(0));
    c.h(0);
    c.rz(0, phase);
    c.cx(0, 1);
    c.rz(1, ParamExpr::theta(1));
    return c;
}

TEST(Server, ScrapedCountersSatisfyAccountingIdentities)
{
    TempDir dir("qpc_server_identities");
    CompileServerOptions options;
    options.socketPath = dir.path() + "/qpc.sock";
    options.service.numWorkers = 2;
    // Slow synthesis holds each cold flight open long enough for a
    // racing session to join it.
    const BlockSynthesizer analytic = analyticBlockSynthesizer();
    options.service.synthesizer = [analytic](const Circuit& block) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return analytic(block);
    };
    CompileServer server(std::move(options));
    server.start();
    const std::string& socket = server.options().socketPath;

    // Prewarmed hits.
    CompileClient warm;
    ASSERT_TRUE(warm.connectUnix(socket));
    ASSERT_TRUE(warm.hello("warm").has_value());
    const auto warm_plan = warm.prepareServing(phasedTemplate(0.1));
    ASSERT_TRUE(warm_plan.has_value());
    ASSERT_TRUE(warm.prewarm(warm_plan->planId).has_value());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(warm.serve(warm_plan->planId, {0.2, 0.3 * i}));

    // A cold tenant: misses, synthesis on the serve path.
    CompileClient cold;
    ASSERT_TRUE(cold.connectUnix(socket));
    ASSERT_TRUE(cold.hello("cold").has_value());
    const auto cold_plan = cold.prepareServing(phasedTemplate(0.2));
    ASSERT_TRUE(cold_plan.has_value());
    ASSERT_TRUE(cold.serve(cold_plan->planId, {0.4, 0.5}));

    // Two sessions of one tenant racing a cold plan: one synthesizes,
    // the other coalesces onto its flight.
    CompileClient racers[2];
    for (CompileClient& racer : racers) {
        ASSERT_TRUE(racer.connectUnix(socket));
        ASSERT_TRUE(racer.hello("racer").has_value());
    }
    const auto race_plan = racers[0].prepareServing(phasedTemplate(0.3));
    ASSERT_TRUE(race_plan.has_value());
    std::atomic<int> ready{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (CompileClient& racer : racers)
        threads.emplace_back([&, client = &racer] {
            ready.fetch_add(1);
            while (ready.load() < 2)
                std::this_thread::yield();
            if (!client->serve(race_plan->planId, {0.6, 0.7}))
                failures.fetch_add(1);
        });
    for (std::thread& t : threads)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    const std::optional<MetricsSnapshot> metrics = warm.metrics();
    ASSERT_TRUE(metrics.has_value());
    const auto count = [&](const std::string& name) {
        const std::uint64_t* value = metrics->counter(name);
        EXPECT_NE(value, nullptr) << name;
        return value ? *value : 0;
    };
    const std::uint64_t hits = count("qpc_service_cache_hits_total");
    const std::uint64_t coalesced = count("qpc_service_coalesced_total");
    const std::uint64_t synth_runs = count("qpc_service_synth_runs_total");
    const std::uint64_t exact = count("qpc_service_exact_serves_total");
    // Every branch the scenario meant to drive was taken.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(coalesced, 0u);
    EXPECT_GT(synth_runs, 0u);
    EXPECT_GT(exact, 0u);
    EXPECT_GT(count("qpc_cache_misses_total"), 0u);

    // Every block request ends in exactly one outcome...
    EXPECT_EQ(count("qpc_service_requests_total"),
              hits + coalesced + synth_runs +
                  count("qpc_service_rejected_total") + exact);
    // ... and every cache lookup in exactly one tier or a miss.
    EXPECT_EQ(count("qpc_cache_lookups_total"),
              count("qpc_cache_mem_hits_total") +
                  count("qpc_cache_disk_hits_total") +
                  count("qpc_cache_misses_total"));
    server.stop();
}

TEST(Server, ColdServeTraceNestsCacheProbeAndQueueWait)
{
    clearTrace();
    setTraceEnabled(true);
    {
        ServerHarness harness;
        CompileClient client;
        ASSERT_TRUE(client.connectUnix(harness.socket()));
        ASSERT_TRUE(client.hello("tracer").has_value());
        const auto prepared = client.prepareServing(paramTemplate());
        ASSERT_TRUE(prepared.has_value());
        // No prewarm: the serve must miss, synthesize through the
        // pool, and therefore leave queue-wait spans behind.
        ASSERT_TRUE(
            client.serve(prepared->planId, {0.25, -0.75}).has_value());
    }
    setTraceEnabled(false);
    const std::string json = traceJson();
    clearTrace();

    EXPECT_NE(json.find("\"name\":\"serve\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cache-probe\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"queue-wait\""), std::string::npos);
    // The serve span carries its tenant as a viewer-visible arg.
    EXPECT_NE(json.find("\"tenant\":\"tracer\""), std::string::npos);
}

TEST(Server, SlowServeThresholdEmitsStructuredWarn)
{
    TempDir dir("qpc_slowserve");
    CompileServerOptions options;
    options.socketPath = dir.path() + "/qpc.sock";
    options.service.numWorkers = 2;
    options.service.maxQueuedJobs = 16;
    options.slowServeThresholdUs = 1; // Every serve is "slow".
    CompileServer server(std::move(options));
    server.start();

    CompileClient client;
    ASSERT_TRUE(client.connectUnix(server.options().socketPath));
    ASSERT_TRUE(client.hello("slowpoke").has_value());
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());

    testing::internal::CaptureStderr();
    const bool served =
        client.serve(prepared->planId, {0.3, 0.7}).has_value();
    const std::string log = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(served);

    const std::size_t at = log.find("slow-serve tenant=slowpoke");
    ASSERT_NE(at, std::string::npos) << log;
    const std::string line = log.substr(at, log.find('\n', at) - at);
    // Structured fields a log scraper keys on.
    EXPECT_NE(line.find(" plan="), std::string::npos) << line;
    EXPECT_NE(line.find(" total_us="), std::string::npos) << line;
    EXPECT_NE(line.find(" segments="), std::string::npos) << line;
    server.stop();
}

// ---------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------

TEST(Server, ShutdownFrameStopsTheServerCleanly)
{
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));
    ASSERT_TRUE(client.hello("admin").has_value());
    EXPECT_FALSE(harness.server().stopRequested());

    EXPECT_TRUE(client.shutdownServer());
    harness.server().waitUntilStopRequested();
    EXPECT_TRUE(harness.server().stopRequested());
    harness.server().stop();

    // A new connection is refused or immediately dropped.
    CompileClient late;
    EXPECT_FALSE(late.connectUnix(harness.socket()) &&
                 late.hello("too-late").has_value());
}

TEST(Server, StopWithLiveSessionsJoinsEverything)
{
    auto harness = std::make_unique<ServerHarness>();
    // Park a few sessions mid-conversation, then stop the server out
    // from under them: stop() must unblock their readers and join.
    std::vector<std::unique_ptr<CompileClient>> clients;
    for (int i = 0; i < 3; ++i) {
        auto client = std::make_unique<CompileClient>();
        ASSERT_TRUE(client->connectUnix(harness->socket()));
        ASSERT_TRUE(
            client->hello("idle-" + std::to_string(i)).has_value());
        clients.push_back(std::move(client));
    }
    harness->server().stop();
    // Destroying the harness after a clean stop must not hang.
    harness.reset();
}

// ---------------------------------------------------------------------
// Calibration epochs over the wire
// ---------------------------------------------------------------------

TEST(Server, EpochBumpRekeysPlansWhileServing)
{
    ServerHarness harness;
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(harness.socket()));

    const auto hello = client.hello("alice");
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->epochCounter, 0u);

    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    ASSERT_TRUE(client.prewarm(prepared->planId).has_value());
    const auto before = client.serve(prepared->planId, {0.25, -1.5});
    ASSERT_TRUE(before.has_value());
    EXPECT_EQ(before->epochCounter, 0u);

    const auto bumped = client.bumpEpoch(0x5eedULL);
    ASSERT_TRUE(bumped.has_value());
    EXPECT_EQ(bumped->newCounter, 1u);
    EXPECT_EQ(bumped->modelHash, 0x5eedULL);
    EXPECT_EQ(bumped->plansRekeyed, 1u);

    // The plan id survives the bump, serves keep succeeding, and the
    // reply now carries the re-keyed plan's epoch: every pulse behind
    // it was minted under the new calibration.
    const auto after = client.serve(prepared->planId, {0.25, -1.5});
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->epochCounter, 1u);

    const MetricsSnapshot metrics = harness.server().metricsSnapshot();
    const std::uint64_t* bumps = metrics.counter("qpc_epoch_bumps_total");
    ASSERT_NE(bumps, nullptr);
    EXPECT_EQ(*bumps, 1u);
    const double* epoch_gauge = metrics.gauge("qpc_calibration_epoch");
    ASSERT_NE(epoch_gauge, nullptr);
    EXPECT_EQ(*epoch_gauge, 1.0);

    // The async re-prewarm records its recovery latency once it
    // finishes. Wait for the sample rather than racing stop(): a
    // stop() that lands first aborts the rewarm (bins just stay
    // cold), which deliberately records nothing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
        const MetricsSnapshot warm = harness.server().metricsSnapshot();
        const HistogramSnapshot* recovery =
            warm.histogram("qpc_epoch_recovery_us");
        ASSERT_NE(recovery, nullptr);
        if (recovery->count >= 1) {
            EXPECT_EQ(recovery->count, 1u);
            break;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "epoch rewarm never recorded its recovery latency";
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    harness.server().stop();
}

// ---------------------------------------------------------------------
// Serving snapshots
// ---------------------------------------------------------------------

TEST(Snapshot, RoundTripsAndRejectsHostileBytes)
{
    ServingSnapshot snapshot;
    snapshot.epoch = {3, 99};
    snapshot.plans.push_back({"alice", paramTemplate()});
    snapshot.plans.push_back({"bob", paramTemplate()});

    const std::vector<std::uint8_t> bytes =
        serializeServingSnapshot(snapshot);
    const auto back = deserializeServingSnapshot(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->epoch, (CalibrationEpoch{3, 99}));
    ASSERT_EQ(back->plans.size(), 2u);
    EXPECT_EQ(back->plans[0].tenant, "alice");
    EXPECT_EQ(back->plans[1].tenant, "bob");
    EXPECT_EQ(back->plans[0].circuit.numParams(),
              paramTemplate().numParams());

    // Every proper prefix is malformed (string and circuit lengths
    // pin the exact size), as is corrupted magic.
    for (std::size_t len = 0; len < bytes.size(); len += 7) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(deserializeServingSnapshot(prefix).has_value())
            << "prefix length " << len;
    }
    std::vector<std::uint8_t> magic = bytes;
    magic[0] ^= 0xff;
    EXPECT_FALSE(deserializeServingSnapshot(magic).has_value());
    std::vector<std::uint8_t> version = bytes;
    version[4] = 0x7f;
    EXPECT_FALSE(deserializeServingSnapshot(version).has_value());

    // File round-trip (atomic save + load).
    TempDir dir("qpc_snapshot_file");
    const std::string path = dir.path() + "/serving.qsnp";
    ASSERT_TRUE(saveServingSnapshot(path, snapshot));
    const auto loaded = loadServingSnapshot(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->plans.size(), 2u);
    EXPECT_FALSE(loadServingSnapshot(dir.path() + "/absent.qsnp"));
}

TEST(Server, SnapshotRestoreBootsWarmReplica)
{
    TempDir dir("qpc_snapshot_replica");
    const std::string tier = dir.path() + "/tier";
    std::filesystem::create_directories(tier);
    const auto replicaOptions = [&](const std::string& sock) {
        CompileServerOptions options;
        options.socketPath = dir.path() + "/" + sock;
        options.service.numWorkers = 2;
        options.service.cache.diskDir = tier;
        options.service.quantization.enabled = true;
        options.service.quantization.bins = 32;
        return options;
    };

    // Replica A: live in epoch 5, prewarms one tenant's plan into the
    // shared disk tier, snapshots, exits.
    ServingSnapshot snapshot;
    {
        CompileServerOptions options = replicaOptions("a.sock");
        options.service.epoch.counter = 5;
        CompileServer a(std::move(options));
        a.start();
        CompileClient client;
        ASSERT_TRUE(client.connectUnix(a.options().socketPath));
        const auto hello = client.hello("alice");
        ASSERT_TRUE(hello.has_value());
        EXPECT_EQ(hello->epochCounter, 5u);
        const auto prepared = client.prepareServing(paramTemplate());
        ASSERT_TRUE(prepared.has_value());
        ASSERT_TRUE(client.prewarm(prepared->planId).has_value());
        snapshot = a.snapshotServing();
        a.stop();
    }
    EXPECT_EQ(snapshot.epoch.counter, 5u);
    ASSERT_EQ(snapshot.plans.size(), 1u);

    // Replica B: cold process, same tier, boots from the snapshot.
    // The restore adopts A's epoch before preparing, so every minted
    // fingerprint resolves to a record A already wrote: the prewarm
    // must be nearly all disk hits.
    CompileServer b(replicaOptions("b.sock"));
    const SnapshotRestoreReport report = b.restoreServing(snapshot);
    EXPECT_EQ(report.plans, 1u);
    EXPECT_GT(report.uniqueBlocks, 0u);
    EXPECT_GE(report.hitRate(), 0.9);
    EXPECT_EQ(b.service().epoch().counter, 5u);

    // And it serves: the restored plan is a real tenant plan, warm.
    b.start();
    CompileClient client;
    ASSERT_TRUE(client.connectUnix(b.options().socketPath));
    const auto hello = client.hello("alice");
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->epochCounter, 5u);
    const auto prepared = client.prepareServing(paramTemplate());
    ASSERT_TRUE(prepared.has_value());
    const auto served = client.serve(prepared->planId, {0.25, -1.5});
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->epochCounter, 5u);
    EXPECT_GT(served->cacheHits, 0u); // Warm without any prewarm.
    b.stop();
}

} // namespace
