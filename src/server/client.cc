#include "server/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "pulse/serialize.h"

namespace qpc {

CompileClient::CompileClient(ClientOptions options)
    : options_(options),
      jitter_(0x51ab5e1fULL ^
              static_cast<std::uint64_t>(
                  reinterpret_cast<std::uintptr_t>(this)))
{
}

CompileClient::~CompileClient()
{
    close();
}

void
CompileClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
CompileClient::clearError()
{
    lastError_.clear();
    lastErrorCode_ = WireError::None;
}

void
CompileClient::resetSession()
{
    tenant_.clear();
    haveTenant_ = false;
    plans_.clear();
}

bool
CompileClient::dial()
{
    close();
    if (endpoint_ == Endpoint::Unix) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, unixPath_.c_str(),
                     sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return fail(WireError::Internal, "cannot create socket");
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            close();
            return fail(WireError::Internal,
                        "cannot connect to " + unixPath_ + ": " +
                            std::strerror(errno));
        }
        return true;
    }
    if (endpoint_ == Endpoint::Tcp) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return fail(WireError::Internal, "cannot create socket");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(tcpPort_));
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            close();
            return fail(WireError::Internal,
                        "cannot connect to loopback port " +
                            std::to_string(tcpPort_) + ": " +
                            std::strerror(errno));
        }
        setTcpNoDelay(fd_);
        return true;
    }
    return fail(WireError::Internal, "not connected");
}

bool
CompileClient::connectUnix(const std::string& path)
{
    close();
    resetSession();
    sockaddr_un probe{};
    if (path.empty() || path.size() >= sizeof(probe.sun_path)) {
        endpoint_ = Endpoint::None;
        return fail(WireError::BadRequest, "bad socket path");
    }
    endpoint_ = Endpoint::Unix;
    unixPath_ = path;
    if (!dial())
        return false;
    clearError();
    return true;
}

bool
CompileClient::connectTcp(int port)
{
    close();
    resetSession();
    if (port <= 0 || port > 65535) {
        endpoint_ = Endpoint::None;
        return fail(WireError::BadRequest, "bad TCP port");
    }
    endpoint_ = Endpoint::Tcp;
    tcpPort_ = port;
    if (!dial())
        return false;
    clearError();
    return true;
}

bool
CompileClient::fail(WireError code, const std::string& message)
{
    lastErrorCode_ = code;
    lastError_ = message;
    return false;
}

std::uint64_t
CompileClient::mappedPlanId(std::uint64_t plan_id) const
{
    const auto it = plans_.find(plan_id);
    return it == plans_.end() ? plan_id : it->second.serverPlanId;
}

void
CompileClient::backoffSleep(int attempt)
{
    const int shift = attempt > 20 ? 20 : (attempt < 1 ? 0 : attempt - 1);
    double delay_ms =
        static_cast<double>(options_.backoffBaseMs) *
        static_cast<double>(1u << shift);
    if (delay_ms > options_.backoffMaxMs)
        delay_ms = static_cast<double>(options_.backoffMaxMs);
    // Half-fixed, half-uniform jitter desynchronizes a fleet of
    // clients all retrying against the same restarted server.
    delay_ms *= 0.5 + 0.5 * jitter_.uniform();
    if (delay_ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(delay_ms * 1000.0)));
}

std::optional<std::vector<std::uint8_t>>
CompileClient::exchangeOnce(const std::vector<std::uint8_t>& payload)
{
    retryableFailure_ = true;
    if (fd_ < 0) {
        fail(WireError::Internal, "not connected");
        return std::nullopt;
    }
    FrameError why = FrameError::None;
    if (!writeFrame(fd_, payload, options_.deadlineMs, &why)) {
        if (why != FrameError::Timeout) {
            // A peer that hung up may have left a final Error frame
            // (Busy shedding does exactly this) already buffered;
            // salvage it so the caller sees the reason, not EPIPE.
            FrameError salvage_why = FrameError::None;
            std::optional<std::vector<std::uint8_t>> salvaged =
                readFrame(fd_, 50, &salvage_why);
            if (salvaged) {
                close();
                return salvaged;
            }
        }
        close();
        if (why == FrameError::Timeout) {
            ++stats_.timeouts;
            fail(WireError::Internal, "deadline expired writing request");
        } else {
            fail(WireError::Internal, "connection lost writing request");
        }
        return std::nullopt;
    }
    std::optional<std::vector<std::uint8_t>> reply =
        readFrame(fd_, options_.deadlineMs, &why);
    if (!reply) {
        close();
        if (why == FrameError::Timeout) {
            ++stats_.timeouts;
            fail(WireError::Internal, "deadline expired reading reply");
        } else {
            fail(WireError::Internal, "connection lost reading reply");
        }
    }
    return reply;
}

std::optional<std::vector<std::uint8_t>>
CompileClient::exchangeExpect(MsgType want,
                              const std::vector<std::uint8_t>& payload)
{
    std::optional<std::vector<std::uint8_t>> reply =
        exchangeOnce(payload);
    if (!reply)
        return std::nullopt;
    const std::optional<MsgType> type = peekMessage(*reply);
    if (!type) {
        close();
        retryableFailure_ = true;
        fail(WireError::Internal, "unparseable reply");
        return std::nullopt;
    }
    if (*type == MsgType::Error) {
        WireReader r(*reply);
        r.u8();
        r.u8();
        const auto code = static_cast<WireError>(r.u32());
        if (code == WireError::Busy) {
            // The server sheds and closes; this connection is done.
            ++stats_.busyRejections;
            retryableFailure_ = true;
            close();
        } else {
            // A definitive refusal: retrying cannot change the answer.
            retryableFailure_ = false;
        }
        fail(code, r.str());
        return std::nullopt;
    }
    if (*type != want) {
        close();
        retryableFailure_ = true;
        fail(WireError::Internal, "unexpected reply type");
        return std::nullopt;
    }
    return reply;
}

bool
CompileClient::reestablish()
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    if (!dial()) {
        ++stats_.reconnectFailures;
        retryableFailure_ = true;
        return false;
    }
    if (haveTenant_) {
        WireWriter w = beginMessage(MsgType::Hello);
        w.str(tenant_);
        if (!exchangeExpect(MsgType::HelloOk, w.take())) {
            ++stats_.reconnectFailures;
            close();
            return false;
        }
    }
    for (auto& [caller_id, plan] : plans_) {
        (void)caller_id;
        WireWriter w = beginMessage(MsgType::PrepareServing);
        encodeCircuit(w, plan.circuit);
        std::optional<std::vector<std::uint8_t>> reply =
            exchangeExpect(MsgType::PrepareOk, w.take());
        if (!reply) {
            ++stats_.reconnectFailures;
            close();
            return false;
        }
        WireReader r(*reply);
        r.u8();
        r.u8();
        const std::uint64_t server_id = r.u64();
        r.u32();
        r.u32();
        if (!r.done()) {
            ++stats_.reconnectFailures;
            retryableFailure_ = true;
            close();
            return fail(WireError::Internal,
                        "malformed PrepareOk during reconnect");
        }
        plan.serverPlanId = server_id;
        ++stats_.plansRemapped;
    }
    ++stats_.reconnects;
    reconnectNs_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count()));
    return true;
}

std::optional<std::vector<std::uint8_t>>
CompileClient::request(
    MsgType want,
    const std::function<std::vector<std::uint8_t>()>& build,
    bool retryable)
{
    const int attempts =
        1 + (retryable && options_.maxRetries > 0 ? options_.maxRetries
                                                  : 0);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            ++stats_.retries;
            backoffSleep(attempt);
        }
        if (fd_ < 0) {
            if (!retryable || !options_.reconnect ||
                endpoint_ == Endpoint::None) {
                fail(WireError::Internal, "not connected");
                return std::nullopt;
            }
            if (!reestablish()) {
                if (!retryableFailure_)
                    return std::nullopt;
                continue;
            }
        }
        std::optional<std::vector<std::uint8_t>> reply =
            exchangeExpect(want, build());
        if (reply) {
            clearError();
            return reply;
        }
        if (!retryable || !retryableFailure_)
            return std::nullopt;
    }
    return std::nullopt;
}

std::optional<std::vector<std::uint8_t>>
CompileClient::roundTrip(const std::vector<std::uint8_t>& payload)
{
    std::optional<std::vector<std::uint8_t>> reply =
        exchangeOnce(payload);
    if (reply)
        clearError();
    return reply;
}

std::optional<CompileClient::HelloReply>
CompileClient::hello(const std::string& tenant)
{
    const auto build = [&tenant] {
        WireWriter w = beginMessage(MsgType::Hello);
        w.str(tenant);
        return w.take();
    };
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::HelloOk, build);
    if (!reply)
        return std::nullopt;
    WireReader r(*reply);
    r.u8();
    r.u8();
    HelloReply out;
    out.tenantId = r.u32();
    out.maxPlans = r.u64();
    out.maxServedBytes = r.u64();
    out.maxConcurrentBulk = r.u64();
    out.epochCounter = r.u64();
    out.epochModelHash = r.u64();
    if (!r.done()) {
        fail(WireError::Internal, "malformed HelloOk");
        return std::nullopt;
    }
    tenant_ = tenant;
    haveTenant_ = true;
    return out;
}

std::optional<CompileClient::PrepareReply>
CompileClient::prepareServing(const Circuit& circuit)
{
    const auto build = [&circuit] {
        WireWriter w = beginMessage(MsgType::PrepareServing);
        encodeCircuit(w, circuit);
        return w.take();
    };
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::PrepareOk, build);
    if (!reply)
        return std::nullopt;
    WireReader r(*reply);
    r.u8();
    r.u8();
    PrepareReply out;
    out.planId = r.u64();
    out.numFixedBlocks = r.u32();
    out.numParamGates = r.u32();
    if (!r.done()) {
        fail(WireError::Internal, "malformed PrepareOk");
        return std::nullopt;
    }
    // The caller-visible id survives reconnects; pick the server's id
    // unless a remapped older plan already claimed that key.
    std::uint64_t caller_id = out.planId;
    if (plans_.count(caller_id) != 0)
        caller_id = plans_.rbegin()->first + 1;
    plans_[caller_id] = CachedPlan{circuit, out.planId};
    out.planId = caller_id;
    return out;
}

std::optional<CompileClient::PrewarmReply>
CompileClient::prewarm(std::uint64_t plan_id)
{
    const auto build = [this, plan_id] {
        WireWriter w = beginMessage(MsgType::Prewarm);
        w.u64(mappedPlanId(plan_id));
        return w.take();
    };
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::PrewarmOk, build);
    if (!reply)
        return std::nullopt;
    WireReader r(*reply);
    r.u8();
    r.u8();
    PrewarmReply out;
    out.uniqueBlocks = r.u32();
    out.synthRuns = r.u64();
    out.cacheHits = r.u64();
    out.wallSeconds = r.f64();
    if (!r.done()) {
        fail(WireError::Internal, "malformed PrewarmOk");
        return std::nullopt;
    }
    return out;
}

std::optional<CompileClient::ServeReply>
CompileClient::serve(std::uint64_t plan_id,
                     const std::vector<double>& theta,
                     bool want_pulses)
{
    const auto build = [this, plan_id, &theta, want_pulses] {
        WireWriter w = beginMessage(MsgType::Serve);
        w.u64(mappedPlanId(plan_id));
        w.u8(want_pulses ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(theta.size()));
        for (double t : theta)
            w.f64(t);
        return w.take();
    };
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::ServeOk, build);
    if (!reply)
        return std::nullopt;
    WireReader r(*reply);
    r.u8();
    r.u8();
    ServeReply out;
    out.pulseNs = r.f64();
    out.cacheHits = r.u64();
    out.cacheMisses = r.u64();
    out.quantHits = r.u64();
    out.quantMisses = r.u64();
    out.exactServes = r.u64();
    out.quantErrorBound = r.f64();
    out.epochCounter = r.u64();
    out.numSegments = r.u32();
    if (want_pulses) {
        // Each pulse record is a length-prefixed blob, so it occupies
        // at least 4 bytes of payload: a segment count larger than
        // remaining/4 is lying, and trusting it for reserve() would
        // let a hostile server force a multi-GB allocation.
        if (!r.ok() ||
            out.numSegments > r.remaining() / sizeof(std::uint32_t)) {
            fail(WireError::Internal,
                 "ServeOk segment count exceeds payload");
            return std::nullopt;
        }
        out.pulses.reserve(out.numSegments);
        for (std::uint32_t i = 0; i < out.numSegments && r.ok(); ++i) {
            const std::vector<std::uint8_t> record = r.blob();
            std::optional<PulseSchedule> pulse =
                deserializePulseSchedule(record);
            if (!pulse) {
                fail(WireError::Internal,
                     "malformed pulse record in ServeOk");
                return std::nullopt;
            }
            out.pulses.push_back(std::move(*pulse));
        }
    }
    if (!r.done()) {
        fail(WireError::Internal, "malformed ServeOk");
        return std::nullopt;
    }
    return out;
}

std::optional<MetricsSnapshot>
CompileClient::metrics()
{
    const auto build = [] {
        WireWriter w = beginMessage(MsgType::Metrics);
        return w.take();
    };
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::MetricsOk, build);
    if (!reply)
        return std::nullopt;
    WireReader r(*reply);
    r.u8();
    r.u8();
    std::optional<MetricsSnapshot> snap = decodeMetrics(r);
    if (!snap || !r.done()) {
        fail(WireError::Internal, "malformed MetricsOk");
        return std::nullopt;
    }
    return snap;
}

bool
CompileClient::shutdownServer()
{
    const auto build = [] {
        WireWriter w = beginMessage(MsgType::Shutdown);
        return w.take();
    };
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::ShutdownOk, build, /*retryable=*/false);
    return reply.has_value();
}

std::optional<CompileClient::BumpEpochReply>
CompileClient::bumpEpoch(std::uint64_t model_hash)
{
    const auto build = [model_hash] {
        WireWriter w = beginMessage(MsgType::BumpEpoch);
        w.u64(model_hash);
        return w.take();
    };
    // Non-retryable like Shutdown: a reply lost after the server
    // applied the bump must not advance the epoch twice.
    std::optional<std::vector<std::uint8_t>> reply =
        request(MsgType::BumpEpochOk, build, /*retryable=*/false);
    if (!reply)
        return std::nullopt;
    WireReader r(*reply);
    r.u8();
    r.u8();
    BumpEpochReply out;
    out.newCounter = r.u64();
    out.modelHash = r.u64();
    out.plansRekeyed = r.u32();
    if (!r.done()) {
        fail(WireError::Internal, "malformed BumpEpochOk");
        return std::nullopt;
    }
    return out;
}

ClientStats
CompileClient::clientStats() const
{
    ClientStats out = stats_;
    out.reconnectNs = reconnectNs_.snapshot();
    return out;
}

} // namespace qpc
