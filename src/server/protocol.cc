#include "server/protocol.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace qpc {

namespace {

constexpr char kCircuitMagic[4] = {'Q', 'C', 'I', 'R'};

/** Largest circuit a PrepareServing body may describe. Far above any
 * variational template this system serves, far below anything that
 * could stress server memory. */
constexpr std::uint32_t kMaxWireQubits = 1024;
constexpr std::uint32_t kMaxWireOps = 1u << 20;
constexpr std::int32_t kMaxWireParamIndex = 1 << 20;

/** Retry-on-EINTR full read; false on EOF/error before n bytes. */
bool
readFull(int fd, void* buffer, std::size_t n)
{
    auto* p = static_cast<std::uint8_t*>(buffer);
    while (n > 0) {
        const ssize_t got = ::read(fd, p, n);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false;
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/**
 * Retry-on-EINTR full write; false on any error. Uses send(2) with
 * MSG_NOSIGNAL so a peer that hung up mid-reply surfaces as EPIPE on
 * this connection instead of a process-wide SIGPIPE (write(2) kept as
 * a fallback for non-socket fds in tests).
 */
bool
writeFull(int fd, const void* buffer, std::size_t n)
{
    auto* p = static_cast<const std::uint8_t*>(buffer);
    while (n > 0) {
        ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
        if (put < 0 && errno == ENOTSOCK)
            put = ::write(fd, p, n);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += put;
        n -= static_cast<std::size_t>(put);
    }
    return true;
}

using DeadlineClock = std::chrono::steady_clock;

/** Milliseconds left before `deadline`, clamped to [0, INT_MAX]. */
int
remainingMs(DeadlineClock::time_point deadline)
{
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - DeadlineClock::now())
            .count();
    if (left <= 0)
        return 0;
    if (left > std::numeric_limits<int>::max())
        return std::numeric_limits<int>::max();
    return static_cast<int>(left);
}

/**
 * Deadline-aware full read: non-blocking recv, polling for
 * readability with whatever time is left. The budget covers the
 * whole n bytes, so a peer trickling one byte per poll still hits
 * the deadline instead of resetting it.
 */
bool
readFullDeadline(int fd, void* buffer, std::size_t n,
                 DeadlineClock::time_point deadline, FrameError& why)
{
    auto* p = static_cast<std::uint8_t*>(buffer);
    while (n > 0) {
        ssize_t got = ::recv(fd, p, n, MSG_DONTWAIT);
        if (got < 0 && errno == ENOTSOCK) // Plain fd: no deadline.
            got = ::read(fd, p, n);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                const int ms = remainingMs(deadline);
                if (ms <= 0) {
                    why = FrameError::Timeout;
                    return false;
                }
                pollfd pfd{fd, POLLIN, 0};
                ::poll(&pfd, 1, ms);
                continue; // recv again; remaining time recomputed.
            }
            why = FrameError::Closed;
            return false;
        }
        if (got == 0) {
            why = FrameError::Closed;
            return false;
        }
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/** Deadline-aware full write (MSG_NOSIGNAL, poll on POLLOUT). */
bool
writeFullDeadline(int fd, const void* buffer, std::size_t n,
                  DeadlineClock::time_point deadline, FrameError& why)
{
    auto* p = static_cast<const std::uint8_t*>(buffer);
    while (n > 0) {
        ssize_t put =
            ::send(fd, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (put < 0 && errno == ENOTSOCK)
            put = ::write(fd, p, n);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                const int ms = remainingMs(deadline);
                if (ms <= 0) {
                    why = FrameError::Timeout;
                    return false;
                }
                pollfd pfd{fd, POLLOUT, 0};
                ::poll(&pfd, 1, ms);
                continue;
            }
            why = FrameError::Closed;
            return false;
        }
        p += put;
        n -= static_cast<std::size_t>(put);
    }
    return true;
}

} // namespace

void
WireWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string& s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void
WireWriter::blob(const std::vector<std::uint8_t>& b)
{
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
}

void
WireWriter::raw(const std::uint8_t* data, std::size_t size)
{
    bytes_.insert(bytes_.end(), data, data + size);
}

const std::uint8_t*
WireReader::take(std::size_t n)
{
    if (!ok_ || n > remaining_) {
        ok_ = false;
        return nullptr;
    }
    const std::uint8_t* at = p_;
    p_ += n;
    remaining_ -= n;
    return at;
}

std::uint8_t
WireReader::u8()
{
    const std::uint8_t* p = take(1);
    return p ? *p : 0;
}

std::uint32_t
WireReader::u32()
{
    const std::uint8_t* p = take(4);
    if (!p)
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
WireReader::u64()
{
    const std::uint8_t* p = take(8);
    if (!p)
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

double
WireReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
WireReader::str()
{
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    if (!p)
        return {};
    return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<std::uint8_t>
WireReader::blob()
{
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    if (!p)
        return {};
    return std::vector<std::uint8_t>(p, p + n);
}

WireWriter
beginMessage(MsgType type)
{
    WireWriter w;
    w.u8(kServerProtocolVersion);
    w.u8(static_cast<std::uint8_t>(type));
    return w;
}

std::optional<MsgType>
peekMessage(const std::vector<std::uint8_t>& payload)
{
    if (payload.size() < 2)
        return std::nullopt;
    if (payload[0] != kServerProtocolVersion)
        return std::nullopt;
    switch (static_cast<MsgType>(payload[1])) {
    case MsgType::Hello:
    case MsgType::PrepareServing:
    case MsgType::Prewarm:
    case MsgType::Serve:
    case MsgType::Shutdown:
    case MsgType::Metrics:
    case MsgType::BumpEpoch:
    case MsgType::HelloOk:
    case MsgType::PrepareOk:
    case MsgType::PrewarmOk:
    case MsgType::ServeOk:
    case MsgType::ShutdownOk:
    case MsgType::MetricsOk:
    case MsgType::BumpEpochOk:
    case MsgType::Error:
        return static_cast<MsgType>(payload[1]);
    }
    return std::nullopt;
}

bool
writeFrame(int fd, const std::vector<std::uint8_t>& payload)
{
    return writeFrame(fd, payload, 0, nullptr);
}

bool
writeFrame(int fd, const std::vector<std::uint8_t>& payload,
           int timeout_ms, FrameError* why)
{
    FrameError reason = FrameError::None;
    if (why != nullptr)
        *why = FrameError::None;
    if (payload.empty() || payload.size() > kMaxFramePayload) {
        if (why != nullptr)
            *why = FrameError::Closed;
        return false;
    }
    std::uint8_t prefix[4];
    const auto n = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        prefix[i] = static_cast<std::uint8_t>(n >> (8 * i));
    bool ok;
    if (timeout_ms <= 0) {
        ok = writeFull(fd, prefix, sizeof(prefix)) &&
             writeFull(fd, payload.data(), payload.size());
        reason = ok ? FrameError::None : FrameError::Closed;
    } else {
        const auto deadline = DeadlineClock::now() +
                              std::chrono::milliseconds(timeout_ms);
        ok = writeFullDeadline(fd, prefix, sizeof(prefix), deadline,
                               reason) &&
             writeFullDeadline(fd, payload.data(), payload.size(),
                               deadline, reason);
    }
    if (why != nullptr)
        *why = reason;
    return ok;
}

std::optional<std::vector<std::uint8_t>>
readFrame(int fd)
{
    return readFrame(fd, 0, nullptr);
}

std::optional<std::vector<std::uint8_t>>
readFrame(int fd, int timeout_ms, FrameError* why)
{
    FrameError reason = FrameError::None;
    if (why != nullptr)
        *why = FrameError::None;
    const auto deadline =
        DeadlineClock::now() + std::chrono::milliseconds(
                                   timeout_ms > 0 ? timeout_ms : 0);
    const auto read_full = [&](void* buffer, std::size_t n) {
        if (timeout_ms <= 0) {
            const bool ok = readFull(fd, buffer, n);
            reason = ok ? FrameError::None : FrameError::Closed;
            return ok;
        }
        return readFullDeadline(fd, buffer, n, deadline, reason);
    };
    std::uint8_t prefix[4];
    if (!read_full(prefix, sizeof(prefix))) {
        if (why != nullptr)
            *why = reason;
        return std::nullopt;
    }
    std::uint32_t n = 0;
    for (int i = 0; i < 4; ++i)
        n |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
    // A zero or oversized prefix is a protocol violation, not a
    // request: reject before allocating a byte.
    if (n == 0 || n > kMaxFramePayload) {
        if (why != nullptr)
            *why = FrameError::Closed;
        return std::nullopt;
    }
    std::vector<std::uint8_t> payload(n);
    if (!read_full(payload.data(), n)) {
        if (why != nullptr)
            *why = reason;
        return std::nullopt;
    }
    return payload;
}

bool
setTcpNoDelay(int fd)
{
    const int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                        sizeof(one)) == 0;
}

void
encodeCircuit(WireWriter& w, const Circuit& circuit)
{
    for (char m : kCircuitMagic)
        w.u8(static_cast<std::uint8_t>(m));
    w.u32(kCircuitFormatVersion);
    w.u32(static_cast<std::uint32_t>(circuit.numQubits()));
    w.u32(static_cast<std::uint32_t>(circuit.size()));
    for (const GateOp& op : circuit.ops()) {
        w.u8(static_cast<std::uint8_t>(op.kind));
        w.i32(op.q0);
        w.i32(op.q1);
        w.i32(op.angle.index);
        w.f64(op.angle.coeff);
        w.f64(op.angle.offset);
    }
}

std::optional<Circuit>
decodeCircuit(WireReader& r)
{
    for (char m : kCircuitMagic)
        if (r.u8() != static_cast<std::uint8_t>(m))
            return std::nullopt;
    if (r.u32() != kCircuitFormatVersion)
        return std::nullopt;
    const std::uint32_t qubits = r.u32();
    const std::uint32_t ops = r.u32();
    if (!r.ok() || qubits == 0 || qubits > kMaxWireQubits ||
        ops > kMaxWireOps)
        return std::nullopt;
    Circuit circuit(static_cast<int>(qubits));
    for (std::uint32_t i = 0; i < ops; ++i) {
        GateOp op;
        const std::uint8_t kind = r.u8();
        op.q0 = r.i32();
        op.q1 = r.i32();
        op.angle.index = r.i32();
        op.angle.coeff = r.f64();
        op.angle.offset = r.f64();
        if (!r.ok())
            return std::nullopt;
        // Validate everything Circuit::add would panic on (plus wire
        // sanity): hostile bytes must degrade to a decode error.
        if (kind > static_cast<std::uint8_t>(GateKind::ISwap))
            return std::nullopt;
        op.kind = static_cast<GateKind>(kind);
        const int width = static_cast<int>(qubits);
        if (op.q0 < 0 || op.q0 >= width)
            return std::nullopt;
        if (op.arity() == 2 &&
            (op.q1 < 0 || op.q1 >= width || op.q1 == op.q0))
            return std::nullopt;
        if (op.angle.index < -1 || op.angle.index > kMaxWireParamIndex)
            return std::nullopt;
        if (!std::isfinite(op.angle.coeff) ||
            !std::isfinite(op.angle.offset))
            return std::nullopt;
        circuit.add(op);
    }
    return circuit;
}

std::vector<std::uint8_t>
encodeCircuit(const Circuit& circuit)
{
    WireWriter w;
    encodeCircuit(w, circuit);
    return w.take();
}

std::optional<Circuit>
decodeCircuit(const std::vector<std::uint8_t>& bytes)
{
    WireReader r(bytes);
    std::optional<Circuit> circuit = decodeCircuit(r);
    if (!circuit || !r.done())
        return std::nullopt;
    return circuit;
}

void
encodeWireHistogram(WireWriter& w,
                    const MetricsSnapshot::HistogramSample& h)
{
    w.str(h.name);
    w.u64(h.histogram.count);
    w.u64(h.histogram.sumNs);
    w.u64(h.histogram.minNs);
    w.u64(h.histogram.maxNs);
    w.u32(static_cast<std::uint32_t>(h.histogram.buckets.size()));
    for (const auto& [index, count] : h.histogram.buckets) {
        w.u32(index);
        w.u64(count);
    }
}

std::optional<MetricsSnapshot::HistogramSample>
decodeWireHistogram(WireReader& r)
{
    MetricsSnapshot::HistogramSample h;
    h.name = r.str();
    h.histogram.count = r.u64();
    h.histogram.sumNs = r.u64();
    h.histogram.minNs = r.u64();
    h.histogram.maxNs = r.u64();
    const std::uint32_t buckets = r.u32();
    if (!r.ok() || h.name.empty() ||
        h.name.size() > kMaxWireMetricName ||
        buckets >
            static_cast<std::uint32_t>(LatencyHistogram::kNumBuckets))
        return std::nullopt;
    // Structural invariants every consumer (percentile walks,
    // exposition rendering, merges) relies on: sorted unique indices
    // in range, no zero-count buckets, bucket counts summing to the
    // total, and a coherent min/max. Rejecting here means a decoded
    // snapshot is always as well-formed as a locally recorded one.
    std::uint64_t total = 0;
    std::int64_t prev = -1;
    for (std::uint32_t i = 0; i < buckets; ++i) {
        const std::uint32_t index = r.u32();
        const std::uint64_t count = r.u64();
        if (!r.ok() ||
            index >= static_cast<std::uint32_t>(
                         LatencyHistogram::kNumBuckets) ||
            static_cast<std::int64_t>(index) <= prev || count == 0)
            return std::nullopt;
        prev = static_cast<std::int64_t>(index);
        total += count;
        h.histogram.buckets.emplace_back(index, count);
    }
    if (total != h.histogram.count)
        return std::nullopt;
    if (h.histogram.count == 0) {
        if (h.histogram.minNs != 0 || h.histogram.maxNs != 0 ||
            h.histogram.sumNs != 0)
            return std::nullopt;
    } else if (h.histogram.minNs > h.histogram.maxNs) {
        return std::nullopt;
    }
    return h;
}

void
encodeMetrics(WireWriter& w, const MetricsSnapshot& snap)
{
    w.u32(static_cast<std::uint32_t>(snap.counters.size()));
    for (const auto& c : snap.counters) {
        w.str(c.name);
        w.u64(c.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
    for (const auto& g : snap.gauges) {
        w.str(g.name);
        w.f64(g.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
    for (const auto& h : snap.histograms)
        encodeWireHistogram(w, h);
}

std::optional<MetricsSnapshot>
decodeMetrics(WireReader& r)
{
    MetricsSnapshot snap;
    const std::uint32_t counters = r.u32();
    if (!r.ok() || counters > kMaxWireMetrics)
        return std::nullopt;
    snap.counters.reserve(counters);
    for (std::uint32_t i = 0; i < counters; ++i) {
        MetricsSnapshot::CounterSample c;
        c.name = r.str();
        c.value = r.u64();
        if (!r.ok() || c.name.empty() ||
            c.name.size() > kMaxWireMetricName)
            return std::nullopt;
        snap.counters.push_back(std::move(c));
    }
    const std::uint32_t gauges = r.u32();
    if (!r.ok() || gauges > kMaxWireMetrics)
        return std::nullopt;
    snap.gauges.reserve(gauges);
    for (std::uint32_t i = 0; i < gauges; ++i) {
        MetricsSnapshot::GaugeSample g;
        g.name = r.str();
        g.value = r.f64();
        if (!r.ok() || g.name.empty() ||
            g.name.size() > kMaxWireMetricName)
            return std::nullopt;
        snap.gauges.push_back(std::move(g));
    }
    const std::uint32_t histograms = r.u32();
    if (!r.ok() || histograms > kMaxWireMetrics)
        return std::nullopt;
    snap.histograms.reserve(histograms);
    for (std::uint32_t i = 0; i < histograms; ++i) {
        auto h = decodeWireHistogram(r);
        if (!h)
            return std::nullopt;
        snap.histograms.push_back(std::move(*h));
    }
    if (!r.ok())
        return std::nullopt;
    return snap;
}

} // namespace qpc
