/**
 * @file
 * Wire protocol of the multi-tenant compile server.
 *
 * Transport: length-prefixed binary frames over a stream socket (unix
 * domain by default, TCP behind a flag):
 *
 *   u32   payload length N (little-endian; 0 < N <= kMaxFramePayload)
 *   u8[N] payload
 *
 * Payload: u8 protocol version, u8 message type, then the type's body.
 * All integers are little-endian; doubles travel as raw IEEE-754 bits
 * (the same convention as the "QPLS" pulse record, which rides inside
 * Serve replies unchanged).
 *
 * Message bodies (requests):
 *   Hello           str tenant
 *   PrepareServing  circuit ("QCIR" record, below)
 *   Prewarm         u64 planId
 *   Serve           u64 planId, u8 wantPulses, u32 n, f64 theta[n]
 *   Shutdown        (empty)
 *   Metrics         (empty)
 *   BumpEpoch       u64 modelHash (0 = keep the current device-model
 *                   hash; the counter always advances)
 *
 * Replies:
 *   HelloOk     u32 tenantId, u64 maxPlans, u64 maxServedBytes,
 *               u64 maxConcurrentBulk, u64 epochCounter,
 *               u64 epochModelHash (the server's calibration epoch at
 *               connect, so a fleet client knows which calibration it
 *               is about to serve against)
 *   PrepareOk   u64 planId, u32 numFixedBlocks, u32 numParamGates
 *   PrewarmOk   u32 uniqueBlocks, u64 synthRuns, u64 cacheHits,
 *               f64 wallSeconds
 *   ServeOk     f64 pulseNs, u64 cacheHits, u64 cacheMisses,
 *               u64 quantHits, u64 quantMisses, u64 exactServes,
 *               f64 quantErrorBound, u64 epochCounter (the epoch the
 *               serving plan is keyed to — lags the server epoch
 *               until the plan is re-keyed after a bump, so clients
 *               detect mid-flight calibration drift), u32 numSegments,
 *               then when wantPulses: numSegments x (u32 len,
 *               u8[len] "QPLS" pulse record)
 *   BumpEpochOk u64 newCounter, u64 modelHash, u32 plansRekeyed
 *   ShutdownOk  (empty)
 *   MetricsOk   MetricsSnapshot (see decodeMetrics): counters,
 *               gauges, and WireHistogram-encoded latency
 *               distributions, renderable as Prometheus text on
 *               either end of the wire
 *   Error       u32 code, str message
 *
 * Strings are u32 length + raw bytes. Decoding never trusts its input:
 * a malformed body reads as an error on that connection only, the
 * server stays up for every other tenant.
 *
 * Circuits travel as a versioned "QCIR" record so a serving template
 * survives the trip bit-exactly (ParamExpr coefficients included):
 *
 *   bytes 0..3  magic "QCIR"
 *   u32         format version (currently 1)
 *   u32         numQubits
 *   u32         numOps
 *   per op:     u8 kind, i32 q0, i32 q1,
 *               i32 paramIndex, f64 coeff, f64 offset
 */

#ifndef QPC_SERVER_PROTOCOL_H
#define QPC_SERVER_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/circuit.h"
#include "telemetry/metrics.h"

namespace qpc {

/** Protocol version spoken by this build (frames carry it). Version 2
 * added calibration epochs: HelloOk/ServeOk epoch fields and the
 * BumpEpoch admin request. Version 3 removed the Stats request and
 * its reply (type bytes 5 and 69): every server counter travels in
 * MetricsOk. */
inline constexpr std::uint8_t kServerProtocolVersion = 3;

/** Circuit record format version inside PrepareServing bodies. */
inline constexpr std::uint32_t kCircuitFormatVersion = 1;

/**
 * Hard ceiling on one frame's payload. A length prefix past this reads
 * as a malformed frame (connection error), never as an allocation: a
 * garbage or hostile prefix must not let one tenant balloon server
 * memory.
 */
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/** Every message type on the wire. Requests < 64, replies >= 64.
 * 5 and 69 (the Stats request and reply until version 2) stay
 * unassigned. */
enum class MsgType : std::uint8_t {
    Hello = 1,
    PrepareServing = 2,
    Prewarm = 3,
    Serve = 4,
    Shutdown = 6,
    Metrics = 7,
    BumpEpoch = 8,

    HelloOk = 65,
    PrepareOk = 66,
    PrewarmOk = 67,
    ServeOk = 68,
    ShutdownOk = 70,
    MetricsOk = 71,
    BumpEpochOk = 72,
    Error = 127,
};

/** Error frame codes. */
enum class WireError : std::uint32_t {
    None = 0,          ///< Never sent on the wire: a client whose last
                       ///< call succeeded reports this cleared state.
    BadRequest = 1,    ///< Malformed body / unknown type / bad version.
    QuotaExceeded = 2, ///< Tenant quota (plans, bytes, bulk) exhausted.
    NotFound = 3,      ///< Unknown plan id.
    Internal = 4,      ///< Server-side failure serving the request.
    ShuttingDown = 5,  ///< Server is draining; retry elsewhere.
    Busy = 6,          ///< Server at session capacity; back off + retry.
};

/** Little-endian serializer for message bodies. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v);
    /** u32 length + raw bytes. */
    void str(const std::string& s);
    /** u32 length + raw bytes. */
    void blob(const std::vector<std::uint8_t>& b);
    /** Raw bytes, no length prefix (self-delimiting sub-records). */
    void raw(const std::uint8_t* data, std::size_t size);

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Little-endian deserializer. Never reads past the end: the first
 * short read latches ok() false and every later read returns zeros,
 * so decoding loops stay simple and a truncated body cannot walk off
 * the buffer.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t* data, std::size_t size)
        : p_(data), remaining_(size)
    {
    }
    explicit WireReader(const std::vector<std::uint8_t>& bytes)
        : WireReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64();
    /** u32 length + bytes; empty (and !ok()) on a lying length. */
    std::string str();
    std::vector<std::uint8_t> blob();

    /** False once any read ran past the available bytes. */
    bool ok() const { return ok_; }
    /** True when every byte was consumed and no read failed. */
    bool done() const { return ok_ && remaining_ == 0; }
    std::size_t remaining() const { return remaining_; }

  private:
    const std::uint8_t* take(std::size_t n);

    const std::uint8_t* p_ = nullptr;
    std::size_t remaining_ = 0;
    bool ok_ = true;
};

/** Start a message payload: version byte + type byte. */
WireWriter beginMessage(MsgType type);

/**
 * Parse a payload's two-byte header. nullopt when the payload is too
 * short, carries the wrong protocol version, or an unknown type.
 */
std::optional<MsgType> peekMessage(const std::vector<std::uint8_t>& payload);

/** @name Frame transport over a connected stream socket
 *  @{ */

/** Why a deadline-aware frame operation produced no frame. */
enum class FrameError {
    None = 0, ///< Success (or the call has not failed yet).
    Closed,   ///< EOF, reset, or any other terminal I/O failure.
    Timeout,  ///< The deadline expired before the frame completed.
};

/** Write one length-prefixed frame; false on any I/O error. */
bool writeFrame(int fd, const std::vector<std::uint8_t>& payload);

/**
 * Deadline-aware writeFrame: the whole frame (prefix + payload) must
 * drain within timeout_ms, measured from the call — a peer that
 * stops reading cannot pin the writer past the deadline. timeout_ms
 * <= 0 waits forever (the blocking overload). `why`, when non-null,
 * distinguishes a dead peer from an expired deadline.
 */
bool writeFrame(int fd, const std::vector<std::uint8_t>& payload,
                int timeout_ms, FrameError* why);

/**
 * Read one frame. nullopt on clean EOF before a frame starts, a
 * disconnect mid-frame, an oversized or zero length prefix, or any
 * I/O error — the caller drops the connection either way.
 */
std::optional<std::vector<std::uint8_t>> readFrame(int fd);

/**
 * Deadline-aware readFrame: the whole frame must arrive within
 * timeout_ms of the call, so both a silent peer and a byte-trickling
 * one hit the deadline. timeout_ms <= 0 waits forever. `why`, when
 * non-null, distinguishes EOF/error (Closed) from an expired
 * deadline (Timeout) — the server reaps idle sessions on the latter.
 */
std::optional<std::vector<std::uint8_t>>
readFrame(int fd, int timeout_ms, FrameError* why);

/**
 * Disable Nagle on a TCP socket. The serve loop is a stream of small
 * request/reply frames; Nagle + delayed ACK can add ~40 ms per
 * round-trip. No-op (false) on non-TCP fds.
 */
bool setTcpNoDelay(int fd);
/** @} */

/** @name Versioned circuit record ("QCIR")
 *  @{ */

/** Append a circuit record to a body under construction. */
void encodeCircuit(WireWriter& w, const Circuit& circuit);

/**
 * Decode an in-stream circuit record. nullopt on bad magic, version,
 * counts, gate kinds, qubit indices, or non-finite coefficients —
 * validated here so a hostile record can never reach Circuit::add's
 * panics.
 */
std::optional<Circuit> decodeCircuit(WireReader& r);

/** Whole-buffer convenience wrappers (tests, tooling). */
std::vector<std::uint8_t> encodeCircuit(const Circuit& circuit);
std::optional<Circuit>
decodeCircuit(const std::vector<std::uint8_t>& bytes);
/** @} */

/** @name MetricsOk body: the server's metric registry on the wire
 *
 * Layout:
 *   u32 numCounters,   per counter:   str name, u64 value
 *   u32 numGauges,     per gauge:     str name, f64 value
 *   u32 numHistograms, per histogram: WireHistogram
 *
 * WireHistogram:
 *   str name, u64 count, u64 sumNs, u64 minNs, u64 maxNs,
 *   u32 numNonzeroBuckets, per bucket: u32 index, u64 count
 *
 * Decoding validates every structural invariant a snapshot relies on
 * (bucket indices in range and strictly increasing, bucket counts
 * nonzero and summing to `count`, min <= max, section sizes bounded),
 * so a hostile body can never produce a snapshot whose percentile
 * walk misbehaves.
 *  @{ */

/** Ceiling on each metric section's element count on the wire. */
inline constexpr std::uint32_t kMaxWireMetrics = 1u << 14;
/** Ceiling on a metric name's length on the wire. */
inline constexpr std::uint32_t kMaxWireMetricName = 512;

/** Append one named histogram snapshot to a body. */
void encodeWireHistogram(WireWriter& w,
                         const MetricsSnapshot::HistogramSample& h);

/** Decode one named histogram; nullopt on malformed bytes. */
std::optional<MetricsSnapshot::HistogramSample>
decodeWireHistogram(WireReader& r);

/** Append a whole metrics snapshot to a MetricsOk body. */
void encodeMetrics(WireWriter& w, const MetricsSnapshot& snap);

/** Decode a MetricsOk body; nullopt on malformed bytes. */
std::optional<MetricsSnapshot> decodeMetrics(WireReader& r);
/** @} */

} // namespace qpc

#endif // QPC_SERVER_PROTOCOL_H
