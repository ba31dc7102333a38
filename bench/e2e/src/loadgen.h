/**
 * @file
 * Open-loop serve generator: one thread and one connection per
 * tenant, every request timed from its *intended* send time so a slow
 * server cannot hide its queueing (no coordinated omission).
 */

#ifndef QPC_BENCH_E2E_LOADGEN_H
#define QPC_BENCH_E2E_LOADGEN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "server/client.h"

namespace qpc::e2e {

/** One tenant's connection and the plan it serves. */
struct ServeSession
{
    std::unique_ptr<CompileClient> client;
    std::uint64_t planId = 0;
};

/** What every Serve request asks for and what its reply must carry. */
struct ServeSpec
{
    int numParams = 0;
    bool wantPulses = false;
    std::uint32_t expectedSegments = 0;
};

/** One completed request, in microseconds. */
struct ServeSample
{
    double intendedS = 0.0; ///< Intended send, seconds into the step.
    double latencyUs = 0.0; ///< Done minus intended send.
    double rttUs = 0.0;     ///< Done minus actual send.
    double lateUs = 0.0;    ///< Actual minus intended send.
    /** The part of lateUs the server cannot explain: actual send minus
     * max(intended send, previous reply on this connection). */
    double genLateUs = 0.0;
};

/** Raw outcome of one fixed-rate step. */
struct StepResult
{
    double rate = 0.0;    ///< Offered (open) or achieved (closed) /s.
    double seconds = 0.0; ///< Step length.
    std::vector<ServeSample> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;      ///< Serve calls that returned no reply.
    std::uint64_t badSegments = 0; ///< Replies with the wrong count.
};

/** Latency summary of one step. */
struct StepStats
{
    double rate = 0.0;
    std::size_t samples = 0;
    double p50Us = 0.0;
    double p90Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double rttP50Us = 0.0;
    double genLateP99Us = 0.0;
    double backlogGrowthUs = 0.0; ///< Lateness, last vs first quarter.
    bool valid = true;            ///< The generator kept its schedule.
    bool pass = false;            ///< Valid, within SLO, no backlog.
};

/**
 * Offer `rate` serves/s for `seconds`, spread round-robin over the
 * sessions (thread k owns sessions[k]; the caller's thread is k = 0).
 * Each serve binds a fresh uniform theta drawn from `seed`.
 */
StepResult runOpenLoop(std::vector<ServeSession>& sessions,
                       const ServeSpec& spec, double rate,
                       double seconds, std::uint64_t seed);

/**
 * Closed-loop saturation: every session serves back to back for
 * `seconds`. The result's `rate` is the achieved serves per second;
 * no latency samples are kept.
 */
StepResult runClosedLoop(std::vector<ServeSession>& sessions,
                         const ServeSpec& spec, double seconds,
                         std::uint64_t seed);

/** Summarize a step against a p99 SLO; percentiles pool every sample
 * of the step. */
StepStats analyzeStep(const StepResult& step, double sloUs);

/** The rate ladder's outcome. */
struct LadderResult
{
    double maxRateAtSlo = 0.0; ///< Highest passing rate (0: none).
    std::vector<StepStats> steps;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t badSegments = 0;
};

/**
 * Climb from `startRate` by `factor` per `stepSeconds` step until a
 * step fails its SLO (or the generator falls behind), then bisect the
 * last bracket `refineSteps` times. Stops early when `budgetSeconds`
 * runs out; the answer is then a lower bound.
 */
LadderResult runLadder(std::vector<ServeSession>& sessions,
                       const ServeSpec& spec, double startRate,
                       double factor, double stepSeconds,
                       int refineSteps, double budgetSeconds,
                       double sloUs, std::uint64_t seed);

} // namespace qpc::e2e

#endif // QPC_BENCH_E2E_LOADGEN_H
