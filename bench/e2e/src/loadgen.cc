#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <exception>
#include <functional>
#include <sys/prctl.h>
#include <thread>

#include "common/rng.h"

namespace qpc::e2e {

namespace {

/** How early a generator wakes before a send, to spin the rest: a
 * sleeping thread on a virtualized host wakes tens of microseconds
 * late, which would otherwise dominate the latency of a fast serve. */
constexpr std::uint64_t kSpinNs = 40000;

/** Wait until an absolute monotonic time: sleep (timer slack 1 ns),
 * then spin the last kSpinNs. */
void
waitUntilNs(std::uint64_t ns)
{
    if (ns > kSpinNs && monoNs() + kSpinNs < ns) {
        const std::uint64_t wake = ns - kSpinNs;
        timespec ts;
        ts.tv_sec = static_cast<time_t>(wake / 1000000000ull);
        ts.tv_nsec = static_cast<long>(wake % 1000000000ull);
        while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                                 nullptr) != 0) {
        }
    }
    while (monoNs() < ns) {
    }
}

/** One Serve with its reply checks; false when no reply came. */
bool
serveOnce(ServeSession& session, const ServeSpec& spec,
          const std::vector<double>& theta, StepResult& out)
{
    const auto reply =
        session.client->serve(session.planId, theta, spec.wantPulses);
    ++out.attempted;
    if (!reply) {
        ++out.failed;
        return false;
    }
    if (reply->numSegments != spec.expectedSegments ||
        (spec.wantPulses && reply->pulses.size() != spec.expectedSegments))
        ++out.badSegments;
    return true;
}

/** Thread k's share of the step: requests j = k, k + N, k + 2N, ... */
void
generate(ServeSession& session, const ServeSpec& spec, int k, int n,
         double rate, double seconds, std::uint64_t t0, Rng rng,
         StepResult& out)
{
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const double periodNs = 1e9 / rate;
    std::uint64_t prevDone = 0;
    for (std::uint64_t j = static_cast<std::uint64_t>(k);; j += n) {
        const double offsetNs = static_cast<double>(j) * periodNs;
        if (offsetNs >= seconds * 1e9)
            break;
        const std::uint64_t intended =
            t0 + static_cast<std::uint64_t>(offsetNs);
        const std::vector<double> theta = rng.angles(spec.numParams);
        waitUntilNs(intended);
        const std::uint64_t sent = monoNs();
        const bool ok = serveOnce(session, spec, theta, out);
        const std::uint64_t done = monoNs();
        if (!ok)
            continue;
        ServeSample s;
        s.intendedS = offsetNs / 1e9;
        s.latencyUs = static_cast<double>(done - intended) / 1e3;
        s.rttUs = static_cast<double>(done - sent) / 1e3;
        s.lateUs = static_cast<double>(sent - intended) / 1e3;
        s.genLateUs =
            static_cast<double>(sent - std::max(intended, prevDone)) /
            1e3;
        prevDone = done;
        out.samples.push_back(s);
    }
}

/** Run body(k, part) on threads 1..N-1 and the caller's (k = 0), join
 * them all (rethrowing the first failure), then merge the parts. */
StepResult
onEverySession(std::size_t n,
               const std::function<void(int, StepResult&)>& body)
{
    std::vector<StepResult> parts(n);
    std::vector<std::exception_ptr> errors(n);
    const auto guarded = [&](std::size_t k) {
        try {
            body(static_cast<int>(k), parts[k]);
        } catch (...) {
            errors[k] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t k = 1; k < n; ++k)
        threads.emplace_back(guarded, k);
    guarded(0);
    for (std::thread& t : threads)
        t.join();
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
    StepResult merged;
    for (StepResult& part : parts) {
        merged.samples.insert(merged.samples.end(), part.samples.begin(),
                              part.samples.end());
        merged.attempted += part.attempted;
        merged.failed += part.failed;
        merged.badSegments += part.badSegments;
    }
    return merged;
}

} // namespace

StepResult
runOpenLoop(std::vector<ServeSession>& sessions, const ServeSpec& spec,
            double rate, double seconds, std::uint64_t seed)
{
    const int n = static_cast<int>(sessions.size());
    // A short lead so every thread is parked before the first slot.
    const std::uint64_t t0 = monoNs() + 2000000;
    StepResult step =
        onEverySession(sessions.size(), [&](int k, StepResult& part) {
            generate(sessions[k], spec, k, n, rate, seconds, t0,
                     Rng(seed * 1000003ull + k), part);
        });
    step.rate = rate;
    step.seconds = seconds;
    std::sort(step.samples.begin(), step.samples.end(),
              [](const ServeSample& a, const ServeSample& b) {
                  return a.intendedS < b.intendedS;
              });
    return step;
}

StepResult
runClosedLoop(std::vector<ServeSession>& sessions, const ServeSpec& spec,
              double seconds, std::uint64_t seed)
{
    const std::uint64_t t0 = monoNs();
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(seconds * 1e9);
    StepResult step =
        onEverySession(sessions.size(), [&](int k, StepResult& part) {
            Rng rng(seed * 1000003ull + k);
            while (monoNs() < deadline)
                serveOnce(sessions[k], spec, rng.angles(spec.numParams),
                          part);
        });
    step.seconds = static_cast<double>(monoNs() - t0) / 1e9;
    step.rate = (step.attempted - step.failed) / step.seconds;
    return step;
}

StepStats
analyzeStep(const StepResult& step, double sloUs)
{
    StepStats stats;
    stats.rate = step.rate;
    stats.samples = step.samples.size();
    if (step.samples.empty())
        return stats;

    const auto field = [&](std::size_t lo, std::size_t hi,
                           double ServeSample::*member) {
        std::vector<double> v;
        v.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i)
            v.push_back(step.samples[i].*member);
        return v;
    };
    const std::size_t n = step.samples.size();
    const std::vector<double> latency = field(0, n, &ServeSample::latencyUs);
    stats.p50Us = percentile(latency, 50);
    stats.p90Us = percentile(latency, 90);
    stats.p99Us = percentile(latency, 99);
    stats.p999Us = percentile(latency, 99.9);
    stats.rttP50Us = percentile(field(0, n, &ServeSample::rttUs), 50);
    stats.genLateP99Us =
        percentile(field(0, n, &ServeSample::genLateUs), 99);
    stats.backlogGrowthUs =
        median(field(n - n / 4, n, &ServeSample::lateUs)) -
        median(field(0, n / 4 + 1, &ServeSample::lateUs));
    // The generator shares the host with the daemon; when its own
    // wake-ups slip by half the SLO the step measures the generator.
    stats.valid = stats.genLateP99Us <= sloUs / 2;
    stats.pass = stats.valid && step.failed == 0 &&
                 step.badSegments == 0 && stats.p99Us <= sloUs &&
                 stats.backlogGrowthUs <= sloUs / 4;
    return stats;
}

LadderResult
runLadder(std::vector<ServeSession>& sessions, const ServeSpec& spec,
          double startRate, double factor, double stepSeconds,
          int refineSteps, double budgetSeconds, double sloUs,
          std::uint64_t seed)
{
    LadderResult ladder;
    const auto t0 = Clock::now();
    const auto step = [&](double rate) {
        const StepResult raw = runOpenLoop(sessions, spec, rate,
                                           stepSeconds,
                                           seed + ladder.steps.size());
        ladder.attempted += raw.attempted;
        ladder.failed += raw.failed;
        ladder.badSegments += raw.badSegments;
        ladder.steps.push_back(analyzeStep(raw, sloUs));
        return ladder.steps.back().pass;
    };
    const auto budgetLeft = [&] {
        return secondsSince(t0) + stepSeconds <= budgetSeconds;
    };

    double passed = 0.0, failed = 0.0;
    for (double rate = startRate; budgetLeft(); rate *= factor) {
        if (!step(rate)) {
            failed = rate;
            break;
        }
        passed = rate;
    }
    // Geometric bisection of the bracket [passed, failed).
    for (int i = 0; i < refineSteps && passed > 0.0 && failed > 0.0 &&
                    budgetLeft();
         ++i) {
        const double mid = std::sqrt(passed * failed);
        if (step(mid))
            passed = mid;
        else
            failed = mid;
    }
    ladder.maxRateAtSlo = passed;
    return ladder;
}

} // namespace qpc::e2e
