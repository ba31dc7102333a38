#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <unistd.h>
#include <vector>

#include "model/timemodel.h"
#include "partial/compiler.h"
#include "partial/strict.h"
#include "pulse/evolve.h"
#include "pulse/serialize.h"
#include "qaoa/qaoacircuit.h"
#include "qaoa/qaoadriver.h"
#include "qaoa/graph.h"
#include "runtime/service.h"
#include "runtime/threadpool.h"
#include "sim/statevector.h"
#include "testutil.h"
#include "vqe/vqedriver.h"
#include "vqe/hamiltonian.h"
#include "vqe/molecule.h"
#include "vqe/uccsd.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

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

/** Synthesizer wrapper that counts invocations and optionally sleeps. */
struct CountingSynth
{
    std::atomic<int> runs{0};

    BlockSynthesizer
    make(int sleep_ms = 0)
    {
        BlockSynthesizer inner = analyticBlockSynthesizer(0.5);
        return [this, sleep_ms, inner](const Circuit& block) {
            runs.fetch_add(1);
            if (sleep_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleep_ms));
            return inner(block);
        };
    }
};

Circuit
smallFixedBlock()
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.375);
    return c;
}

/** A small variational circuit with two identical Fixed blocks. */
Circuit
twoBlockTemplate()
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

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.numWorkers(), 4);
        for (int i = 0; i < 100; ++i)
            EXPECT_TRUE(
                pool.submit([&counter] { counter.fetch_add(1); }));
    } // Destructor drains.
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numWorkers(), 1);
    std::atomic<bool> ran{false};
    EXPECT_TRUE(pool.submit([&ran] { ran.store(true); }));
    while (!ran.load())
        std::this_thread::yield();
}

TEST(ThreadPool, BoundedQueueNeverExceedsItsCapAndRunsEverything)
{
    constexpr std::size_t kMaxQueued = 4;
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2, kMaxQueued);
        EXPECT_EQ(pool.maxQueuedJobs(), kMaxQueued);
        // 4 producers race 60 slow-ish jobs through a 4-slot queue:
        // submit() must block rather than let the FIFO balloon.
        std::vector<std::thread> producers;
        for (int t = 0; t < 4; ++t)
            producers.emplace_back([&pool, &counter] {
                for (int i = 0; i < 15; ++i)
                    EXPECT_TRUE(pool.submit([&counter] {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                        counter.fetch_add(1);
                    }));
            });
        for (std::thread& p : producers)
            p.join();
        EXPECT_LE(pool.peakQueueDepth(), kMaxQueued);
    } // Destructor drains the tail.
    EXPECT_EQ(counter.load(), 60);
}

TEST(ThreadPool, TrySubmitRefusesWhenFull)
{
    ThreadPool pool(1, 1);
    // Occupy the lone worker...
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<int> ran{0};
    ASSERT_TRUE(pool.submit([open, &ran] {
        open.wait();
        ran.fetch_add(1);
    }));
    // ... wait until the worker has actually dequeued it, then fill
    // the single queue slot.
    while (pool.queueDepth() > 0)
        std::this_thread::yield();
    ASSERT_TRUE(pool.trySubmit([open, &ran] {
        open.wait();
        ran.fetch_add(1);
    }));
    // Queue is now full: refusal, not blocking.
    EXPECT_FALSE(pool.trySubmit([] {}));
    EXPECT_EQ(pool.queueDepth(), 1u);

    gate.set_value();
    while (ran.load() < 2)
        std::this_thread::yield();
    // Space again: accepted.
    EXPECT_TRUE(pool.trySubmit([&ran] { ran.fetch_add(1); }));
    while (ran.load() < 3)
        std::this_thread::yield();
}

TEST(ThreadPool, ShutdownWakesBlockedSubmittersAndRefusesTheirJobs)
{
    // Regression: destroying a pool while producers were blocked in
    // submit() on a full queue used to strand them forever (the stop
    // never notified spaceCv_). Now the stop wakes every blocked
    // submitter and refuses its job, while already-accepted jobs
    // still run.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<int> ran{0};
    std::atomic<int> refused{0};

    auto* pool = new ThreadPool(1, 1);
    // Occupy the lone worker, then fill the single queue slot.
    ASSERT_TRUE(pool->submit([open, &ran] {
        open.wait();
        ran.fetch_add(1);
    }));
    while (pool->queueDepth() > 0)
        std::this_thread::yield();
    ASSERT_TRUE(pool->submit([open, &ran] {
        open.wait();
        ran.fetch_add(1);
    }));

    // Producers that must block: the worker is parked on the gate, so
    // the queue cannot drain.
    std::vector<std::thread> producers;
    std::atomic<int> entered{0};
    for (int t = 0; t < 3; ++t)
        producers.emplace_back([&] {
            entered.fetch_add(1);
            if (!pool->submit([&ran] { ran.fetch_add(1); }))
                refused.fetch_add(1);
        });
    while (entered.load() < 3)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // The destructor stops the pool with the gate still closed: the
    // blocked producers must be woken and refused *before* the worker
    // can finish anything.
    std::thread destroyer([pool] { delete pool; });
    for (std::thread& p : producers)
        p.join();
    EXPECT_EQ(refused.load(), 3);

    gate.set_value();
    destroyer.join();
    // Both accepted jobs still ran to completion.
    EXPECT_EQ(ran.load(), 2);
}

// ---------------------------------------------------------------------
// CompileService basics
// ---------------------------------------------------------------------

TEST(Service, CompileBlockMatchesSynthesizer)
{
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = analyticBlockSynthesizer(0.5);
    CompileService service(options);

    const Circuit block = smallFixedBlock();
    const PulseSchedule pulse = service.compileBlock(block);
    const PulseSchedule direct = analyticBlockSynthesizer(0.5)(block);
    ASSERT_EQ(pulse.numChannels(), direct.numChannels());
    for (int c = 0; c < pulse.numChannels(); ++c)
        EXPECT_EQ(pulse.channel(c), direct.channel(c));

    // The served pulse realizes the block unitary (library exactness).
    const DeviceModel device = DeviceModel::gmonClique(2);
    const double fidelity =
        traceFidelity(circuitUnitary(block),
                      evolveUnitary(device, pulse));
    EXPECT_GT(fidelity, 0.999);
}

TEST(Service, GrapeSynthesizerServesZeroDurationBlock)
{
    // The time model prices Rz(0) at 0 ns; GRAPE needs a positive
    // duration, so the synthesizer must hand it to the library.
    Circuit block(1);
    block.rz(0, 0.0);
    ASSERT_LE(PulseTimeModel().blockTimeNs(block), 0.0);

    const PulseSchedule pulse = grapeBlockSynthesizer()(block);
    const DeviceModel device = DeviceModel::gmonClique(1);
    EXPECT_TRUE(testutil::sameUpToPhase(CMatrix::identity(2),
                                        evolveUnitary(device, pulse),
                                        1e-9));
}

TEST(Service, SecondRequestHitsCache)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    const Circuit block = smallFixedBlock();
    service.compileBlock(block);
    service.compileBlock(block);
    EXPECT_EQ(synth.runs.load(), 1);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.synthRuns, 1u);
}

// ---------------------------------------------------------------------
// Single flight
// ---------------------------------------------------------------------

TEST(Service, SingleFlightDedupesConcurrentIdenticalRequests)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make(/*sleep_ms=*/50);
    CompileService service(options);

    const Circuit block = smallFixedBlock();
    constexpr int kRequesters = 16;
    std::vector<CompileService::PulseFuture> futures(kRequesters);
    std::vector<std::thread> threads;
    threads.reserve(kRequesters);
    for (int i = 0; i < kRequesters; ++i)
        threads.emplace_back([&service, &futures, &block, i] {
            futures[i] = service.requestBlock(block);
        });
    for (std::thread& t : threads)
        t.join();
    for (auto& future : futures)
        future.get();

    // N concurrent identical requests trigger exactly one GRAPE run.
    EXPECT_EQ(synth.runs.load(), 1);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRequesters));
    EXPECT_EQ(stats.synthRuns, 1u);
    // Everyone else either coalesced onto the flight or hit the cache.
    EXPECT_EQ(stats.coalesced + stats.cacheHits,
              static_cast<uint64_t>(kRequesters - 1));
}

TEST(Service, PhaseEquivalentSpellingsShareOneSynthesis)
{
    // Z and Rz(pi) realize the same unitary up to global phase, so
    // the content-addressed cache serves one pulse for both
    // spellings: one synthesis, second request is a hit.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    Circuit z(1);
    z.z(0);
    Circuit rz(1);
    rz.rz(0, 3.14159265358979323846);
    service.compileBlock(z);
    service.compileBlock(rz);
    EXPECT_EQ(synth.runs.load(), 1);
    EXPECT_EQ(service.stats().cacheHits, 1u);
}

TEST(Service, DistinctBlocksDoNotCoalesce)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make();
    CompileService service(options);

    Circuit a(1);
    a.rx(0, 0.25);
    Circuit b(1);
    b.rx(0, 0.75);
    service.compileBlock(a);
    service.compileBlock(b);
    EXPECT_EQ(synth.runs.load(), 2);
}

// ---------------------------------------------------------------------
// Batch submission
// ---------------------------------------------------------------------

TEST(Service, BatchDedupesSharedBlocksAcrossCircuits)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make();
    CompileService service(options);

    // A p-sweep over one QAOA graph: every depth repeats the same
    // cost/mixer structure, so Fixed blocks are massively shared.
    Rng rng(11);
    const Graph graph = random3Regular(6, rng);
    std::vector<Circuit> sweep;
    for (int p = 1; p <= 4; ++p)
        sweep.push_back(buildQaoaCircuit(graph, p));

    const BatchCompileReport report = service.compileBatch(sweep);
    EXPECT_EQ(report.circuits, 4);
    EXPECT_GT(report.totalBlocks, report.uniqueBlocks);
    // Each unique block synthesized exactly once.
    EXPECT_EQ(report.synthRuns,
              static_cast<uint64_t>(report.uniqueBlocks));
    EXPECT_EQ(synth.runs.load(), report.uniqueBlocks);
    EXPECT_EQ(report.cacheHits, 0u);

    // Warm rerun of the whole batch: no new synthesis, ~100% hit rate.
    const BatchCompileReport warm = service.compileBatch(sweep);
    EXPECT_EQ(warm.synthRuns, 0u);
    EXPECT_EQ(warm.uniqueBlocks, report.uniqueBlocks);
    EXPECT_EQ(warm.cacheHits,
              static_cast<uint64_t>(warm.uniqueBlocks));
    EXPECT_NEAR(warm.hitRate(), 1.0, 1e-12);
    EXPECT_EQ(synth.runs.load(), report.uniqueBlocks);
}

TEST(Service, RepeatedBlocksWithinOneCircuitCompileOnce)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    const BatchCompileReport report =
        service.precompileCircuit(twoBlockTemplate());
    EXPECT_EQ(report.totalBlocks, 2);
    EXPECT_EQ(report.uniqueBlocks, 1);
    EXPECT_EQ(synth.runs.load(), 1);
}

TEST(Service, EmptyAndFullyParametrizedTemplates)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    const BatchCompileReport empty =
        service.precompileCircuit(Circuit(3));
    EXPECT_EQ(empty.totalBlocks, 0);
    EXPECT_EQ(empty.uniqueBlocks, 0);

    Circuit all_param(1);
    all_param.rz(0, ParamExpr::theta(0));
    all_param.rx(0, ParamExpr::theta(1));
    const BatchCompileReport none =
        service.precompileCircuit(all_param);
    EXPECT_EQ(none.totalBlocks, 0);
    EXPECT_EQ(synth.runs.load(), 0);
}

// ---------------------------------------------------------------------
// Disk persistence through the service
// ---------------------------------------------------------------------

TEST(Service, WarmDiskCacheSkipsSynthesisAcrossServices)
{
    TempDir dir("qpc_service_disk");
    const Circuit templ = twoBlockTemplate();

    CountingSynth first_synth;
    {
        CompileServiceOptions options;
        options.numWorkers = 2;
        options.synthesizer = first_synth.make();
        options.cache.diskDir = dir.path();
        CompileService service(options);
        service.precompileCircuit(templ);
        EXPECT_EQ(first_synth.runs.load(), 1);
    }

    // A new service over the same directory — a fresh process in the
    // amortization story — needs zero synthesis.
    CountingSynth second_synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = second_synth.make();
    options.cache.diskDir = dir.path();
    CompileService service(options);
    const BatchCompileReport report = service.precompileCircuit(templ);
    EXPECT_EQ(second_synth.runs.load(), 0);
    EXPECT_EQ(report.synthRuns, 0u);
    EXPECT_NEAR(report.hitRate(), 1.0, 1e-12);
    EXPECT_GE(service.cacheStats().diskHits, 1u);
}

// ---------------------------------------------------------------------
// Serving (lookup-and-concatenate warm path)
// ---------------------------------------------------------------------

TEST(Service, ServeStrictIsAllHitsAfterPrecompute)
{
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    CompileService service(options);

    Rng rng(21);
    const Circuit templ = randomParametrizedCircuit(rng, 3, 3, 4);
    service.precompileCircuit(templ);

    const StrictPartition partition = strictPartition(templ);
    const std::vector<double> theta = rng.angles(templ.numParams());
    const ServedPulse served = service.serveStrict(partition, theta);

    EXPECT_EQ(served.cacheMisses, 0u);
    EXPECT_GT(served.cacheHits, 0u);
    EXPECT_GT(served.pulseNs, 0.0);
    EXPECT_EQ(served.segments.size(),
              static_cast<size_t>(served.cacheHits) +
                  partition.numParamGates());
}

TEST(Service, ServeStrictColdCompilesOnDemand)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    const Circuit templ = twoBlockTemplate();
    const StrictPartition partition = strictPartition(templ);
    const ServedPulse cold =
        service.serveStrict(partition, {0.1, 0.2});
    EXPECT_EQ(cold.cacheMisses, 1u); // Two identical blocks, one miss.
    EXPECT_EQ(cold.cacheHits, 1u);   // ... the repeat is already warm.
    EXPECT_EQ(synth.runs.load(), 1);
}

// ---------------------------------------------------------------------
// Stats accounting invariants
// ---------------------------------------------------------------------

TEST(Service, ServeLookupCountsOnceInCacheStats)
{
    // The PR 4 bugfix: a cold serve's probe-then-admit used to record
    // two CacheStats misses for one logical lookup, skewing
    // hitRate(). One logical lookup must be exactly one CacheStats
    // lookup — hit or miss.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    const Circuit templ = twoBlockTemplate();
    const StrictPartition partition = strictPartition(templ);
    // Cold serve of two identical blocks: probe-miss + probe-hit.
    service.serveStrict(partition, {0.1, 0.2});
    CacheStats cold = service.cacheStats();
    EXPECT_EQ(cold.lookups, 2u);
    EXPECT_EQ(cold.misses, 1u);
    EXPECT_EQ(cold.hits, 1u);
    EXPECT_NEAR(cold.hitRate(), 0.5, 1e-12);

    // Warm serve: two probe-hits, nothing else.
    service.serveStrict(partition, {0.3, 0.4});
    CacheStats warm = service.cacheStats();
    EXPECT_EQ(warm.lookups, 4u);
    EXPECT_EQ(warm.misses, 1u);
    EXPECT_EQ(warm.hits, 3u);
}

TEST(Service, QuantizedServeLookupCountsOnceInCacheStats)
{
    // Same invariant on the quantized bin path.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    options.quantization.enabled = true;
    options.quantization.bins = 128;
    options.quantization.fidelityBudget = 0.05;
    CompileService service(options);

    Circuit templ(1);
    templ.rz(0, ParamExpr::theta(0));
    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));

    service.serve(plan, {0.300}); // Cold bin: one lookup, one miss.
    EXPECT_EQ(service.cacheStats().lookups, 1u);
    EXPECT_EQ(service.cacheStats().misses, 1u);
    service.serve(plan, {0.3001}); // Same bin, warm: one more lookup.
    EXPECT_EQ(service.cacheStats().lookups, 2u);
    EXPECT_EQ(service.cacheStats().misses, 1u);
    EXPECT_EQ(service.cacheStats().hits, 1u);
}

TEST(Service, WarmServesCountInServiceStats)
{
    // The PR 4 bugfix: serve()'s direct warm-path probes used to
    // bypass ServiceStats entirely, so service-wide hit numbers
    // disagreed with per-serve ones. Every serve lookup is a request.
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    CompileService service(options);

    const Circuit templ = twoBlockTemplate();
    const StrictPartition partition = strictPartition(templ);
    service.precompileCircuit(templ);
    const ServiceStats before = service.stats();

    const ServedPulse served = service.serveStrict(partition, {0.1, 0.2});
    EXPECT_EQ(served.cacheHits, 2u);
    EXPECT_EQ(served.cacheMisses, 0u);

    const ServiceStats after = service.stats();
    // Four logical requests: two warm Fixed probes plus the two
    // rotations served by per-binding exact synthesis (counted since
    // the fallback-accounting fix — see
    // ExactRotationServesCountInServiceStats).
    EXPECT_EQ(after.requests - before.requests, 4u);
    EXPECT_EQ(after.cacheHits - before.cacheHits, 2u);
    EXPECT_EQ(after.exactServes - before.exactServes, 2u);
}

TEST(Service, BatchReportAccountsCoalescedAdmissions)
{
    // Two racing batches over the same sweep: admissions that join
    // the other batch's in-flight synthesis must show up as
    // `coalesced`, keeping cacheHits + synthRuns + coalesced ==
    // uniqueBlocks — the invariant that used to fail whenever a
    // concurrent batch was in flight.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make(/*sleep_ms=*/10);
    CompileService service(options);

    Rng rng(11);
    const Graph graph = random3Regular(6, rng);
    std::vector<Circuit> sweep;
    for (int p = 1; p <= 3; ++p)
        sweep.push_back(buildQaoaCircuit(graph, p));

    BatchCompileReport a, b;
    std::thread ta([&] { a = service.compileBatch(sweep); });
    std::thread tb([&] { b = service.compileBatch(sweep); });
    ta.join();
    tb.join();

    EXPECT_EQ(a.cacheHits + a.synthRuns + a.coalesced,
              static_cast<uint64_t>(a.uniqueBlocks));
    EXPECT_EQ(b.cacheHits + b.synthRuns + b.coalesced,
              static_cast<uint64_t>(b.uniqueBlocks));
    // Single flight across the race: each unique block synthesized
    // exactly once service-wide.
    EXPECT_EQ(a.synthRuns + b.synthRuns,
              static_cast<uint64_t>(a.uniqueBlocks));
    EXPECT_EQ(synth.runs.load(), a.uniqueBlocks);
    // With a 10 ms synthesis, the loser of each admission race truly
    // coalesces (it cannot find the pulse cached yet) — this is the
    // regression the `coalesced` field exists for. Both batches
    // admitting the same fingerprints concurrently makes at least one
    // coalesce overwhelmingly likely; tolerate the rare perfect
    // interleave by only requiring consistency above.
    EXPECT_EQ(service.stats().coalesced, a.coalesced + b.coalesced);
}

// ---------------------------------------------------------------------
// Backpressure / admission control
// ---------------------------------------------------------------------

TEST(Service, RejectPolicySurfacesRejectedAdmissions)
{
    // Worker pinned by a gated synthesis, one queue slot: the third
    // distinct request must be refused — invalid future, Rejected
    // outcome, stats().rejected — instead of growing the queue.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    CompileServiceOptions options;
    options.numWorkers = 1;
    options.maxQueuedJobs = 1;
    options.queueFullPolicy = QueueFullPolicy::Reject;
    BlockSynthesizer inner = analyticBlockSynthesizer(0.5);
    options.synthesizer = [open, inner](const Circuit& block) {
        open.wait();
        return inner(block);
    };
    CompileService service(options);

    Circuit b1(1), b2(1), b3(1);
    b1.rx(0, 0.25);
    b2.rx(0, 0.50);
    b3.rx(0, 0.75);

    AdmitOutcome outcome = AdmitOutcome::CacheHit;
    auto f1 = service.requestBlock(b1, &outcome);
    EXPECT_EQ(outcome, AdmitOutcome::Started);
    // Wait for the worker to dequeue b1 (it blocks on the gate), so
    // b2 deterministically occupies the single queue slot.
    while (service.queueDepth() > 0)
        std::this_thread::yield();
    auto f2 = service.requestBlock(b2, &outcome);
    EXPECT_EQ(outcome, AdmitOutcome::Started);

    auto f3 = service.requestBlock(b3, &outcome);
    EXPECT_EQ(outcome, AdmitOutcome::Rejected);
    EXPECT_FALSE(f3.valid());
    EXPECT_EQ(service.stats().rejected, 1u);

    gate.set_value();
    EXPECT_NE(f1.get(), nullptr);
    EXPECT_NE(f2.get(), nullptr);
    // With the queue drained, the shed block admits cleanly.
    auto f4 = service.requestBlock(b3, &outcome);
    EXPECT_NE(outcome, AdmitOutcome::Rejected);
    EXPECT_NE(f4.get(), nullptr);
    EXPECT_LE(service.peakQueueDepth(), options.maxQueuedJobs);
}

TEST(Service, BackpressureBoundsQueueUnderRacingDrivers)
{
    // 8 drivers hammer one bounded service with distinct blocks: the
    // queue must never exceed maxQueuedJobs (admissions block
    // instead), and every admitted block still resolves.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.maxQueuedJobs = 4;
    options.synthesizer = synth.make();
    CompileService service(options);

    constexpr int kDrivers = 8;
    constexpr int kBlocksPerDriver = 24;
    std::atomic<int> resolved{0};
    std::vector<std::thread> drivers;
    drivers.reserve(kDrivers);
    for (int d = 0; d < kDrivers; ++d)
        drivers.emplace_back([&service, &resolved, d] {
            for (int i = 0; i < kBlocksPerDriver; ++i) {
                Circuit block(1);
                block.rx(0, 0.01 * (d * kBlocksPerDriver + i) + 0.01);
                if (service.compileBlock(block).numChannels() > 0)
                    resolved.fetch_add(1);
            }
        });
    for (std::thread& d : drivers)
        d.join();

    EXPECT_EQ(resolved.load(), kDrivers * kBlocksPerDriver);
    EXPECT_LE(service.peakQueueDepth(), options.maxQueuedJobs);
    EXPECT_EQ(service.stats().rejected, 0u);
    EXPECT_EQ(synth.runs.load(), kDrivers * kBlocksPerDriver);
}

// ---------------------------------------------------------------------
// Quantized parametric serving
// ---------------------------------------------------------------------

TEST(Service, QuantizedServeHitsCacheAcrossBindings)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    options.quantization.enabled = true;
    options.quantization.bins = 128;
    // Generous budget: the test's angles sit mid-bin, where the snap
    // error can approach the grid's worst case of step/4 ~ 0.012.
    options.quantization.fidelityBudget = 0.05;
    CompileService service(options);

    const Circuit templ = twoBlockTemplate();
    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));
    service.precompilePlan(plan);
    const int fixed_runs = synth.runs.load();
    EXPECT_EQ(fixed_runs, 1); // Two identical Fixed blocks.

    // Two bindings in the same bins: the second serve is all hits.
    const ServedPulse cold = service.serve(plan, {0.300, 1.200});
    EXPECT_EQ(cold.quantMisses, 2u);
    EXPECT_EQ(cold.quantHits, 0u);
    const ServedPulse warm = service.serve(plan, {0.3001, 1.2001});
    EXPECT_EQ(warm.quantMisses, 0u);
    EXPECT_EQ(warm.quantHits, 2u);
    EXPECT_EQ(warm.quantFallbacks, 0u);
    EXPECT_EQ(synth.runs.load(), fixed_runs + 2);
    // The served pulses cover every segment either way.
    EXPECT_EQ(warm.segments.size(), cold.segments.size());
    // The advertised per-iteration snap error is within budget.
    EXPECT_LE(warm.quantErrorBound,
              options.quantization.fidelityBudget + 1e-12);
}

TEST(Service, QuantizedPlanOverrideAndExactFallback)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options); // Quantization off by default.

    const Circuit templ = twoBlockTemplate();
    const StrictPartition partition = strictPartition(templ);

    // Plan-level override flips quantization on for one run...
    ParamQuantization quantization;
    quantization.enabled = true;
    quantization.bins = 64;
    const ServingPlan quant =
        service.prepareServing(partition, quantization);
    service.precompilePlan(quant);
    const ServedPulse served = service.serve(quant, {0.4, 0.9});
    EXPECT_EQ(served.quantHits + served.quantMisses, 2u);

    // ... and a zero budget forces the exact fallback path on any
    // off-grid binding: no bin traffic, analytic lookup instead.
    ParamQuantization zero_budget = quantization;
    zero_budget.fidelityBudget = 0.0;
    const ServingPlan strict_plan =
        service.prepareServing(partition, zero_budget);
    const ServedPulse fallback =
        service.serve(strict_plan, {0.4001, 0.9001});
    EXPECT_EQ(fallback.quantFallbacks, 2u);
    EXPECT_EQ(fallback.quantHits + fallback.quantMisses, 0u);
    EXPECT_EQ(fallback.segments.size(), served.segments.size());
}

TEST(Service, QuantizedSingleFlightOneSynthesisPerTouchedBin)
{
    // The stress case of the quantized cache: many threads serve the
    // same template with adversarially close angles — all inside the
    // same grid bins — and the single-flight admission must collapse
    // the storm to exactly one synthesis per touched bin.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make(/*sleep_ms=*/2);
    options.quantization.enabled = true;
    options.quantization.bins = 256;
    CompileService service(options);

    const Circuit templ = twoBlockTemplate();
    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));
    service.precompilePlan(plan);
    const int fixed_runs = synth.runs.load();

    constexpr int kThreads = 8;
    constexpr int kServesPerThread = 25;
    const double step = options.quantization.stepRadians();
    // Centers exactly on grid points, so jitter under half a step can
    // never straddle a bin edge.
    const double center0 = 31 * step;
    const double center1 = -86 * step;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::atomic<uint64_t> fallbacks{0};
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&service, &plan, &fallbacks, step,
                              center0, center1, t] {
            Rng rng(1000 + t);
            for (int i = 0; i < kServesPerThread; ++i) {
                // Jitter well inside half a bin around two centers:
                // every thread's every serve maps to the same 2 bins.
                const double jitter = 0.2 * step * rng.uniform(-1.0, 1.0);
                const ServedPulse served = service.serve(
                    plan, {center0 + jitter, center1 + jitter});
                fallbacks.fetch_add(served.quantFallbacks);
                ASSERT_EQ(served.segments.size(), 4u);
                for (const PulsePtr& pulse : served.segments)
                    ASSERT_NE(pulse, nullptr);
            }
        });
    for (std::thread& t : threads)
        t.join();

    // Exactly one synthesis per touched bin, no matter the race.
    EXPECT_EQ(synth.runs.load(), fixed_runs + 2);
    EXPECT_EQ(fallbacks.load(), 0u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.quantHits + stats.quantMisses,
              static_cast<uint64_t>(2 * kThreads * kServesPerThread));
    EXPECT_EQ(stats.quantFallbacks, 0u);
    // Service-wide synthesis accounting agrees with the synthesizer.
    EXPECT_EQ(stats.synthRuns,
              static_cast<uint64_t>(fixed_runs) + 2u);
}

TEST(Service, PrewarmQuantizedBinsMakesFirstServeWarm)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make();
    options.cache.capacity = 8192;
    options.quantization.enabled = true;
    options.quantization.bins = 64;
    CompileService service(options);

    // Two axes (Rz and Rx) across three rotations: the grid dedupes
    // per (axis, bin), minus the shared identity bin at angle 0.
    Circuit templ(2);
    templ.h(0);
    templ.cx(0, 1);
    templ.rz(1, ParamExpr::theta(0));
    templ.rx(0, ParamExpr::theta(1));
    templ.rz(0, ParamExpr::theta(2));

    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));
    service.precompilePlan(plan);
    const int fixed_runs = synth.runs.load();

    const BatchCompileReport grid =
        service.prewarmQuantizedBins(plan);
    EXPECT_EQ(grid.totalBlocks, 3 * 64);
    // Rz and Rx grids share the identity at bin 0 (same unitary).
    EXPECT_EQ(grid.uniqueBlocks, 2 * 64 - 1);
    EXPECT_EQ(synth.runs.load(), fixed_runs + 2 * 64 - 1);

    // Any binding now serves warm.
    Rng rng(9);
    const ServedPulse served = service.serve(plan, rng.angles(3));
    EXPECT_EQ(served.quantMisses, 0u);
    EXPECT_EQ(served.quantHits, 3u);
    EXPECT_EQ(synth.runs.load(), fixed_runs + 2 * 64 - 1);

    // A disabled plan reports an empty pre-warm.
    const ServingPlan exact = service.prepareServing(
        strictPartition(templ), ParamQuantization{});
    const BatchCompileReport none =
        service.prewarmQuantizedBins(exact);
    EXPECT_EQ(none.totalBlocks, 0);
    EXPECT_EQ(none.synthRuns, 0u);
}

// ---------------------------------------------------------------------
// Driver integration
// ---------------------------------------------------------------------

TEST(Service, PartialCompilerPrecomputeGoesThroughService)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options);

    Rng rng(5);
    const Circuit templ = randomParametrizedCircuit(rng, 3, 2, 3);
    PartialCompiler compiler(templ);
    const BatchCompileReport report = compiler.precompute(service);
    EXPECT_EQ(report.uniqueBlocks, synth.runs.load());
    EXPECT_GT(report.uniqueBlocks, 0);
    // Second precompute of the same template is free.
    const BatchCompileReport warm = compiler.precompute(service);
    EXPECT_EQ(warm.synthRuns, 0u);
}

TEST(Service, PartialCompilerParametricPrewarm)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    CompileService service(options); // Service default: quantization off.

    CompilerOptions copts;
    copts.quantization.enabled = true;
    copts.quantization.bins = 32;
    // Coarse grid: raise the budget past its step/4 ~ 0.05 worst case.
    copts.quantization.fidelityBudget = 0.1;
    PartialCompiler compiler(twoBlockTemplate(), copts);
    compiler.precompute(service);
    const int fixed_runs = synth.runs.load();

    // Both rz segments share one axis: 2 x 32 grid entries, 32 unique.
    const BatchCompileReport grid =
        compiler.prewarmParametric(service);
    EXPECT_EQ(grid.totalBlocks, 2 * 32);
    EXPECT_EQ(grid.uniqueBlocks, 32);
    EXPECT_EQ(synth.runs.load(), fixed_runs + 32);

    // A plan prepared under the same quantization serves warm.
    const ServingPlan plan = service.prepareServing(
        compiler.strictPartition(), copts.quantization);
    const ServedPulse served = service.serve(plan, {0.55, -1.9});
    EXPECT_EQ(served.quantHits, 2u);
    EXPECT_EQ(served.quantMisses, 0u);
    EXPECT_EQ(synth.runs.load(), fixed_runs + 32);
}

TEST(Service, VqeDriverServesFromWarmCache)
{
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    CompileService service(options);

    const MoleculeSpec& h2 = moleculeByName("H2");
    const Circuit ansatz = buildUccsdAnsatz(h2);
    const PauliHamiltonian hamiltonian = moleculeHamiltonian(h2);

    VqeRunOptions run;
    run.optimizer.maxIterations = 8;
    run.compileService = &service;
    const VqeResult result = runVqe(ansatz, hamiltonian, run);

    EXPECT_GT(result.iterations, 0);
    EXPECT_GT(result.precompiledBlocks, 0);
    EXPECT_GT(result.servedCacheHits, 0u);
    // Everything was pre-compiled: the hybrid loop never misses.
    EXPECT_EQ(result.servedCacheMisses, 0u);
}

TEST(Service, VqeDriverOwnsServiceFromRunOptions)
{
    // serviceOptions without a compileService: the driver builds a
    // run-owned, resource-bounded service — the knob plumb-through
    // for single-run callers.
    const MoleculeSpec& h2 = moleculeByName("H2");
    const Circuit ansatz = buildUccsdAnsatz(h2);
    const PauliHamiltonian hamiltonian = moleculeHamiltonian(h2);

    VqeRunOptions run;
    run.optimizer.maxIterations = 6;
    CompileServiceOptions service;
    service.numWorkers = 2;
    service.lookupDt = 0.5;
    service.maxQueuedJobs = 8;
    service.cache.capacityBytes = 1 << 20;
    run.serviceOptions = service;
    const VqeResult result = runVqe(ansatz, hamiltonian, run);

    EXPECT_GT(result.iterations, 0);
    EXPECT_GT(result.precompiledBlocks, 0);
    EXPECT_GT(result.servedCacheHits, 0u);
    EXPECT_EQ(result.servedCacheMisses, 0u);
}

TEST(Service, PartialCompilerMakeServicePlumbsKnobs)
{
    CompilerOptions copts;
    copts.quantization.enabled = true;
    copts.quantization.bins = 32;
    copts.quantization.fidelityBudget = 0.1;
    copts.service.numWorkers = 2;
    copts.service.lookupDt = 0.5;
    copts.service.synthesizer = analyticBlockSynthesizer(0.5);
    copts.service.maxQueuedJobs = 16;
    copts.service.cache.capacity = 512;
    copts.service.cache.capacityBytes = 1 << 20;
    PartialCompiler compiler(twoBlockTemplate(), copts);

    auto service = compiler.makeService();
    ASSERT_NE(service, nullptr);
    // The facade's quantization is authoritative for the service.
    EXPECT_TRUE(service->options().quantization.enabled);
    EXPECT_EQ(service->options().quantization.bins, 32);
    EXPECT_EQ(service->options().maxQueuedJobs, 16u);
    EXPECT_EQ(service->options().cache.capacityBytes,
              static_cast<std::size_t>(1 << 20));

    // And the usual precompute/serve cycle works against it.
    compiler.precompute(*service);
    const ServingPlan plan = service->prepareServing(
        compiler.strictPartition(), copts.quantization);
    const ServedPulse served = service->serve(plan, {0.5, -0.7});
    EXPECT_EQ(served.cacheMisses, 0u);
    EXPECT_EQ(served.quantHits + served.quantMisses, 2u);
}

TEST(Service, QaoaDriverRunsQuantized)
{
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    options.cache.capacity = 8192;
    CompileService service(options);

    Rng rng(17);
    const Graph graph = random3Regular(4, rng);

    // The run-level knob overrides the (disabled) service default.
    QaoaRunOptions run;
    run.p = 1;
    run.optimizer.maxIterations = 40;
    run.compileService = &service;
    ParamQuantization quantization;
    quantization.enabled = true;
    quantization.bins = 512;
    run.quantization = quantization;
    run.prewarmQuantizedBins = true;
    const QaoaResult result = runQaoa(graph, run);

    EXPECT_GT(result.iterations, 0);
    EXPECT_GT(result.quantHits, 0u);
    EXPECT_EQ(result.quantMisses, 0u); // Grid was pre-warmed.
    EXPECT_EQ(result.quantFallbacks, 0u);
    EXPECT_EQ(result.servedCacheMisses, 0u);
    // Optimizing over the snapped angles still finds a decent cut.
    EXPECT_GT(result.approxRatio, 0.5);
}

// ---------------------------------------------------------------------
// Fallback / exact-serve request accounting (regression)
// ---------------------------------------------------------------------

TEST(Service, ExactRotationServesCountInServiceStats)
{
    // Regression: serve()'s per-binding exact path (quantization off,
    // or budget-exceeded fallback) used to synthesize without
    // touching ServiceStats.requests, so hit rates under
    // fallback-heavy workloads divided by a denominator that ignored
    // most of the traffic.
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    CompileService service(options); // Quantization off.

    const Circuit templ = twoBlockTemplate();
    const StrictPartition partition = strictPartition(templ);
    service.precompileCircuit(templ);
    const ServingPlan plan = service.prepareServing(partition);
    const ServiceStats before = service.stats();

    constexpr int kServes = 3;
    for (int i = 0; i < kServes; ++i) {
        const ServedPulse served =
            service.serve(plan, {0.1 * i, 0.2 * i});
        // Per-serve accounting mirrors the service-wide fix.
        EXPECT_EQ(served.exactServes, 2u);
        EXPECT_EQ(served.cacheHits, 2u);
    }

    const ServiceStats after = service.stats();
    // Each serve: 2 warm Fixed probes + 2 exact rotation serves —
    // all four are logical requests.
    EXPECT_EQ(after.requests - before.requests,
              static_cast<uint64_t>(4 * kServes));
    EXPECT_EQ(after.cacheHits - before.cacheHits,
              static_cast<uint64_t>(2 * kServes));
    EXPECT_EQ(after.exactServes - before.exactServes,
              static_cast<uint64_t>(2 * kServes));

    // Budget-exceeded fallbacks count the same way.
    ParamQuantization zero_budget;
    zero_budget.enabled = true;
    zero_budget.bins = 64;
    zero_budget.fidelityBudget = 0.0;
    const ServingPlan strict_plan =
        service.prepareServing(partition, zero_budget);
    const ServiceStats mid = service.stats();
    const ServedPulse fallback =
        service.serve(strict_plan, {0.4001, 0.9001});
    EXPECT_EQ(fallback.quantFallbacks, 2u);
    EXPECT_EQ(fallback.exactServes, 2u);
    const ServiceStats final_stats = service.stats();
    EXPECT_EQ(final_stats.requests - mid.requests, 4u);
    EXPECT_EQ(final_stats.exactServes - mid.exactServes, 2u);
    EXPECT_EQ(final_stats.quantFallbacks - mid.quantFallbacks, 2u);
    // The stats invariant: every request resolves as a cache hit, a
    // coalesced join, a started synthesis, or an exact serve. With
    // this single-threaded workload nothing coalesces, so hits +
    // synthesis admissions + exact serves add up exactly.
    EXPECT_EQ(final_stats.requests,
              final_stats.cacheHits + final_stats.coalesced +
                  final_stats.synthRuns + final_stats.exactServes);
}

// ---------------------------------------------------------------------
// Adaptive grid refinement
// ---------------------------------------------------------------------

/** Adaptive quantization config the refinement tests share. */
ParamQuantization
adaptiveQuantization(int bins, uint64_t visit_threshold,
                     double budget = 0.05)
{
    ParamQuantization quantization;
    quantization.enabled = true;
    quantization.adaptive = true;
    quantization.bins = bins;
    quantization.splitVisitThreshold = visit_threshold;
    quantization.fidelityBudget = budget;
    return quantization;
}

TEST(ServiceDeathTest, RejectsRefineDepthPastTheGridCap)
{
    // A depth knob past AdaptiveAngleGrid::kMaxDepth used to pass
    // validation and panic deep inside a long converging run when the
    // hot lineage finally hit the grid's hard cap; it must be
    // rejected at construction instead.
    CompileServiceOptions options;
    options.quantization = adaptiveQuantization(16, 1);
    options.quantization.maxRefineDepth =
        AdaptiveAngleGrid::kMaxDepth + 1;
    EXPECT_DEATH({ CompileService service(options); },
                 "refine depth");
}

TEST(ServiceDeathTest, RejectsBinCountPastTheKeySpace)
{
    // The grid's packed leaf key holds 24 bits of coarse bin. Every
    // quantized config, refining or not, is refused the same way: at
    // construction, and for a per-plan override at prepareServing.
    for (const bool adaptive : {false, true}) {
        ParamQuantization quantization = adaptiveQuantization(16, 4);
        quantization.adaptive = adaptive;
        quantization.bins = AdaptiveAngleGrid::kMaxBaseBins;
        CompileServiceOptions options;
        options.quantization = quantization;
        EXPECT_DEATH({ CompileService service(options); }, "bin count");

        Circuit templ(1);
        templ.rz(0, ParamExpr::theta(0));
        EXPECT_DEATH(
            {
                CompileService service(CompileServiceOptions{});
                service.prepareServing(strictPartition(templ),
                                       quantization);
            },
            "bin count");
    }
}

TEST(Service, AdaptiveRefinementServesFinerRepresentatives)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    options.quantization = adaptiveQuantization(32, 4);
    CompileService service(options);

    Circuit templ(1);
    templ.rz(0, ParamExpr::theta(0));
    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));

    // Serve one mid-bin angle until its leaf is hot.
    const double step = options.quantization.stepRadians();
    const double theta = binAngle(5, 32) + 0.3 * step;
    double coarse_bound = 0.0;
    for (int i = 0; i < 4; ++i)
        coarse_bound = service.serve(plan, {theta}).quantErrorBound;
    EXPECT_NEAR(coarse_bound, 0.15 * step, 1e-9);

    // One refinement round: the hot leaf splits, its children are
    // pre-warmed, and the stale coarse pulse is released.
    const RefinementReport round = service.refineQuantizedGrid(plan);
    EXPECT_EQ(round.axesRefined, 1);
    EXPECT_EQ(round.leavesSplit, 1);
    EXPECT_EQ(round.binsPrewarmed, 2);
    EXPECT_EQ(round.synthRuns, 2u);
    EXPECT_EQ(round.staleReleased, 1);
    EXPECT_GT(round.bytesReleased, 0u);

    // The same angle now serves warm from a leaf half as wide: the
    // realized error bound strictly drops.
    const ServedPulse fine = service.serve(plan, {theta});
    EXPECT_EQ(fine.quantHits, 1u);
    EXPECT_EQ(fine.quantMisses, 0u);
    EXPECT_LT(fine.quantErrorBound, coarse_bound);
    EXPECT_NEAR(fine.quantErrorBound, 0.05 * step / 2.0, 1e-9);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.quantRefineRounds, 1u);
    EXPECT_EQ(stats.quantSplits, 1u);
    EXPECT_EQ(stats.quantStaleReleased, 1u);
    EXPECT_EQ(stats.quantBytesReleased, round.bytesReleased);

    // Children restart cold on visits: an immediate second round has
    // nothing hot and does no work.
    const RefinementReport idle = service.refineQuantizedGrid(plan);
    EXPECT_EQ(idle.leavesSplit, 0);
    EXPECT_EQ(service.stats().quantRefineRounds, 1u);
}

TEST(Service, AdaptiveCoarseLeavesDedupeAgainstPrewarmedGrid)
{
    // The dedupe guarantee end to end: unsplit adaptive leaves carry
    // the fixed grid's representatives bit-for-bit, so a grid
    // pre-warm (which synthesizes the *fixed* bins) leaves every
    // coarse adaptive serve warm.
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.synthesizer = synth.make();
    options.cache.capacity = 8192;
    options.quantization = adaptiveQuantization(64, 8);
    CompileService service(options);

    Circuit templ(1);
    templ.rx(0, ParamExpr::theta(0));
    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));
    const BatchCompileReport grid = service.prewarmQuantizedBins(plan);
    EXPECT_EQ(grid.uniqueBlocks, 64);
    const int warm_runs = synth.runs.load();

    Rng rng(23);
    for (int i = 0; i < 20; ++i) {
        const ServedPulse served = service.serve(plan, {rng.angle()});
        EXPECT_EQ(served.quantMisses, 0u);
        EXPECT_EQ(served.quantHits, 1u);
    }
    EXPECT_EQ(synth.runs.load(), warm_runs);
}

TEST(Service, FixedAndUnrefinedAdaptivePlansServeIdentically)
{
    // A fixed grid is the adaptive grid with refinement off: until a
    // bin splits, both configs must serve the same cached pulses with
    // the same bound, and simulate exactly the reference snap — over
    // wrapped spellings of the angles and bindings whose snap
    // overdraws the per-gate budget (served exactly).
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    options.cache.capacity = 8192;
    CompileService service(options);

    Circuit templ(2);
    templ.h(0);
    templ.cx(0, 1);
    templ.rz(1, ParamExpr::theta(0));
    templ.rx(0, ParamExpr::theta(1, -0.5, 0.3));
    templ.cx(0, 1);
    templ.ry(1, ParamExpr::theta(0, 2.0));
    templ.rz(0, ParamExpr::theta(2, 1.0, -1.0));
    templ.h(1);
    const StrictPartition partition = strictPartition(templ);

    // Budget below the coarse worst case (step / 4 ~ 0.0245): roughly
    // two snaps in five fall back to exact synthesis.
    ParamQuantization fixed_grid = adaptiveQuantization(64, 1, 0.015);
    fixed_grid.adaptive = false;
    const ParamQuantization adaptive_grid =
        adaptiveQuantization(64, 1, 0.015);
    const ServingPlan fixed = service.prepareServing(partition, fixed_grid);
    const ServingPlan adaptive =
        service.prepareServing(partition, adaptive_grid);

    const auto sameBits = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    Rng rng(91);
    uint64_t quantized = 0, exact = 0;
    for (int i = 0; i < 150; ++i) {
        std::vector<double> theta = rng.angles(3);
        // Every other binding respells its angles k turns away.
        if (i % 2)
            for (double& t : theta)
                t += 2.0 * M_PI * rng.randint(-3, 3);

        const Circuit reference =
            snapSymbolicRotations(templ, theta, fixed_grid);
        for (const ServingPlan* plan : {&fixed, &adaptive}) {
            const Circuit served =
                service.snapServedRotations(*plan, templ, theta);
            ASSERT_EQ(served.size(), reference.size());
            for (int k = 0; k < served.size(); ++k) {
                const GateOp& x = served.ops()[k];
                const GateOp& y = reference.ops()[k];
                EXPECT_EQ(x.kind, y.kind);
                EXPECT_EQ(x.angle.index, y.angle.index);
                EXPECT_TRUE(sameBits(x.angle.offset, y.angle.offset))
                    << "binding " << i << " op " << k;
            }
        }

        const ServedPulse a = service.serve(fixed, theta);
        const ServedPulse b = service.serve(adaptive, theta);
        EXPECT_TRUE(sameBits(a.quantErrorBound, b.quantErrorBound));
        EXPECT_EQ(a.quantFallbacks, b.quantFallbacks);
        EXPECT_EQ(a.exactServes, b.exactServes);
        ASSERT_EQ(a.segments.size(), b.segments.size());
        // Cached segments are the same pulse object; only per-binding
        // exact syntheses are fresh (and then identical in content).
        uint64_t fresh = 0;
        for (std::size_t k = 0; k < a.segments.size(); ++k) {
            if (a.segments[k] == b.segments[k])
                continue;
            ++fresh;
            EXPECT_EQ(serializePulseSchedule(*a.segments[k]),
                      serializePulseSchedule(*b.segments[k]));
        }
        EXPECT_EQ(fresh, a.exactServes);

        // And both match the reference grid: the bound and fallbacks
        // it implies, and the cached pulse of each snapped rotation.
        double bound = 0.0;
        uint64_t fallbacks = 0;
        for (const GateOp& op : templ.ops()) {
            if (!op.angle.isSymbolic())
                continue;
            const double angle = op.angle.bind(theta);
            const double snap_bound =
                quantizationErrorBound(snapDelta(angle, fixed_grid.bins));
            if (snap_bound > fixed_grid.fidelityBudget) {
                ++fallbacks;
                continue;
            }
            bound += snap_bound;
            Circuit local(1);
            GateOp snapped = op;
            snapped.q0 = 0;
            snapped.angle =
                ParamExpr::constant(snapAngle(angle, fixed_grid.bins));
            local.add(snapped);
            const PulsePtr expected = service.requestBlock(local).get();
            EXPECT_NE(std::find(a.segments.begin(), a.segments.end(),
                                expected),
                      a.segments.end());
        }
        EXPECT_DOUBLE_EQ(a.quantErrorBound, bound);
        EXPECT_EQ(a.quantFallbacks, fallbacks);
        quantized += a.quantHits + a.quantMisses;
        exact += a.quantFallbacks;
    }
    // Both sides of the budget were exercised.
    EXPECT_GT(quantized, 0u);
    EXPECT_GT(exact, 0u);

    // Serving fed visits but nothing refined: both report the uniform
    // grid, one axis per rotation kind.
    for (const ServingPlan* plan : {&fixed, &adaptive}) {
        const AdaptiveGridStats grid = service.quantizedGridStats(*plan);
        EXPECT_EQ(grid.axes, 3);
        EXPECT_EQ(grid.leaves, 3u * 64u);
        EXPECT_EQ(grid.splits, 0u);
        EXPECT_EQ(grid.maxDepth, 0);
        EXPECT_DOUBLE_EQ(grid.worstCaseBound,
                         fixed_grid.stepRadians() / 4.0);
    }
}

TEST(Service, AdaptiveRefinementRespectsDepthAndLeafCaps)
{
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    ParamQuantization quantization = adaptiveQuantization(16, 1, 1.0);
    quantization.maxRefineDepth = 1;
    quantization.maxLeavesPerAxis = 17;
    options.quantization = quantization;
    CompileService service(options);

    Circuit templ(1);
    templ.ry(0, ParamExpr::theta(0));
    const ServingPlan plan =
        service.prepareServing(strictPartition(templ));

    const double theta = 0.8;
    service.serve(plan, {theta});
    const RefinementReport first = service.refineQuantizedGrid(plan);
    EXPECT_EQ(first.leavesSplit, 1);

    // The refined child is hot again, but sits at maxRefineDepth —
    // and the axis is at its leaf cap — so nothing further splits.
    service.serve(plan, {theta});
    service.serve(plan, {0.8 + 2.0}); // A different coarse bin, hot...
    service.serve(plan, {0.8 + 2.0});
    const RefinementReport second = service.refineQuantizedGrid(plan);
    EXPECT_EQ(second.leavesSplit, 0);

    const AdaptiveGridStats stats = service.quantizedGridStats(plan);
    EXPECT_EQ(stats.axes, 1);
    EXPECT_EQ(stats.leaves, 17u);
    EXPECT_EQ(stats.maxDepth, 1);
    EXPECT_EQ(stats.splits, 1u);
    // Unsplit leaves still advertise the coarse worst case.
    EXPECT_NEAR(stats.worstCaseBound,
                quantization.stepRadians() / 4.0, 1e-12);
}

TEST(ServiceDeathTest, RejectsVisitDecayOutsideUnitInterval)
{
    CompileServiceOptions options;
    options.quantization = adaptiveQuantization(16, 4);
    options.quantization.visitDecay = 1.5;
    EXPECT_DEATH({ CompileService service(options); },
                 "visit decay");
}

TEST(Service, VisitDecayCoolsAbandonedLeaves)
{
    // An optimizer that wanders away from a region must not leave its
    // old hot leaves compounding toward a split forever. Same serve
    // pattern twice — 7 serves, a refine round, 6 more serves — once
    // with decay and once without: only the undecayed grid still
    // splits on the accumulated (stale) heat.
    const auto splitsAfterPattern = [](double visit_decay) {
        CompileServiceOptions options;
        options.numWorkers = 2;
        ParamQuantization quantization = adaptiveQuantization(32, 8);
        quantization.visitDecay = visit_decay;
        options.quantization = quantization;
        CompileService service(options);

        Circuit templ(1);
        templ.rz(0, ParamExpr::theta(0));
        const ServingPlan plan =
            service.prepareServing(strictPartition(templ));

        const double theta = binAngle(5, 32);
        for (int i = 0; i < 7; ++i) // 7 < threshold 8: not yet hot.
            service.serve(plan, {theta});
        const RefinementReport mid = service.refineQuantizedGrid(plan);
        EXPECT_EQ(mid.leavesSplit, 0);
        for (int i = 0; i < 6; ++i)
            service.serve(plan, {theta});
        return service.refineQuantizedGrid(plan).leavesSplit;
    };

    // Undecayed: 7 + 6 = 13 visits >= 8, the leaf splits.
    EXPECT_EQ(splitsAfterPattern(1.0), 1);
    // Decayed: the refine round cools 7 visits to 1; 1 + 6 = 7 < 8,
    // the leaf stays whole.
    EXPECT_EQ(splitsAfterPattern(0.25), 0);
}

TEST(Service, EpochBumpInvalidatesCachedPulses)
{
    CountingSynth synth;
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.synthesizer = synth.make();
    options.quantization.enabled = true;
    options.quantization.bins = 16;
    CompileService service(options);
    EXPECT_EQ(service.epoch(), CalibrationEpoch{});

    Circuit templ(1);
    templ.rz(0, ParamExpr::theta(0));
    const ServingPlan before =
        service.prepareServing(strictPartition(templ));
    EXPECT_EQ(before.epoch().counter, 0u);
    service.prewarmQuantizedBins(before);
    const int warm_runs = synth.runs.load();
    EXPECT_EQ(warm_runs, 16);

    const CalibrationEpoch bumped = service.bumpEpoch(0xabcdULL);
    EXPECT_EQ(bumped.counter, 1u);
    EXPECT_EQ(bumped.modelHash, 0xabcdULL);
    EXPECT_EQ(service.epoch(), bumped);

    // The pre-bump plan captured its epoch: it keeps serving its own
    // warm pulses, untouched by the bump.
    const ServedPulse old_serve = service.serve(before, {0.8});
    EXPECT_EQ(old_serve.quantHits, 1u);
    EXPECT_EQ(old_serve.quantMisses, 0u);
    EXPECT_EQ(synth.runs.load(), warm_runs);

    // A plan prepared after the bump mints new-epoch fingerprints:
    // nothing synthesized before the bump is reachable through it, so
    // the full grid re-synthesizes — the invalidation the bump is for.
    const ServingPlan after =
        service.prepareServing(strictPartition(templ));
    EXPECT_EQ(after.epoch(), bumped);
    service.prewarmQuantizedBins(after);
    EXPECT_EQ(synth.runs.load(), 2 * warm_runs);

    // Warm within its own epoch thereafter.
    const ServedPulse new_serve = service.serve(after, {0.8});
    EXPECT_EQ(new_serve.quantHits, 1u);
    EXPECT_EQ(synth.runs.load(), 2 * warm_runs);
}

TEST(Service, AdaptiveServeDuringRefinementStress)
{
    // The TSan-lane stress: drivers hammer serve() on a plan while
    // another thread refines it in place. Topology handoff must be
    // race-free and every serve must resolve a complete pulse. The
    // fixed config serves through the same axis lock; its refinement
    // rounds are no-ops.
    for (const bool adaptive : {true, false}) {
        SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
        CountingSynth synth;
        CompileServiceOptions options;
        options.numWorkers = 4;
        options.synthesizer = synth.make();
        options.cache.capacity = 8192;
        options.quantization = adaptiveQuantization(64, 2, 1.0);
        options.quantization.adaptive = adaptive;
        CompileService service(options);

        Circuit templ(1);
        templ.rz(0, ParamExpr::theta(0));
        const ServingPlan plan =
            service.prepareServing(strictPartition(templ));

        constexpr int kThreads = 4;
        constexpr int kServesPerThread = 60;
        std::atomic<uint64_t> served_rotations{0};
        std::atomic<bool> stop{false};
        std::vector<std::thread> drivers;
        drivers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            drivers.emplace_back([&service, &plan, &served_rotations, t] {
                Rng rng(400 + t);
                for (int i = 0; i < kServesPerThread; ++i) {
                    // Cluster around a few centers so leaves go hot
                    // and refinement races the serves that feed it.
                    const double center = 0.9 * (t % 2 ? 1.0 : -1.0);
                    const ServedPulse served = service.serve(
                        plan, {center + 0.1 * rng.uniform(-1.0, 1.0)});
                    ASSERT_EQ(served.segments.size(), 1u);
                    ASSERT_NE(served.segments.front(), nullptr);
                    served_rotations.fetch_add(served.quantHits +
                                               served.quantMisses +
                                               served.quantFallbacks);
                }
            });
        std::thread refiner([&service, &plan, &stop] {
            while (!stop.load()) {
                service.refineQuantizedGrid(plan);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        for (std::thread& d : drivers)
            d.join();
        stop.store(true);
        refiner.join();
        // The storm may outrun the refiner's first round entirely; one
        // deterministic final round guarantees the hot leaves split so
        // the topology assertions below are meaningful.
        service.refineQuantizedGrid(plan);

        // Every rotation serve resolved through the quantized path.
        EXPECT_EQ(served_rotations.load(),
                  static_cast<uint64_t>(kThreads * kServesPerThread));
        const AdaptiveGridStats grid = service.quantizedGridStats(plan);
        EXPECT_EQ(grid.leaves, 64u + grid.splits);
        if (adaptive)
            EXPECT_GT(grid.splits, 0u);
        else
            EXPECT_EQ(grid.splits, 0u);
        // The plan still serves correctly after the storm.
        const ServedPulse after = service.serve(plan, {0.9});
        EXPECT_EQ(after.segments.size(), 1u);
    }
}

TEST(Service, VqeDriverAdaptiveRefinesOnConvergence)
{
    // End-to-end: the driver feeds optimizer step norms into
    // refinement rounds, and the final grid serves the optimum with
    // a strictly finer bound than the coarse grid could.
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.lookupDt = 0.5;
    options.cache.capacity = 8192;
    CompileService service(options);

    const Circuit ansatz = buildOptimizedUccsd(moleculeByName("H2"));
    ParamQuantization quantization = adaptiveQuantization(64, 6);
    quantization.refineCooldown = 3;
    quantization.refineStepNorm = 0.5;

    VqeRunOptions run;
    run.optimizer.maxIterations = 200;
    run.compileService = &service;
    run.quantization = quantization;
    const VqeResult result = runVqe(ansatz, h2Hamiltonian(), run);

    EXPECT_GT(result.quantRefineRounds, 0);
    EXPECT_GT(result.quantSplits, 0u);
    EXPECT_EQ(result.quantSplits, service.stats().quantSplits);
    EXPECT_GT(result.quantRefineSynths, 0u);
    EXPECT_GT(result.quantBytesReleased, 0u);
    // The served optimum sits on refined leaves: its realized bound
    // beats the coarse grid's worst case for even a single rotation.
    EXPECT_GT(result.finalQuantErrorBound, 0.0);
    EXPECT_LT(result.finalQuantErrorBound,
              quantization.stepRadians() / 4.0);
    // And the physics stayed honest: the snapped-angle optimum is
    // near the true ground state.
    EXPECT_NEAR(result.energy, result.exactGroundEnergy, 2e-2);
}

TEST(Service, AdaptiveGridBeatsFixedGridOnConvergingVqe)
{
    // A fixed grid spends its resolution uniformly over the circle; the
    // adaptive grid starts coarse and splits only the bins a converging
    // optimizer visits. Run to the converged tail (fTolerance far below
    // the default spread), the adaptive grid must realize a lower error
    // bound at the optimum on no more syntheses, served almost all warm.
    // No prewarm on either side: every synthesis is demand-driven.
    CompileServiceOptions options;
    options.numWorkers = 4;
    options.lookupDt = 0.5; // Also the default analytic synthesizer's dt.
    options.cache.capacity = 8192;

    const Circuit ansatz = buildOptimizedUccsd(moleculeByName("H2"));
    const PauliHamiltonian hamiltonian = h2Hamiltonian();
    auto vqeWith = [&](const ParamQuantization& quantization) {
        CompileService service(options);
        VqeRunOptions run;
        run.optimizer.maxIterations = 400;
        run.optimizer.fTolerance = 1e-13;
        run.compileService = &service;
        run.quantization = quantization;
        return runVqe(ansatz, hamiltonian, run);
    };

    ParamQuantization fixed_grid;
    fixed_grid.enabled = true;
    fixed_grid.bins = 1024;
    fixed_grid.fidelityBudget = 0.05;
    const VqeResult fixed = vqeWith(fixed_grid);

    ParamQuantization adaptive_grid = fixed_grid;
    adaptive_grid.bins = 64;
    adaptive_grid.adaptive = true;
    adaptive_grid.maxRefineDepth = 5; // Finest step: 2pi/2048.
    adaptive_grid.splitVisitThreshold = 6;
    adaptive_grid.refineCooldown = 1;
    adaptive_grid.refineStepNorm = 0.25;
    const VqeResult adaptive = vqeWith(adaptive_grid);

    EXPECT_LT(adaptive.finalQuantErrorBound, fixed.finalQuantErrorBound);
    EXPECT_LE(adaptive.quantMisses + adaptive.quantRefineSynths,
              fixed.quantMisses);
    const uint64_t adaptive_serves = adaptive.quantHits +
                                     adaptive.quantMisses +
                                     adaptive.quantFallbacks;
    ASSERT_GT(adaptive_serves, 0u);
    EXPECT_GE(static_cast<double>(adaptive.quantHits) / adaptive_serves,
              0.9);
}

} // namespace
