/**
 * @file
 * qpc-serverd: the multi-tenant compile server daemon.
 *
 * Binds a unix-domain socket (and optionally loopback TCP), then
 * serves Hello/PrepareServing/Prewarm/Serve/Metrics/Shutdown frames
 * until a Shutdown frame, SIGTERM, or SIGINT arrives — at which point
 * it drains every session and exits 0.
 *
 *   ./build/examples/qpc_serverd --socket=/tmp/qpc.sock --workers=4
 *
 * Clients share one content-addressed pulse cache: identical blocks
 * across tenants cost one synthesis total. Quota flags bound each
 * tenant; see the README's "Compile server" section for the protocol.
 *
 * Observability (see the README's "Observability" section):
 *   --trace-out=FILE      capture serve-path spans, dump Chrome/
 *                         Perfetto trace-event JSON at shutdown
 *   --metrics-file=FILE   rewrite a Prometheus text exposition
 *                         every --metrics-interval-ms (and once at
 *                         shutdown)
 *   --slow-serve-us=N     warn() one structured line per serve
 *                         slower than N microseconds
 *   --log-level=LEVEL     silent | warn | info (or QPC_LOG_LEVEL)
 */

#include <cstdio>
#include <string>

#include <csignal>
#include <poll.h>
#include <unistd.h>

#include "common/cli.h"
#include "common/logging.h"
#include "server/server.h"
#include "telemetry/trace.h"

using namespace qpc;

namespace {

// Self-pipe: the handler may only do async-signal-safe work, so it
// writes one byte and the main thread does the actual shutdown.
int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/** Atomically-ish rewrite the metrics exposition file. */
void
dumpMetricsFile(const CompileServer& server, const std::string& path)
{
    const std::string text = renderPrometheus(server.metricsSnapshot());
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn("cannot write metrics file: ", tmp);
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        warn("cannot rename metrics file into place: ", path);
}

} // namespace

int
main(int argc, char** argv)
{
    CliParser cli("qpc_serverd");
    cli.addString("socket", "/tmp/qpc-serverd.sock",
                  "unix-domain socket path to listen on");
    cli.addInt("tcp", 0,
               "loopback TCP port (0 = off, -1 = ephemeral)");
    cli.addInt("workers", 0, "synthesis workers (0 = hardware)");
    cli.addInt("max-queued", 64,
               "bound on queued synthesis jobs (0 = unbounded)");
    cli.addString("cache-dir", "",
                  "disk cache tier directory (empty = memory only)");
    cli.addString("shared-cache-dir", "",
                  "fleet-shared disk cache directory (wins over "
                  "--cache-dir; GC is flock-guarded, safe across "
                  "daemons)");
    cli.addInt("epoch", 0,
               "starting calibration epoch counter (records of other "
               "epochs in the disk tier are never adopted or served)");
    cli.addString("snapshot-in", "",
                  "serving snapshot to restore before accepting "
                  "connections (adopts its epoch, re-prepares and "
                  "prewarms its plans: a warm replica boot)");
    cli.addString("snapshot-out", "",
                  "write a serving snapshot here at shutdown");
    cli.addInt("cache-entries", 4096, "in-memory cache entry cap");
    cli.addInt("cache-mb", 0,
               "in-memory cache byte budget, MiB (0 = entries only)");
    cli.addFlag("quantize",
                "serve rotations from an angle-quantized grid");
    cli.addInt("bins", 1024, "quantization grid bins per 2*pi");
    cli.addInt("quota-plans", 64, "per-tenant serving plan cap");
    cli.addInt("quota-served-mb", 0,
               "per-tenant served-bytes budget, MiB (0 = unlimited)");
    cli.addInt("quota-bulk", 2, "per-tenant concurrent prewarm cap");
    cli.addString("trace-out", "",
                  "write Chrome/Perfetto trace-event JSON here at "
                  "shutdown (enables span capture)");
    cli.addString("metrics-file", "",
                  "rewrite a Prometheus text exposition here "
                  "periodically");
    cli.addInt("metrics-interval-ms", 5000,
               "metrics-file rewrite period");
    cli.addInt("slow-serve-us", 0,
               "log serves slower than this many microseconds "
               "(0 = off)");
    cli.addInt("idle-timeout-ms", 300000,
               "reap sessions silent for this long (0 = never)");
    cli.addInt("max-sessions", 0,
               "shed connections past this many live sessions with "
               "a Busy frame (0 = unlimited)");
    cli.addString("log-level", "",
                  "log verbosity: silent|warn|info (default: "
                  "QPC_LOG_LEVEL or info)");
    cli.parse(argc, argv);

    CompileServerOptions options;
    options.socketPath = cli.getString("socket");
    options.tcpPort = cli.getInt("tcp");
    options.service.numWorkers = cli.getInt("workers");
    options.service.maxQueuedJobs =
        static_cast<std::size_t>(cli.getInt("max-queued"));
    options.service.cache.diskDir =
        !cli.getString("shared-cache-dir").empty()
            ? cli.getString("shared-cache-dir")
            : cli.getString("cache-dir");
    options.service.epoch.counter =
        static_cast<std::uint64_t>(cli.getInt("epoch"));
    options.service.cache.capacity =
        static_cast<std::size_t>(cli.getInt("cache-entries"));
    options.service.cache.capacityBytes =
        static_cast<std::size_t>(cli.getInt("cache-mb")) << 20;
    options.service.quantization.enabled = cli.getFlag("quantize");
    options.service.quantization.bins = cli.getInt("bins");
    options.quota.maxPlans =
        static_cast<std::uint64_t>(cli.getInt("quota-plans"));
    options.quota.maxServedBytes =
        static_cast<std::uint64_t>(cli.getInt("quota-served-mb")) << 20;
    options.quota.maxConcurrentBulk =
        static_cast<std::uint64_t>(cli.getInt("quota-bulk"));
    options.slowServeThresholdUs =
        static_cast<std::uint64_t>(cli.getInt("slow-serve-us"));
    options.idleTimeoutMs = cli.getInt("idle-timeout-ms");
    options.maxSessions = cli.getInt("max-sessions");

    if (!cli.getString("log-level").empty())
        setLogLevel(parseLogLevel(cli.getString("log-level")));

    const std::string trace_out = cli.getString("trace-out");
    if (!trace_out.empty())
        setTraceEnabled(true);
    const std::string metrics_file = cli.getString("metrics-file");
    const int metrics_interval_ms =
        cli.getInt("metrics-interval-ms") > 0
            ? cli.getInt("metrics-interval-ms")
            : 5000;

    fatalIf(::pipe(g_signal_pipe) != 0, "cannot create signal pipe");
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    CompileServer server(std::move(options));

    // Restore before start(): the boot must be warm before the first
    // connection lands. The grep-able line is what the fleet smoke
    // (and an operator) checks for warm-boot health.
    const std::string snapshot_in = cli.getString("snapshot-in");
    if (!snapshot_in.empty()) {
        std::optional<ServingSnapshot> snapshot =
            loadServingSnapshot(snapshot_in);
        fatalIf(!snapshot, "cannot load serving snapshot: ",
                snapshot_in);
        const SnapshotRestoreReport report =
            server.restoreServing(*snapshot);
        std::printf("snapshot-restore: plans=%llu uniqueBlocks=%llu "
                    "warm_hits=%llu hit_rate=%.3f wall_s=%.3f\n",
                    static_cast<unsigned long long>(report.plans),
                    static_cast<unsigned long long>(
                        report.uniqueBlocks),
                    static_cast<unsigned long long>(report.cacheHits),
                    report.hitRate(), report.wallSeconds);
        std::fflush(stdout);
    }

    server.start();
    std::printf("qpc-serverd: listening on %s",
                server.options().socketPath.c_str());
    if (server.boundTcpPort() > 0)
        std::printf(" and tcp:%d", server.boundTcpPort());
    std::printf(" (%d workers)\n", server.service().numWorkers());
    std::fflush(stdout);

    // Wait for either a signal byte or a Shutdown frame; piggyback the
    // periodic metrics dump on the 200 ms poll cadence.
    int ms_since_dump = 0;
    while (!server.stopRequested()) {
        pollfd pfd{g_signal_pipe[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready > 0 && (pfd.revents & POLLIN))
            break;
        if (!metrics_file.empty()) {
            ms_since_dump += 200;
            if (ms_since_dump >= metrics_interval_ms) {
                ms_since_dump = 0;
                dumpMetricsFile(server, metrics_file);
            }
        }
    }

    server.requestStop();
    // Snapshot before stop(): the registry is still fully intact, and
    // no new plans can arrive (the listeners are down).
    const std::string snapshot_out = cli.getString("snapshot-out");
    if (!snapshot_out.empty()) {
        const ServingSnapshot snapshot = server.snapshotServing();
        if (saveServingSnapshot(snapshot_out, snapshot))
            std::printf("snapshot-save: plans=%llu epoch=%llu -> %s\n",
                        static_cast<unsigned long long>(
                            snapshot.plans.size()),
                        static_cast<unsigned long long>(
                            snapshot.epoch.counter),
                        snapshot_out.c_str());
        else
            warn("cannot write serving snapshot: ", snapshot_out);
    }
    server.stop();

    // Final dumps after the drain so the trace and exposition cover
    // every request the daemon handled.
    if (!metrics_file.empty())
        dumpMetricsFile(server, metrics_file);
    if (!trace_out.empty())
        dumpTraceJson(trace_out); // warns on failure itself

    const MetricsSnapshot metrics = server.metricsSnapshot();
    const auto count = [&](const char* name) {
        const std::uint64_t* value = metrics.counter(name);
        return static_cast<unsigned long long>(value ? *value : 0);
    };
    std::printf("qpc-serverd: served %llu connections, "
                "%llu requests, %llu cache hits; clean shutdown\n",
                count("qpc_server_connections_accepted_total"),
                count("qpc_service_requests_total"),
                count("qpc_service_cache_hits_total"));
    return 0;
}
