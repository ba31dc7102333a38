/**
 * @file
 * qpc-client: drive one tenant's hybrid loop through a running
 * qpc-serverd.
 *
 *   ./build/examples/qpc_serverd --socket=/tmp/qpc.sock &
 *   ./build/examples/qpc_client --socket=/tmp/qpc.sock \
 *       --tenant=alice --serves=32
 *
 * Connects, identifies the tenant, uploads a QAOA MAXCUT template,
 * bulk-prewarms it, then serves a stream of parameter bindings — the
 * client half of the CI smoke test. Afterwards --stats renders the
 * server's counters (fetched with a Metrics frame) as tables;
 * --metrics prints the server's Prometheus exposition plus a
 * latency-percentile table; --shutdown asks the daemon to exit.
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "qaoa/graph.h"
#include "qaoa/qaoacircuit.h"
#include "server/client.h"
#include "telemetry/metrics.h"
#include "transpile/passes.h"

using namespace qpc;

int
main(int argc, char** argv)
{
    CliParser cli("qpc_client");
    cli.addString("socket", "/tmp/qpc-serverd.sock",
                  "unix-domain socket of the server");
    cli.addInt("tcp", 0, "connect to loopback TCP instead (port)");
    cli.addString("tenant", "default", "tenant name to serve under");
    cli.addInt("n", 6, "QAOA graph nodes");
    cli.addInt("p", 2, "QAOA depth");
    cli.addInt("serves", 16, "parameter bindings to serve");
    cli.addInt("seed", 7, "angle stream seed");
    cli.addFlag("pulses", "download the served pulse segments too");
    cli.addFlag("skip-prewarm",
                "serve cold (first bindings synthesize on demand)");
    cli.addFlag("stats", "print the server's counters as tables "
                         "afterwards");
    cli.addFlag("metrics", "print the server's Prometheus exposition "
                           "and latency percentiles");
    cli.addFlag("shutdown", "ask the server to shut down when done");
    cli.addFlag("bump-epoch",
                "advance the server's calibration epoch before "
                "serving (re-keys and re-prewarms every plan)");
    cli.addInt("deadline-ms", 0,
               "per-request I/O deadline (0 = block forever)");
    cli.addInt("retries", 0,
               "reconnect-and-retry budget per request (0 = fail "
               "fast)");
    cli.addInt("serve-interval-ms", 0,
               "sleep between serves (paces the loop so a restarted "
               "server can be ridden through)");
    cli.parse(argc, argv);

    ClientOptions client_options;
    client_options.deadlineMs = cli.getInt("deadline-ms");
    client_options.maxRetries = cli.getInt("retries");
    CompileClient client(client_options);
    const bool connected =
        cli.getInt("tcp") > 0 ? client.connectTcp(cli.getInt("tcp"))
                              : client.connectUnix(cli.getString("socket"));
    if (!connected) {
        std::fprintf(stderr, "qpc-client: %s\n",
                     client.lastError().c_str());
        return 1;
    }

    const auto hello = client.hello(cli.getString("tenant"));
    if (!hello) {
        std::fprintf(stderr, "qpc-client: Hello failed: %s\n",
                     client.lastError().c_str());
        return 1;
    }
    std::printf("tenant '%s' (id %u): quotas plans=%llu "
                "servedBytes=%llu bulk=%llu epoch=%llu\n",
                cli.getString("tenant").c_str(), hello->tenantId,
                static_cast<unsigned long long>(hello->maxPlans),
                static_cast<unsigned long long>(hello->maxServedBytes),
                static_cast<unsigned long long>(
                    hello->maxConcurrentBulk),
                static_cast<unsigned long long>(hello->epochCounter));

    if (cli.getFlag("bump-epoch")) {
        const auto bumped = client.bumpEpoch();
        if (!bumped) {
            std::fprintf(stderr, "qpc-client: BumpEpoch failed: %s\n",
                         client.lastError().c_str());
            return 1;
        }
        // Grep-able by the CI fleet smoke.
        std::printf("epoch-bump: counter=%llu plans_rekeyed=%u\n",
                    static_cast<unsigned long long>(bumped->newCounter),
                    bumped->plansRekeyed);
    }

    Circuit circuit =
        buildQaoaCircuit(cliqueGraph(cli.getInt("n")), cli.getInt("p"));
    optimizeCircuit(circuit);
    const int num_params = circuit.numParams();

    const auto prepared = client.prepareServing(circuit);
    if (!prepared) {
        std::fprintf(stderr, "qpc-client: PrepareServing failed: %s\n",
                     client.lastError().c_str());
        return 1;
    }
    std::printf("plan %llu: %u fixed blocks, %u param gates\n",
                static_cast<unsigned long long>(prepared->planId),
                prepared->numFixedBlocks, prepared->numParamGates);

    if (!cli.getFlag("skip-prewarm")) {
        const auto warmed = client.prewarm(prepared->planId);
        if (!warmed) {
            std::fprintf(stderr, "qpc-client: Prewarm failed: %s\n",
                         client.lastError().c_str());
            return 1;
        }
        std::printf("prewarm: %u unique blocks, %llu syntheses, "
                    "%llu cache hits in %.3f s\n",
                    warmed->uniqueBlocks,
                    static_cast<unsigned long long>(warmed->synthRuns),
                    static_cast<unsigned long long>(warmed->cacheHits),
                    warmed->wallSeconds);
    }

    Rng rng(static_cast<uint64_t>(cli.getInt("seed")));
    std::uint64_t hits = 0, misses = 0;
    double total_ns = 0.0;
    const int serves = cli.getInt("serves");
    const int serve_interval_ms = cli.getInt("serve-interval-ms");
    for (int i = 0; i < serves; ++i) {
        if (serve_interval_ms > 0 && i > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(serve_interval_ms));
        const auto served = client.serve(prepared->planId,
                                         rng.angles(num_params),
                                         cli.getFlag("pulses"));
        if (!served) {
            std::fprintf(stderr, "qpc-client: Serve failed: %s\n",
                         client.lastError().c_str());
            return 1;
        }
        hits += served->cacheHits + served->quantHits;
        misses += served->cacheMisses + served->quantMisses +
                  served->exactServes;
        total_ns += served->pulseNs;
    }
    std::printf("served %d bindings: %llu warm segments, "
                "%llu synthesized, %.1f ns mean pulse\n",
                serves, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                serves ? total_ns / serves : 0.0);

    // One grep-able line for the CI kill-and-reconnect smoke.
    const ClientStats resilience = client.clientStats();
    std::printf("client-resilience: retries=%llu timeouts=%llu "
                "reconnects=%llu plans_remapped=%llu "
                "busy_rejections=%llu reconnect_p50_ms=%.2f\n",
                static_cast<unsigned long long>(resilience.retries),
                static_cast<unsigned long long>(resilience.timeouts),
                static_cast<unsigned long long>(resilience.reconnects),
                static_cast<unsigned long long>(
                    resilience.plansRemapped),
                static_cast<unsigned long long>(
                    resilience.busyRejections),
                resilience.reconnectNs.percentileNs(50) / 1e6);

    const auto u64cell = [](std::uint64_t v) {
        return std::to_string(v);
    };

    std::optional<MetricsSnapshot> metrics;
    if (cli.getFlag("stats") || cli.getFlag("metrics")) {
        metrics = client.metrics();
        if (!metrics) {
            std::fprintf(stderr, "qpc-client: Metrics failed: %s\n",
                         client.lastError().c_str());
            return 1;
        }
    }

    if (cli.getFlag("stats")) {
        const auto count = [&](const std::string& name) {
            const std::uint64_t* value = metrics->counter(name);
            return value ? *value : 0;
        };
        const auto cell = [&](const std::string& name) {
            return u64cell(count(name));
        };
        const auto level = [&](const std::string& name) {
            const double* value = metrics->gauge(name);
            return value ? *value : 0.0;
        };
        TextTable server_table("server");
        server_table.addRow({"requests", "cacheHits", "coalesced",
                             "synthRuns", "rejected", "cacheEntries",
                             "cacheMiB"});
        server_table.addRow(
            {cell("qpc_service_requests_total"),
             cell("qpc_service_cache_hits_total"),
             cell("qpc_service_coalesced_total"),
             cell("qpc_service_synth_runs_total"),
             cell("qpc_service_rejected_total"),
             fmtDouble(level("qpc_cache_entries"), 0),
             fmtDouble(level("qpc_cache_bytes_in_use") /
                           (1024.0 * 1024.0),
                       2)});
        server_table.print();

        TextTable edge_table("server edge");
        edge_table.addRow({"protocolErrors", "acceptFailures",
                           "busyRejections", "sessionsReapedIdle",
                           "bulkYields"});
        edge_table.addRow({cell("qpc_server_protocol_errors_total"),
                           cell("qpc_server_accept_failures_total"),
                           cell("qpc_server_busy_rejections_total"),
                           cell("qpc_server_sessions_reaped_idle_total"),
                           cell("qpc_server_bulk_yields_total")});
        edge_table.print();

        // One row per tenant: every tenant has a plans gauge, and its
        // label block keys the tenant's other families.
        const std::string plans_family = "qpc_tenant_plans";
        const std::string tenant_key = "{tenant=\"";
        TextTable tenant_table("tenants");
        tenant_table.addRow({"tenant", "plans", "serves", "hitRate",
                             "servedKiB", "quotaRejections"});
        for (const auto& g : metrics->gauges) {
            if (g.name.rfind(plans_family + tenant_key, 0) != 0)
                continue;
            const std::string labels = g.name.substr(plans_family.size());
            tenant_table.addRow(
                {labels.substr(tenant_key.size(),
                               labels.size() - tenant_key.size() - 2),
                 fmtDouble(g.value, 0),
                 cell("qpc_tenant_serves_total" + labels),
                 fmtDouble(level("qpc_tenant_hit_rate" + labels), 2),
                 u64cell(count("qpc_tenant_served_bytes_total" + labels) >>
                         10),
                 cell("qpc_tenant_quota_rejections_total" + labels)});
        }
        tenant_table.print();
    }

    if (cli.getFlag("metrics")) {
        // The exposition first (scrape-able as-is), then the latency
        // distributions digested to percentiles for human eyes.
        std::fputs(renderPrometheus(*metrics).c_str(), stdout);
        TextTable latency_table("latency (us)");
        latency_table.addRow(
            {"histogram", "count", "p50", "p95", "p99", "max"});
        for (const auto& h : metrics->histograms) {
            const auto us = [&](double ns) {
                return fmtDouble(ns / 1e3, 1);
            };
            latency_table.addRow(
                {h.name, u64cell(h.histogram.count),
                 us(h.histogram.percentileNs(50)),
                 us(h.histogram.percentileNs(95)),
                 us(h.histogram.percentileNs(99)),
                 us(static_cast<double>(h.histogram.maxNs))});
        }
        latency_table.print();
    }

    if (cli.getFlag("shutdown")) {
        if (!client.shutdownServer()) {
            std::fprintf(stderr, "qpc-client: Shutdown failed: %s\n",
                         client.lastError().c_str());
            return 1;
        }
        std::printf("server acknowledged shutdown\n");
    }
    return 0;
}
