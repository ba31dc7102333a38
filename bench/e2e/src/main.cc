/**
 * @file
 * qpcbench: the end-to-end benchmark's generator and layer replayer.
 *
 *   qpcbench --workload=W --seed=S --seconds=T --trace=0|1
 *            --serverd=PATH --out=DIR [--git-rev=REV]
 *   qpcbench summarize FILE...
 *
 * A run prints `workload metric value unit` lines and, last, one JSON
 * object {correct, attempted, failed, metrics}; it exits 0 only when
 * every output check passed. `summarize` prints the median and
 * quartiles of each metric over the `.txt` files runs leave behind.
 * bench/e2e/run.sh builds the binaries and drives both.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/cli.h"
#include "common/logging.h"

using namespace qpc;
using namespace qpc::e2e;

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::string(argv[1]) == "summarize")
        return summarize(std::vector<std::string>(argv + 2, argv + argc));

    CliParser cli("qpcbench");
    cli.addString("workload", "", "workload to run");
    cli.addInt("seed", 1, "input seed");
    cli.addInt("seconds", 10, "measurement length");
    cli.addInt("trace", 0, "1: per-layer replay and Perfetto trace");
    cli.addString("serverd", "", "qpc_serverd binary");
    cli.addString("out", "", "directory for results, traces, sockets");
    cli.addString("git-rev", "unknown", "revision recorded in results");
    cli.parse(argc, argv);

    RunOptions options;
    options.workload = cli.getString("workload");
    options.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    options.seconds = cli.getInt("seconds");
    options.trace = cli.getInt("trace") != 0;
    options.serverd = cli.getString("serverd");
    options.gitRev = cli.getString("git-rev");
    // The generator uses at most one thread and one connection per
    // core, capped at the four tenants the serve workloads model.
    options.clients = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    if (options.seconds < 1 || cli.getString("out").empty() ||
        options.serverd.empty()) {
        std::fprintf(stderr, "qpcbench: --seconds >= 1, --out and "
                             "--serverd are required\n");
        return 2;
    }
    try {
        const std::filesystem::path out =
            std::filesystem::absolute(cli.getString("out"));
        std::filesystem::create_directories(out);
        options.outDir = out.string();
        options.serverd =
            std::filesystem::absolute(options.serverd).string();
        // Sockets are created relative to the output directory, which
        // keeps their paths short and inside the checkout.
        std::filesystem::current_path(out);
        setLogLevel(LogLevel::Warn);

        Report report(options);
        runWorkload(options, report);
        return report.finish();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qpcbench: %s: %s\n",
                     options.workload.c_str(), e.what());
        return 2;
    }
}
