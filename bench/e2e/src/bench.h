/**
 * @file
 * Shared declarations of the end-to-end benchmark (qpcbench).
 *
 * One qpcbench process runs one workload for one seed and prints one
 * JSON result line. The pieces:
 *
 *  - report.cc: the metric tables (end-to-end, and per-layer with the
 *    workloads each one applies to), the check ledger, result
 *    printing, and the --repeat summarizer;
 *  - inputs.cc: the benchmark circuits and problems;
 *  - daemon.cc: spawning, probing, and stopping a qpc_serverd child;
 *  - loadgen.cc: the open-loop serve generator and its rate ladder;
 *  - oracle.cc: the per-segment physics oracle;
 *  - workloads.cc: the four workloads;
 *  - layers.cc: the traced per-layer replay.
 */

#ifndef QPC_BENCH_E2E_BENCH_H
#define QPC_BENCH_E2E_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/quantize.h"
#include "ir/circuit.h"
#include "qaoa/graph.h"
#include "runtime/service.h"
#include "qaoa/qaoadriver.h"
#include "server/client.h"
#include "vqe/vqedriver.h"

namespace qpc::e2e {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
double secondsSince(Clock::time_point t0);

/** Monotonic nanoseconds (the steady clock's epoch). */
std::uint64_t monoNs();

/** Exact order statistic of a sample set, linearly interpolated
 * between neighbours; p in [0, 100]. 0 when empty. */
double percentile(std::vector<double> values, double p);

/** Median of a sample set (0 when empty). */
double median(std::vector<double> values);

/** What the command line asks one qpcbench run to do. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serverd;  ///< qpc_serverd binary.
    std::string outDir;   ///< Results, traces, sockets.
    std::string gitRev = "unknown";
    int clients = 4;      ///< Generator threads = connections.
};

/**
 * Everything one run measured and checked. Metrics are keyed by the
 * names of the tables in report.cc; finish() refuses a run that
 * misses one of its mode's metrics, sets an unknown one, or sets a
 * per-layer metric that does not apply to its workload.
 */
class Report
{
  public:
    explicit Report(const RunOptions& options) : options_(options) {}

    /** Record a metric (end-to-end or per-layer, by table lookup). */
    void set(const std::string& name, double value);

    /** Whether this run reports the per-layer metric `name`. */
    bool wants(const std::string& name) const;

    /** Record a check; a false one makes the run incorrect. */
    void check(bool ok, const std::string& what);

    /** Count attempted and failed operations. */
    void attempted(std::uint64_t n) { attempted_ += n; }
    void failed(std::uint64_t n) { failed_ += n; }

    /** Free-form diagnostic lines for the results file. */
    void note(const std::string& line);

    /**
     * Validate the metric set for the mode, print the `name value
     * unit` lines plus the final JSON line on stdout, and write the
     * results file. Returns the process exit code.
     */
    int finish();

  private:
    RunOptions options_;
    std::map<std::string, double> values_;
    std::vector<std::string> failures_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Build and run provenance (compiler, build type, CPU, ...). */
std::string provenanceJson(const std::string& gitRev);

/** Median and quartiles per metric over `name value unit` files. */
int summarize(const std::vector<std::string>& files);

/** @name Inputs (inputs.cc)
 *  @{ */

/** Optimize, map to the benchmark topology, and re-optimize. */
Circuit prepareCircuit(Circuit circuit);

/** The serve workloads' QAOA problem: a 3-regular 6-node graph, p = 2
 * (fixed graph, so every seed serves the same plan). */
const Graph& qaoaServeGraph();
constexpr int kQaoaServeP = 2;

/** A molecule's UCCSD ansatz transpiled to the benchmark topology
 * (the cold-compile template). */
Circuit moleculeTemplate(const std::string& molecule);

/** The converge workload's QAOA graph: Erdos-Renyi, 8 nodes. */
const Graph& qaoaConvergeGraph();
constexpr int kQaoaConvergeP = 3;
/** @} */

/** @name Physics oracle (oracle.cc)
 *  @{ */

/** Phase-invariant distance sqrt(1 - |tr(U^dag V)|^2 / d^2). */
double unitaryDistance(const CMatrix& target, const CMatrix& realized);

/** The unitary a pulse realizes on the clique device of its width. */
CMatrix realizedUnitary(const PulseSchedule& pulse, int width);

/** How many segments were checked, and the worst excess of distance
 * over allowance among them (<= 0 passes). */
struct OracleResult
{
    int segments = 0;
    double worstExcess = -1.0;
};

/**
 * Check every segment of one served reply against the template it
 * was served from: Fixed blocks against their local unitary, rotations
 * against the exact bound rotation with the grid's snap bound added
 * to the allowance. `maxBlockWidth` and `bins` must match the server.
 */
OracleResult checkServedSegments(const Circuit& templ,
                                 const std::vector<double>& theta,
                                 const std::vector<PulseSchedule>& pulses,
                                 int maxBlockWidth, int bins,
                                 double tolerance);
/** @} */

/** @name Tolerances the checks enforce
 *  @{ */

/** Analytic-library pulses: realized vs exact local unitary. */
constexpr double kAnalyticTolerance = 1e-4;
/**
 * GRAPE pulses of the LiH cold compile: the lowest realized fidelity
 * may fall at most 1e-4 below the 0.958784 that GRAPE's defaults reach
 * on the worst LiH block. GRAPE stops at its 300-iteration cap short of
 * its 0.999 target on several of the 23 blocks; with its fixed seed the
 * outcome is deterministic, so this floor catches any change that
 * lowers the worst block's pulse quality by more than 1e-4.
 */
constexpr double kGrapeFidelityFloor = 0.958684;
/** Variational principle slack: energy may not undercut E0 by more. */
constexpr double kEnergySlackHa = 1e-6;
/** @} */

/** @name Traced per-layer replay (layers.cc)
 *  @{ */

/** The server layer as a serve workload's own daemon saw it. */
struct ServerLayer
{
    double handleP50Us = 0.0; ///< qpc_server_handle_us{type="Serve"}.
    double handleP99Us = 0.0;
    double rttP50Us = 0.0;    ///< Client-side send-to-reply.
    double busyRejections = 0.0;
    double servedBytesPerServe = 0.0;
};

/** Scrape a daemon's Metrics frame into the server layer. */
std::optional<ServerLayer> scrapeServer(CompileClient& client,
                                        double rttP50Us);

/** What a serve workload hands its replay. */
struct ServeReplay
{
    Circuit raw;   ///< The template before transpilation.
    Circuit templ; ///< What the daemon serves.
    int bins = 0;  ///< Its quantization grid.
    bool wantPulses = false;
    std::size_t cacheBytes = 0; ///< The daemon's byte budget (0: none).
    ServerLayer server;
};

/** What the cold-compile workload hands its replay. */
struct ColdReplay
{
    Circuit raw;
    Circuit templ;
    /** The last cold compile's service (pool, counters). */
    const CompileService* service = nullptr;
    /** Runs one whole cold compile (fresh service and cache). */
    std::function<void()> compile;
    double grapeFidelityMin = 0.0; ///< Over every GRAPE pulse.
};

/** What the converge workload hands its replay. */
struct ConvergeReplay
{
    Circuit ansatz; ///< The VQE template and its Hamiltonian.
    PauliHamiltonian hamiltonian;
    /** The shared service the suite ran on (pool, counters). */
    const CompileService* service = nullptr;
    double evalsVqe = 0.0, evalsQaoa = 0.0;     ///< Means per run.
    double vqeSeconds = 0.0, qaoaSeconds = 0.0; ///< Medians per run.
    double vqeEnergyErrorHa = 0.0; ///< Mean E - E0.
    double qaoaApproxRatio = 0.0;  ///< Mean.
    double refineRounds = 0.0;     ///< Total adaptive rounds.
    /** Runs one VQE of the suite on the shared service. */
    std::function<void()> vqeRun;
};

/** Quantization a converge run serves under (adaptive, 64 bins). */
ParamQuantization convergeQuantization();

/**
 * Per-layer metrics of each workload, every call under a trace span.
 * Each writes the Perfetto JSON, then measures the recording cost of
 * the library's own spans on one unit of the workload's work (warm
 * serves, a cold compile, a VQE run).
 */
void replayServe(const RunOptions& options, const ServeReplay& in,
                 Report& report);
void replayCold(const RunOptions& options, const ColdReplay& in,
                Report& report);
void replayConverge(const RunOptions& options, const ConvergeReplay& in,
                    Report& report);
/** @} */

/** Peak resident set (VmHWM) from a /proc/<pid>/status file, MiB. */
double peakRssMb(const std::string& procStatus);

/** Run one workload (workloads.cc); fills the report. */
void runWorkload(const RunOptions& options, Report& report);

} // namespace qpc::e2e

#endif // QPC_BENCH_E2E_BENCH_H
