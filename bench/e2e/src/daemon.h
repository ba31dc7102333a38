/**
 * @file
 * A qpc_serverd child process owned by the benchmark.
 */

#ifndef QPC_BENCH_E2E_DAEMON_H
#define QPC_BENCH_E2E_DAEMON_H

#include <string>
#include <sys/types.h>
#include <vector>

#include "bench.h"
#include "server/client.h"

namespace qpc::e2e {

/**
 * Spawns the daemon on construction and always reaps it: stop() asks
 * for a graceful Shutdown, then escalates to SIGTERM and SIGKILL; the
 * destructor stops a daemon that is still running, and the child
 * carries PR_SET_PDEATHSIG so it cannot outlive a crashed benchmark.
 */
class Daemon
{
  public:
    Daemon(const std::string& binary, const std::string& socket,
           const std::vector<std::string>& flags);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Poll-connect until the socket accepts; false if the daemon
     * exited or the timeout passed. */
    bool waitReady(double timeout_s);

    /** The daemon's VmHWM (peak resident set), MiB. */
    double peakRssMb() const;

    /** Shut down through `admin` (or SIGTERM when null) and reap;
     * true on a clean exit with code 0. Idempotent. */
    bool stop(CompileClient* admin);

    const std::string& socket() const { return socket_; }

  private:
    bool alive();

    std::string socket_;
    pid_t pid_ = -1;
};

} // namespace qpc::e2e

#endif // QPC_BENCH_E2E_DAEMON_H
