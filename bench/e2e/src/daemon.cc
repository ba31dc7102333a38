/**
 * @file
 * The system under test for the serve workloads: a qpc_serverd child
 * process on a unix socket inside the benchmark's output directory.
 */

#include "daemon.h"

#include <csignal>
#include <fcntl.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace qpc::e2e {

Daemon::Daemon(const std::string& binary, const std::string& socket,
               const std::vector<std::string>& flags)
    : socket_(socket)
{
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {binary, "--socket=" + socket_,
                                      "--log-level=warn"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        // Die with the benchmark, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        // The daemon's banner lines must not reach the benchmark's
        // stdout, whose last line is the result.
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            ::dup2(devnull, STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
}

Daemon::~Daemon()
{
    stop(nullptr);
}

bool
Daemon::alive()
{
    if (pid_ <= 0)
        return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
    }
    return true;
}

bool
Daemon::waitReady(double timeout_s)
{
    const auto t0 = Clock::now();
    while (secondsSince(t0) < timeout_s) {
        if (!alive())
            return false;
        CompileClient probe;
        if (probe.connectUnix(socket_))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

double
Daemon::peakRssMb() const
{
    return e2e::peakRssMb("/proc/" + std::to_string(pid_) + "/status");
}

bool
Daemon::stop(CompileClient* admin)
{
    if (pid_ <= 0)
        return true;
    bool clean = admin && admin->shutdownServer();
    if (!clean)
        ::kill(pid_, SIGTERM);
    // Graceful drain first; escalate if the daemon hangs.
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 10.0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            clean = false;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace qpc::e2e
