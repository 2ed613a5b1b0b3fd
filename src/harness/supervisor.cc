#include "harness/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#ifdef __GLIBC__
#include <stdio_ext.h>
#endif

#include "base/logging.hh"
#include "base/options.hh"
#include "store/codec.hh"
#include "store/record.hh"

namespace loopsim
{

namespace
{

/** Held from a worker's pipe() to its parent-side close of the write
 *  end, so no other worker forks in between (superviseOnce). */
std::mutex forkMutex;

/**
 * The wire record travels between two processes of the same binary, so
 * the store codec's fingerprint check only needs a fixed sentinel; the
 * CRC is what catches a child that died mid-write.
 */
const store::Fingerprint kWireFp{0x6c6f6f7073696d00ull,
                                 0x00737570657276ull};

/**
 * Wire format, child -> parent:
 *   [u32 record_len][record]            store codec, kWireFp
 *   [u32 profile_count]                 tick-profile extension —
 *   per entry: [u32 len][name][u64 ticks][u64 measured_ticks]
 *              [u64 scan_ticks][u64 seconds bits]
 *              [u64 counter] x KernelCounters::kCount
 * The record codec excludes tickProfile by design (replaying wall
 * clock from the store would fabricate telemetry), but here the
 * profile is this run's real measurement, just taken in the child.
 */
std::string
encodeWire(const RunResult &result)
{
    const std::string rec = store::encodeRecord(kWireFp, result);
    std::string wire;
    wire.reserve(4 + rec.size() + 64);
    store::Encoder out(wire);
    out.str(rec);
    out.u32(static_cast<std::uint32_t>(result.tickProfile.size()));
    for (const ComponentProfile &p : result.tickProfile) {
        out.str(p.name);
        out.u64(p.ticks);
        out.u64(p.measuredTicks);
        out.u64(p.scanTicks);
        out.f64(p.seconds);
        for (const std::uint64_t n : p.counters.n)
            out.u64(n);
    }
    return wire;
}

bool
decodeWire(std::string_view wire, RunResult &result)
{
    store::Decoder in(wire);
    std::string_view rec;
    if (!in.view(rec) || !store::decodeRecord(rec, kWireFp, result))
        return false;
    std::uint32_t profiles = 0;
    if (!in.u32(profiles))
        return false;
    for (std::uint32_t i = 0; i < profiles; ++i) {
        ComponentProfile p;
        if (!in.str(p.name) || !in.u64(p.ticks) ||
            !in.u64(p.measuredTicks) || !in.u64(p.scanTicks) ||
            !in.f64(p.seconds)) {
            return false;
        }
        for (std::uint64_t &n : p.counters.n) {
            if (!in.u64(n))
                return false;
        }
        result.tickProfile.push_back(std::move(p));
    }
    return in.done();
}

/**
 * The child half: arrange to die with the parent, run the cell against
 * the pre-fork-resolved configuration, ship the wire record and _exit
 * without running atexit handlers that belong to the parent's state.
 * Its copy of stdout's buffer holds the parent's unwritten output,
 * which the parent writes itself: the child discards it first, so
 * nothing can write it twice, neither a warning that flushes the
 * stdout its stream is tied to nor a sanitizer's _exit, which flushes
 * stdio (ThreadSanitizer's does). Elsewhere than glibc it only unties
 * stderr. @p parent is the forking process's pid, read before the
 * fork: a parent that died before the prctl() has already orphaned the
 * child, which then has nobody to report to.
 */
[[noreturn]] void
childMain(int fd, pid_t parent, const RunSpec &spec,
          const Config &resolved)
{
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent)
        ::_exit(1);
#else
    (void)parent;
#endif
#ifdef __GLIBC__
    ::__fpurge(stdout);
#else
    detail::untieDiagnostics();
#endif
    int status = 0;
    try {
        RunResult res = runOnceResilientWith(spec, resolved);
        std::string wire = encodeWire(res);
        if (!store::writeAll(fd, wire.data(), wire.size()))
            status = 3;
    } catch (const std::exception &err) {
        // runOnceResilientWith is fail-soft on SimError; anything that
        // still escapes (fatal_if on a malformed spec, bad_alloc) is a
        // real worker death.
        std::fprintf(stderr, "isolated worker: %s\n", err.what());
        status = 2;
    } catch (...) {
        status = 2;
    }
    ::close(fd);
    ::_exit(status);
}

enum class ChildFate
{
    Ok,      ///< clean exit, wire record parsed
    Crash,   ///< signal death, nonzero exit, or garbled record
    Timeout, ///< wall-clock deadline overrun; SIGKILLed
};

/**
 * What a live, unreaped child is doing, as " (state S, wchan
 * hrtimer_nanosleep)" from /proc/<pid>/stat and /proc/<pid>/wchan,
 * so a timeout says whether the child ran, slept or blocked on a
 * lock. Empty when either file cannot be read, and off Linux.
 */
std::string
childActivity([[maybe_unused]] pid_t pid)
{
#ifdef __linux__
    const std::string proc = "/proc/" + std::to_string(pid);
    std::ifstream stat_in(proc + "/stat");
    std::ifstream wchan_in(proc + "/wchan");
    std::string stat;
    std::string wchan;
    std::getline(stat_in, stat);
    std::getline(wchan_in, wchan);
    // "pid (comm) S ...": comm may hold spaces and parentheses.
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos || paren + 2 >= stat.size() ||
        wchan.empty())
        return "";
    return " (state " + stat.substr(paren + 2, 1) + ", wchan " + wchan +
           ")";
#else
    return "";
#endif
}

/** One fork/reap round. Fills @p result only on Ok. */
ChildFate
superviseOnce(const RunSpec &spec, const Config &resolved,
              std::uint64_t deadline_ms, RunResult &result,
              std::string &why)
{
    int fds[2];
    pid_t pid = 0;
    {
        // Until the close below, a child another worker forks would
        // inherit this pipe's write end and hold it open, so this cell
        // would see no EOF before that child ended: a finished worker
        // (state Z) then overran its deadline beside a hung one.
        std::lock_guard<std::mutex> lock(forkMutex);
        if (::pipe(fds) != 0) {
            why = std::string("pipe failed: ") + std::strerror(errno);
            return ChildFate::Crash;
        }
        const pid_t parent = ::getpid();
        pid = ::fork();
        if (pid < 0) {
            why = std::string("fork failed: ") + std::strerror(errno);
            ::close(fds[0]);
            ::close(fds[1]);
            return ChildFate::Crash;
        }
        if (pid == 0) {
            ::close(fds[0]);
            childMain(fds[1], parent, spec, resolved);
        }
        ::close(fds[1]);
    }

    using clock = std::chrono::steady_clock;
    // loop:exempt(analyze: wall-clock child deadline, host side only)
    const auto started = clock::now();
    const bool bounded = deadline_ms != 0;
    const auto deadline =
        started + std::chrono::milliseconds(deadline_ms);

    std::string wire;
    bool timed_out = false;
    for (;;) {
        // Wait for output, EOF or the deadline, whichever comes first.
        int wait_ms = -1;
        if (bounded) {
            auto left = std::chrono::duration_cast<
                // loop:exempt(analyze: wall-clock child deadline)
                std::chrono::milliseconds>(deadline - clock::now());
            if (left.count() <= 0) {
                timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(std::min<long long>(
                std::numeric_limits<int>::max(), left.count()));
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            timed_out = false;
            why = std::string("poll failed: ") + std::strerror(errno);
            break;
        }
        if (pr == 0)
            continue;
        char buf[4096];
        ssize_t r = ::read(fds[0], buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (r == 0)
            break; // EOF: the child finished (or died) and closed.
        wire.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fds[0]);

    if (timed_out) {
        why = "worker overran the " + std::to_string(deadline_ms) +
              " ms wall-clock deadline" + childActivity(pid);
        ::kill(pid, SIGKILL);
    }

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    if (timed_out)
        return ChildFate::Timeout;
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        why = std::string("worker died on signal ") +
              std::to_string(sig) + " (" + strsignal(sig) + ")";
        return ChildFate::Crash;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        why = "worker exited with status " +
              std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                               : -1);
        return ChildFate::Crash;
    }
    if (!decodeWire(wire, result)) {
        why = "worker returned a garbled result record";
        return ChildFate::Crash;
    }
    return ChildFate::Ok;
}

} // anonymous namespace

SupervisorPolicy
SupervisorPolicy::fromConfig(const Config &cfg)
{
    SupervisorPolicy p;
    p.attempts = static_cast<unsigned>(
        cfg.getUint("integrity.supervisor.attempts", p.attempts));
    p.deadlineMs = loopsim::deadlineMs();
    fatal_if(p.attempts == 0, "supervisor policy with zero attempts");
    return p;
}

bool
isolationSupported()
{
#if defined(__unix__) || defined(__APPLE__)
    return true;
#else
    return false;
#endif
}

bool
isolationActive()
{
    return processOptions().isolate && isolationSupported();
}

void
setIsolation(bool on)
{
    if (on && !isolationSupported()) {
        warn("process isolation is not supported on this platform; "
             "cells will run in-process");
    }
    processOptions().isolate = on;
}

std::uint64_t
deadlineMs()
{
    return processOptions().deadlineMs;
}

void
setDeadlineMs(std::uint64_t ms)
{
    processOptions().deadlineMs = ms;
}

SupervisedOutcome
runCellSupervised(const RunSpec &spec, const RetryPolicy &,
                  const std::string &fallback_label)
{
    fatal_if(!isolationSupported(),
             "runCellSupervised on a platform without fork()");

    // Resolve the configuration before forking (see the fork-safety
    // note in the header).
    const Config resolved = effectiveRunConfig(spec);
    const SupervisorPolicy sup = SupervisorPolicy::fromConfig(resolved);

    SupervisedOutcome out;
    FailKind last_kind = FailKind::Crash;
    std::string last_why;
    for (unsigned attempt = 1;; ++attempt) {
        out.attempts = attempt;
        std::string why;
        ChildFate fate =
            superviseOnce(spec, resolved, sup.deadlineMs, out.result, why);
        if (fate == ChildFate::Ok)
            return out;

        last_kind = fate == ChildFate::Timeout ? FailKind::Timeout
                                               : FailKind::Crash;
        last_why = why;
        if (fate == ChildFate::Timeout)
            ++out.timeouts;
        else
            ++out.crashes;
        warn("isolated run \"", spec.workload.label, "\" attempt ",
             attempt, "/", sup.attempts, " ",
             failKindName(last_kind), "ed: ", why);
        if (attempt >= sup.attempts)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kRespawnPauseMs));
    }

    // Every spawn died: degrade to a crash/timeout figure cell.
    out.result =
        failedRun(spec, resolved, last_kind, last_why, fallback_label);
    return out;
}

} // namespace loopsim
