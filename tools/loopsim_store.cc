/**
 * @file
 * loopsim-store: inspect and prune a persistent campaign result store
 * and its campaign journals.
 *
 *   loopsim-store list   [--store DIR]              one line per record
 *   loopsim-store stat   [--store DIR]              aggregate summary
 *   loopsim-store verify [--store DIR]              full CRC validation
 *   loopsim-store gc     [--store DIR] --max-bytes N   prune to budget
 *   loopsim-store journal list|stat|verify|prune [--journal DIR]
 *
 * The store directory comes from --store or the LOOPSIM_STORE
 * environment variable, the journal directory from --journal or
 * LOOPSIM_JOURNAL, matching the bench binaries. N is a decimal count
 * (base/options.hh's grammar). A flag another command takes, any
 * unknown flag and any stray argument are usage errors. Exit status:
 * 0 on success (verify: everything fully valid), 1 when verify found
 * corrupt records / journals, 2 on usage errors.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/options.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/result_store.hh"

using namespace loopsim;

namespace
{

int
usage(std::ostream &os, int exit_code)
{
    os << "usage: loopsim-store <command> [options]\n"
          "\n"
          "commands:\n"
          "  list                 one line per record: fingerprint, "
          "bytes, workload, pipe, IPC\n"
          "  stat                 aggregate summary (records, bytes, "
          "corrupt, schema versions)\n"
          "  verify               validate every record's CRC; exit 1 "
          "if any is corrupt\n"
          "  gc --max-bytes N     evict invalid then oldest records "
          "until <= N bytes\n"
          "  journal list         one line per campaign journal: plan, "
          "progress, verdicts\n"
          "  journal stat         aggregate journal summary\n"
          "  journal verify       validate every journal; exit 1 on "
          "corruption or torn tails\n"
          "  journal prune        remove completed and unreadable "
          "journals\n"
          "\n"
          "options:\n"
          "  --store DIR          store directory (default: "
          "$LOOPSIM_STORE)\n"
          "  --journal DIR        journal directory (default: "
          "$LOOPSIM_JOURNAL)\n"
          "  --max-bytes N        gc's byte budget, a decimal count\n";
    return exit_code;
}

/** Print @p why and the usage text, then exit 2. */
[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "loopsim-store: " << why << "\n";
    std::exit(usage(std::cerr, 2));
}

/** One command's options. */
struct Options
{
    std::string store;
    std::string journal;
    std::string maxBytes;
};

/**
 * Parse @p args, which may hold only the flags in @p accepted, as
 * `--flag V` or `--flag=V`. An unknown flag, a stray argument or a
 * missing or empty value is a usage error.
 */
Options
parseOptions(const std::vector<std::string> &args,
             std::initializer_list<std::string_view> accepted)
{
    Options o;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        if (name.empty() || name[0] != '-')
            usageError("unexpected argument \"" + arg + "\"");
        if (std::find(accepted.begin(), accepted.end(), name) ==
            accepted.end())
            usageError("unknown option \"" + arg + "\"");
        std::string &value = name == "--store"     ? o.store
                             : name == "--journal" ? o.journal
                                                   : o.maxBytes;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < args.size())
            value = args[++i];
        if (value.empty())
            usageError(name + " needs a value");
    }
    return o;
}

std::string
resolveDir(const Options &o)
{
    std::string dir = o.store.empty() ? store::storePath() : o.store;
    if (dir.empty()) {
        std::cerr << "loopsim-store: no store directory (pass --store "
                     "DIR or set LOOPSIM_STORE)\n";
        std::exit(2);
    }
    return dir;
}

int
cmdList(const std::string &dir)
{
    const auto entries = store::scanStore(dir);
    for (const store::StoreEntry &e : entries) {
        std::cout << e.fp.hex() << "  " << e.bytes << "B";
        if (!e.valid) {
            std::cout << "  CORRUPT  " << e.path << "\n";
            continue;
        }
        std::cout << "  " << e.result.workloadLabel << " ["
                  << e.result.pipeLabel << "]";
        if (e.result.failed)
            std::cout << "  FAILED";
        else
            std::cout << "  ipc=" << e.result.ipc << "  cycles="
                      << e.result.cycles;
        std::cout << "\n";
    }
    std::cout << entries.size() << " record(s) in " << dir << "\n";
    return 0;
}

int
cmdStat(const std::string &dir)
{
    const auto entries = store::scanStore(dir);
    std::uint64_t bytes = 0;
    std::size_t corrupt = 0;
    std::size_t failed = 0;
    std::map<std::uint32_t, std::size_t> by_schema;
    for (const store::StoreEntry &e : entries) {
        bytes += e.bytes;
        ++by_schema[e.schema];
        if (!e.valid)
            ++corrupt;
        else if (e.result.failed)
            ++failed;
    }
    std::cout << "store:          " << dir << "\n"
              << "records:        " << entries.size() << "\n"
              << "bytes:          " << bytes << "\n"
              << "corrupt:        " << corrupt << "\n"
              << "failed-runs:    " << failed << "\n"
              << "schema-current: " << store::kSchemaVersion << "\n"
              << "model-epoch:    " << store::kModelEpoch << "\n";
    for (const auto &[schema, count] : by_schema)
        std::cout << "schema[" << schema << "]:      " << count << "\n";
    return 0;
}

int
cmdVerify(const std::string &dir)
{
    const store::VerifyReport report = store::verifyStore(dir);
    for (const std::string &path : report.corruptPaths)
        std::cout << "CORRUPT  " << path << "\n";
    std::cout << report.records << " record(s), " << report.corrupt
              << " corrupt\n";
    return report.corrupt == 0 ? 0 : 1;
}

int
cmdGc(const std::string &dir, const std::string &budget)
{
    if (budget.empty())
        usageError("gc needs --max-bytes N");
    std::uint64_t max_bytes = 0;
    if (!parseCount(budget, max_bytes)) {
        usageError("invalid --max-bytes: \"" + budget +
                   "\" (expected a whole unsigned integer)");
    }
    const store::GcReport report = store::gcStore(dir, max_bytes);
    std::cout << "scanned " << report.scanned << " record(s), removed "
              << report.removed << ": " << report.bytesBefore << "B -> "
              << report.bytesAfter << "B (budget " << max_bytes
              << "B)\n";
    return 0;
}

std::string
resolveJournalDir(const Options &o)
{
    std::string dir = o.journal.empty() ? store::journalPath() : o.journal;
    if (dir.empty()) {
        std::cerr << "loopsim-store: no journal directory (pass "
                     "--journal DIR or set LOOPSIM_JOURNAL)\n";
        std::exit(2);
    }
    return dir;
}

void
printJournalLine(const store::JournalInfo &j)
{
    std::cout << j.planFp.hex() << "  " << j.bytes << "B  ";
    if (!j.headerOk) {
        std::cout << "UNREADABLE  " << j.path << "\n";
        return;
    }
    std::cout << j.entries << "/" << j.planCells << " cells";
    if (j.poison > 0)
        std::cout << " (" << j.poison << " poison)";
    if (j.complete())
        std::cout << "  complete";
    if (j.truncatedTail())
        std::cout << "  torn-tail";
    std::cout << "\n";
}

int
cmdJournalList(const std::string &dir)
{
    const auto journals = store::scanJournals(dir);
    for (const store::JournalInfo &j : journals)
        printJournalLine(j);
    std::cout << journals.size() << " journal(s) in " << dir << "\n";
    return 0;
}

int
cmdJournalStat(const std::string &dir)
{
    const auto journals = store::scanJournals(dir);
    std::uint64_t bytes = 0;
    std::size_t unreadable = 0;
    std::size_t complete = 0;
    std::size_t torn = 0;
    std::size_t entries = 0;
    std::size_t poison = 0;
    for (const store::JournalInfo &j : journals) {
        bytes += j.bytes;
        entries += j.entries;
        poison += j.poison;
        if (!j.headerOk)
            ++unreadable;
        if (j.complete())
            ++complete;
        if (j.headerOk && j.truncatedTail())
            ++torn;
    }
    std::cout << "journals:       " << dir << "\n"
              << "files:          " << journals.size() << "\n"
              << "bytes:          " << bytes << "\n"
              << "complete:       " << complete << "\n"
              << "unreadable:     " << unreadable << "\n"
              << "torn-tails:     " << torn << "\n"
              << "cells:          " << entries << "\n"
              << "poison-cells:   " << poison << "\n"
              << "schema-current: " << store::kSchemaVersion << "\n";
    return 0;
}

int
cmdJournalVerify(const std::string &dir)
{
    std::size_t bad = 0;
    const auto journals = store::scanJournals(dir);
    for (const store::JournalInfo &j : journals) {
        if (!j.headerOk) {
            std::cout << "UNREADABLE  " << j.path << "\n";
            ++bad;
        } else if (j.truncatedTail()) {
            std::cout << "TORN-TAIL   " << j.path << " ("
                      << (j.bytes - j.validBytes)
                      << "B past the valid prefix)\n";
            ++bad;
        }
    }
    std::cout << journals.size() << " journal(s), " << bad
              << " damaged\n";
    return bad == 0 ? 0 : 1;
}

int
cmdJournalPrune(const std::string &dir)
{
    const std::size_t before = store::scanJournals(dir).size();
    const std::size_t removed = store::pruneJournals(dir);
    std::cout << "scanned " << before << " journal(s), removed "
              << removed << " (completed or unreadable)\n";
    return 0;
}

int
cmdJournal(const std::vector<std::string> &args)
{
    if (args.empty())
        usageError("journal needs a subcommand (list|stat|verify|prune)");
    const std::string sub = args[0];
    const std::string dir = resolveJournalDir(parseOptions(
        std::vector<std::string>(args.begin() + 1, args.end()),
        {"--journal"}));
    if (sub == "list")
        return cmdJournalList(dir);
    if (sub == "stat")
        return cmdJournalStat(dir);
    if (sub == "verify")
        return cmdJournalVerify(dir);
    if (sub == "prune")
        return cmdJournalPrune(dir);
    usageError("unknown journal subcommand \"" + sub + "\"");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help")
        return usage(std::cout, 0);

    const std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "journal")
        return cmdJournal(args);
    if (command == "list")
        return cmdList(resolveDir(parseOptions(args, {"--store"})));
    if (command == "stat")
        return cmdStat(resolveDir(parseOptions(args, {"--store"})));
    if (command == "verify")
        return cmdVerify(resolveDir(parseOptions(args, {"--store"})));
    if (command == "gc") {
        const Options o = parseOptions(args, {"--store", "--max-bytes"});
        return cmdGc(resolveDir(o), o.maxBytes);
    }
    usageError("unknown command \"" + command + "\"");
}
