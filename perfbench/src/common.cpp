/**
 * @file
 * Report printing, process probes, span storage and the standalone
 * layer probes (MAC, request journal) shared by every workload.
 */
#include <sys/resource.h>

#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "crypto/prf.hpp"
#include "journal/request_journal.hpp"
#include "trace.hpp"

namespace perfbench {

void
Report::print() const
{
    for (const std::string& n : notes_)
        std::printf("%s\n", n.c_str());
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        char num[64];
        // A non-finite value is not JSON; report it as null so the
        // runner refuses the result instead of the parser.
        if (std::isfinite(m.value))
            std::snprintf(num, sizeof(num), "%.17g", m.value);
        else
            std::snprintf(num, sizeof(num), "null");
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               num + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
Samples::percentile(double p)
{
    if (v_.empty())
        return 0;
    const size_t idx = std::min(
        v_.size() - 1,
        static_cast<size_t>(p / 100.0 * static_cast<double>(v_.size())));
    std::nth_element(v_.begin(),
                     v_.begin() + static_cast<std::ptrdiff_t>(idx),
                     v_.end());
    return v_[idx];
}

double
Samples::slicedPercentile(double p, size_t slice) const
{
    std::vector<double> per_slice;
    for (size_t at = 0; at + slice <= v_.size(); at += slice) {
        Samples s;
        s.v_.assign(v_.begin() + static_cast<std::ptrdiff_t>(at),
                    v_.begin() + static_cast<std::ptrdiff_t>(at + slice));
        per_slice.push_back(s.percentile(p));
    }
    return median(per_slice);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {
double
cpuSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}
} // namespace

double processCpuSeconds() { return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuSeconds() { return cpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

void
removeTree(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// ------------------------------------------------------------- tracing

const char*
spanName(u32 name)
{
    static const char* const kNames[kNumSpanNames] = {
        "oram.submit",     "mem.gatherView",  "mem.view",
        "mem.read",        "mem.write",       "mem.prefetch",
        "mem.sync",        "crypto.spans",    "crypto.bulk",
        "crypto.pad"};
    return name < kNumSpanNames ? kNames[name] : "root";
}

Tracer::Sum
Tracer::sum(u32 first, u32 last) const
{
    Sum s;
    for (u32 n = first; n <= last; ++n) {
        s.count += totals_[n].count;
        s.bytes += totals_[n].bytes;
        s.ns += totals_[n].estNs();
    }
    return s;
}

void
Tracer::reset()
{
    for (Total& t : totals_)
        t = Total{};
    spans_.clear();
}

bool
Tracer::dump(const std::string& path) const
{
    std::ofstream out(path);
    out << "name,request,parent,start_ns,end_ns\n";
    for (const Span& s : spans_)
        out << spanName(s.name) << ',' << s.request << ','
            << spanName(s.parent) << ',' << s.start << ',' << s.end
            << '\n';
    return static_cast<bool>(out);
}

// ------------------------------------------------------ layer probes

double
measureMacUs(double seconds)
{
    u8 key[16];
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<u8>(0x40 + i);
    const froram::Mac mac(key);
    std::vector<u8> block(64, 0x5a);
    u64 n = 0;
    u8 sink = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
        for (int i = 0; i < 256; ++i, ++n) {
            const froram::Mac::Tag tag = mac.compute(n, n * 7, block.data(),
                                                     block.size());
            sink ^= tag[0];
            block[n % block.size()] ^= tag[1];
        }
        elapsed = secondsSince(t0);
    } while (elapsed < seconds);
    volatile u8 observed = sink; // keeps the MAC loop from folding away
    (void)observed;
    return elapsed * 1e6 / static_cast<double>(n);
}

JournalProbe
probeJournal(const std::string& dir, u64 block_bytes, u32 write_every,
             u64 fsync_every, double seconds)
{
    std::filesystem::create_directories(dir);
    froram::JournalConfig jc;
    jc.enabled = true;
    jc.fsyncEveryRecords = fsync_every;
    froram::RequestJournal journal(dir, 0, jc, froram::RetryPolicy{},
                                   nullptr, /*reset=*/true);
    std::vector<u8> payload(block_bytes, 0x3c);
    froram::Xoshiro256 rng(0x10a1);
    JournalProbe p;
    u64 append_ns = 0;
    u64 sync_ns = 0;
    u64 barriers = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        for (u64 i = 0; i < fsync_every; ++i, ++p.records) {
            const bool is_write = p.records % write_every == 0;
            const u64 a = Tracer::now();
            journal.append(rng.below(1u << 20), is_write,
                           is_write ? payload.data() : nullptr,
                           is_write ? payload.size() : 0);
            append_ns += Tracer::now() - a;
        }
        const u64 s = Tracer::now();
        journal.sync();
        sync_ns += Tracer::now() - s;
        ++barriers;
    }
    p.appendUsPerRecord = static_cast<double>(append_ns) / 1e3 /
                          static_cast<double>(p.records);
    p.syncUsPerBarrier =
        static_cast<double>(sync_ns) / 1e3 / static_cast<double>(barriers);
    return p;
}

} // namespace perfbench

// ------------------------------------------------------------------ main

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload engine-recursive|"
                 "engine-resident|service-durable --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] "
                 "[--fault corrupt-read|drop-suffix]\n");
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt;
    opt.start = Clock::now();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::stoull(val);
        else if (key == "--seconds")
            opt.seconds = std::stod(val);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--work-dir")
            opt.workDir = val;
        else if (key == "--fault" && val == "corrupt-read")
            opt.fault = Fault::CorruptRead;
        else if (key == "--fault" && val == "drop-suffix")
            opt.fault = Fault::DropSuffix;
        else {
            usage();
            return 2;
        }
    }
    if (opt.seconds <= 0) {
        usage();
        return 2;
    }
    Report report;
    int rc = 0;
    try {
        if (opt.workload == "engine-recursive" ||
            opt.workload == "engine-resident")
            rc = runEngine(opt, report);
        else if (opt.workload == "service-durable")
            rc = runService(opt, report);
        else {
            usage();
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (rc != 0)
        return rc;
    report.print();
    return report.correct() ? 0 : 1;
}
