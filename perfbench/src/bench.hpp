/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line options,
 * the result report printed as the last stdout line, the correctness
 * oracle and the seeded request generator.
 *
 * The oracle is independent of the program under test: a write's
 * payload is a seeded function of (address, write number), and the
 * reference map keeps only the number of the last write to each
 * address. A read is correct when it returns exactly that payload.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/oram_system.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace perfbench {

using froram::Addr;
using froram::u32;
using froram::u64;
using froram::u8;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Deliberate faults that prove the checks can fail. */
enum class Fault {
    None,
    CorruptRead, ///< flip one byte of one read result before checking it
    DropSuffix   ///< put back the journal as it was at the checkpoint
};

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_run";
    Fault fault = Fault::None;
    /** Process start, the origin of setup_s. */
    Clock::time_point start = Clock::now();
};

/** What the run prints as its last stdout line. */
class Report {
  public:
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Record a wrong output; the first few are described on stderr. */
    void
    wrong(const std::string& what)
    {
        if (++wrongs_ <= 8)
            std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
    }

    bool correct() const { return wrongs_ == 0; }

    /** A human-readable line printed before the result. */
    void note(const std::string& line) { notes_.push_back(line); }

    u64 attempted = 0;
    u64 failed = 0;

    void print() const;

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    u64 wrongs_ = 0;
};

/**
 * Reference map plus payload function. Payloads are 64-bit words of
 * splitmix64 over (seed, address, write number), so a stale read (an
 * older write number), a misrouted read (another address) and a torn
 * read all differ from the expected bytes.
 */
class Oracle {
  public:
    Oracle(u64 seed, u64 blocks, u64 block_bytes)
        : seed_(seed), blockBytes_(block_bytes), writes_(blocks, 0)
    {
    }

    u64 blockBytes() const { return blockBytes_; }

    /** Payload of write number `k` (>= 1) to `addr`. */
    void
    payload(Addr addr, u32 k, u8* out) const
    {
        const u64 base = froram::splitmix64Mix(
            seed_ ^ froram::splitmix64Mix(addr * 0x9e3779b97f4a7c15ULL + k));
        for (u64 off = 0; off < blockBytes_; off += 8) {
            const u64 w = froram::splitmix64Mix(base + off);
            std::memcpy(out + off, &w, std::min<u64>(8, blockBytes_ - off));
        }
    }

    std::vector<u8>
    payload(Addr addr, u32 k) const
    {
        std::vector<u8> out(blockBytes_);
        payload(addr, k, out.data());
        return out;
    }

    /** Count a new write to `addr`; returns its write number. */
    u32 recordWrite(Addr addr) { return ++writes_[addr]; }

    /** Write number a read of `addr` must observe now. */
    u32 lastWrite(Addr addr) const { return writes_[addr]; }

    u64 blocks() const { return writes_.size(); }

    /** True when `data` is exactly write `k` to `addr`. */
    bool
    matches(Addr addr, u32 k, const std::vector<u8>& data)
    {
        if (data.size() != blockBytes_)
            return false;
        scratch_.resize(blockBytes_);
        payload(addr, k, scratch_.data());
        return std::memcmp(scratch_.data(), data.data(), blockBytes_) == 0;
    }

  private:
    u64 seed_;
    u64 blockBytes_;
    std::vector<u32> writes_;
    std::vector<u8> scratch_;
};

/** Seeded uniform request stream: one write every `writeEvery`. */
class Generator {
  public:
    Generator(u64 seed, u64 range, u32 write_every)
        : rng_(seed), range_(range), writeEvery_(write_every)
    {
    }

    std::pair<Addr, bool>
    next()
    {
        const bool is_write = n_++ % writeEvery_ == 0;
        return {rng_.below(range_), is_write};
    }

  private:
    froram::Xoshiro256 rng_;
    u64 range_;
    u32 writeEvery_;
    u64 n_ = 0;
};

/** Latency samples in microseconds. */
class Samples {
  public:
    void add(double us) { v_.push_back(static_cast<float>(us)); }
    size_t size() const { return v_.size(); }
    double percentile(double p);
    /** Median over consecutive slices of `slice` samples of each
     *  slice's p-th percentile: a burst of interference inside one run
     *  moves a few slices, not the result. */
    double slicedPercentile(double p, size_t slice) const;

  private:
    std::vector<float> v_;
};

/** Median of `v` (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    if (v.size() % 2 == 1)
        return v[mid];
    const double hi = v[mid];
    return (hi + *std::max_element(v.begin(),
                                   v.begin() +
                                       static_cast<std::ptrdiff_t>(mid))) /
           2;
}

/** FNV-1a over bytes (read-value fingerprints). */
inline u64
fnv(u64 h, const u8* p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}
constexpr u64 kFnvBasis = 0xcbf29ce484222325ULL;

/**
 * AES-CTR pads for every system the benchmark builds. The knob is
 * tested at compile time, so once the fast simulation pad and its
 * switch are deleted (AES-CTR then being the only cipher) this
 * compiles unchanged.
 */
template <typename C, typename = void>
struct HasRealAes : std::false_type {};
template <typename C>
struct HasRealAes<C, std::void_t<decltype(std::declval<C&>().realAes)>>
    : std::true_type {};

template <typename C>
void
selectAesPads(C& cfg)
{
    if constexpr (HasRealAes<C>::value)
        cfg.realAes = true;
}

/** Peak resident set of this process, in MiB. */
double peakRssMb();
/** CPU seconds of this process (all threads) / of the calling thread. */
double processCpuSeconds();
double threadCpuSeconds();

/** Remove `dir` recursively (missing is fine). */
void removeTree(const std::string& dir);

/** Workload entry points. */
int runEngine(const Options& opt, Report& report);
int runService(const Options& opt, Report& report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
