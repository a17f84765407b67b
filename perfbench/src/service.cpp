/**
 * @file
 * The service-durable workload: a ShardedOramService (PC_X32, Path,
 * one mmap file per shard, request journal on) with 4 shards on 3
 * workers, driven closed loop with a fixed window of batches of 32
 * outstanding. Traffic is uniform over the whole address space, 1:1
 * read:write, so half the journal records carry a payload.
 *
 * Every run ends with checkpoint(), a fixed suffix of acknowledged
 * requests, teardown without a final checkpoint, and open(), which
 * must replay the suffix: every address is then read back against the
 * reference map (RPO = 0).
 *
 * The traced run adds: the time inside submit(), worker CPU time per
 * request, open() decomposed into the public calls it makes, shard 0's
 * request stream replayed on a standalone engine (untraced and traced),
 * and a standalone RequestJournal with the workload's record mix.
 */
#include <cmath>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>

#include "bench.hpp"
#include "journal/request_journal.hpp"
#include "shard/sharded_service.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using froram::AccessRequest;
using froram::AccessResult;
using froram::CheckpointScope;
using froram::OramSystem;
using froram::OramSystemConfig;
using froram::RequestStatus;
using froram::SchemeId;
using froram::ShardedOramService;
using froram::ShardedServiceConfig;
using froram::ShardRequest;

constexpr SchemeId kScheme = SchemeId::PlbCompressed;
constexpr u32 kShards = 4;
constexpr u32 kWorkers = 3;
constexpr u64 kCapacityBytes = u64{16} << 20; ///< 262,144 blocks
constexpr u64 kBatch = 32;          ///< requests per submit()
constexpr size_t kWindow = 8;       ///< batches kept outstanding
constexpr u64 kRoundBatches = 64;   ///< 2,048 requests per round
constexpr u64 kMinRounds = 8;       ///< rounds every run completes
constexpr u64 kSuffixBatches = 128; ///< 4,096 requests after checkpoint
constexpr u32 kWriteEvery = 2;      ///< 1:1 read:write
/** checkpoint() and open() are timed this many times; the median is
 *  reported. Both are bound by memory and file-mapping faults, and on
 *  a shared host one call in three can run 20-40% slow. */
constexpr int kRecoveryRepeats = 7;
/** open() and its decomposition into public calls may differ by this
 *  share of open()'s time (the README states it). */
constexpr double kOpenSumBound = 0.25;

ShardedServiceConfig
serviceConfig(const std::string& dir)
{
    ShardedServiceConfig c;
    c.scheme = kScheme;
    c.base.capacityBytes = kCapacityBytes;
    c.base.storage = froram::StorageMode::Encrypted;
    c.base.backend = froram::StorageBackendKind::MmapFile;
    c.base.bucketScheme = froram::BucketSchemeKind::Path;
    selectAesPads(c.base);
    c.numShards = kShards;
    c.numWorkers = kWorkers;
    c.directory = dir;
    c.supervision.journal.enabled = true;
    return c;
}

/** One request as the generator made it. */
struct Expect {
    Addr addr;
    bool isWrite;
    u32 k; ///< write number it writes, or must read
};

/** Shard 0's requests in submission order (for the standalone replay). */
struct ShardStream {
    u32 shard = 0;
    std::vector<Expect> reqs;     ///< global addresses
    std::vector<Addr> local;      ///< shard-local addresses
    size_t measuredFrom = 0;      ///< index of the first measured request
    size_t measuredTo = 0;        ///< one past the last measured request
};

/**
 * The closed loop: up to kWindow batches in flight; retiring the
 * oldest checks every result and records the batch latency.
 */
class Pipeline {
  public:
    Pipeline(ShardedOramService& svc, Oracle& oracle, Report& report)
        : svc_(svc), oracle_(oracle), report_(report)
    {
    }

    Samples* latency = nullptr;    ///< batch latencies when measuring
    ShardStream* record = nullptr; ///< shard stream to append to
    Fault fault = Fault::None;
    bool countPrefix = false;      ///< batches issued now add to prefixBytes
    u64 prefixBytes = 0;
    u64 submitNs = 0;
    u64 submits = 0;

    /** Generate and issue one batch (blocks while the window is full). */
    template <typename NextFn>
    void
    issue(NextFn&& next)
    {
        while (inflight_.size() >= kWindow)
            retire();
        InFlight f;
        std::vector<ShardRequest> batch(kBatch);
        f.expect.reserve(kBatch);
        for (u64 i = 0; i < kBatch; ++i) {
            const auto [addr, is_write] = next();
            ShardRequest& r = batch[i];
            r.addr = addr;
            r.isWrite = is_write;
            u32 k;
            if (is_write) {
                k = oracle_.recordWrite(addr);
                r.writeData = oracle_.payload(addr, k);
            } else {
                k = oracle_.lastWrite(addr);
            }
            f.expect.push_back({addr, is_write, k});
            if (record != nullptr && svc_.shardOf(addr) == record->shard) {
                record->reqs.push_back({addr, is_write, k});
                record->local.push_back(svc_.shardLocalAddr(addr));
            }
        }
        f.prefix = countPrefix;
        f.t0 = Clock::now();
        f.fut = svc_.submit(std::move(batch));
        submitNs += static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - f.t0)
                .count());
        ++submits;
        inflight_.push_back(std::move(f));
    }

    void
    drain()
    {
        while (!inflight_.empty())
            retire();
    }

  private:
    struct InFlight {
        std::future<ShardedOramService::BatchResult> fut;
        Clock::time_point t0;
        std::vector<Expect> expect;
        bool prefix = false;
    };

    void
    retire()
    {
        InFlight f = std::move(inflight_.front());
        inflight_.pop_front();
        ShardedOramService::BatchResult res = f.fut.get();
        if (latency != nullptr)
            latency->add(std::chrono::duration<double, std::micro>(
                             Clock::now() - f.t0)
                             .count());
        for (size_t i = 0; i < res.size(); ++i) {
            froram::ShardAccessResult& r = res[i];
            const Expect& e = f.expect[i];
            ++report_.attempted;
            if (r.status != RequestStatus::Ok) {
                ++report_.failed;
                continue;
            }
            if (f.prefix)
                prefixBytes += r.result.bytesMoved;
            if (r.addr != e.addr || r.shard != svc_.shardOf(e.addr))
                report_.wrong("request for block " + std::to_string(e.addr) +
                              " came back as block " +
                              std::to_string(r.addr) + " from shard " +
                              std::to_string(r.shard));
            if (fault == Fault::CorruptRead && !e.isWrite) {
                r.result.data[0] ^= 1;
                fault = Fault::None;
            }
            if (!oracle_.matches(e.addr, e.k, r.result.data))
                report_.wrong(std::string(e.isWrite ? "write" : "read") +
                              " of block " + std::to_string(e.addr) +
                              " returned bytes other than write #" +
                              std::to_string(e.k));
        }
    }

    ShardedOramService& svc_;
    Oracle& oracle_;
    Report& report_;
    std::deque<InFlight> inflight_;
};

/** Issue every block's first write (set-up) or a read of every block. */
void
sweep(Pipeline& pipe, u64 blocks, bool writes)
{
    Addr a = 0;
    for (u64 b = 0; b < blocks / kBatch; ++b)
        pipe.issue([&] { return std::make_pair(a++, writes); });
    pipe.drain();
}

/** Journal segment files of the service directory. */
std::vector<std::filesystem::path>
journalFiles(const std::string& dir)
{
    std::vector<std::filesystem::path> out;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".wal")
            out.push_back(e.path());
    return out;
}

/** The measured phase: whole rounds until `seconds` have passed. */
struct Measured {
    u64 requests = 0;
    double workerCpuS = 0;
    std::vector<double> roundS; ///< wall time of each round
};

Measured
measure(Pipeline& pipe, Generator& gen, double seconds)
{
    Measured m;
    const double cpu0 = processCpuSeconds();
    const double main0 = threadCpuSeconds();
    const auto t0 = Clock::now();
    u64 rounds = 0;
    double last = 0;
    while (rounds < kMinRounds || last < seconds) {
        pipe.countPrefix = rounds < kMinRounds;
        for (u64 b = 0; b < kRoundBatches; ++b)
            pipe.issue([&] { return gen.next(); });
        ++rounds;
        const double now = secondsSince(t0);
        m.roundS.push_back(now - last);
        last = now;
    }
    pipe.drain();
    m.workerCpuS = (processCpuSeconds() - cpu0) - (threadCpuSeconds() - main0);
    m.requests = rounds * kRoundBatches * kBatch;
    pipe.countPrefix = false;
    return m;
}

/** Snapshot path of (shard, generation): shard-NNNN.gG.ckpt. */
std::string
snapshotPath(const std::string& dir, u32 shard, u64 gen)
{
    char name[64];
    std::snprintf(name, sizeof(name), "shard-%04u.g%llu.ckpt", shard,
                  static_cast<unsigned long long>(gen));
    return dir + "/" + name;
}

/** open() decomposed into the public calls it makes, per shard. */
struct OpenStages {
    double readS = 0;    ///< read the sealed snapshot
    double restoreS = 0; ///< construct over the shard file + restore
    double replayS = 0;  ///< replay the journal suffix through submit()
    double resealS = 0;  ///< checkpoint(Full): the new recovery point
    u64 replayed = 0;
    u64 blobBytes = 0;
    double total() const { return readS + restoreS + replayS + resealS; }
};

OpenStages
decomposedOpen(const ShardedServiceConfig& cfg,
               const std::vector<OramSystemConfig>& shard_cfgs, u64 gen,
               const std::vector<u64>& suffix_per_shard, Report& report)
{
    OpenStages st;
    for (u32 s = 0; s < kShards; ++s) {
        auto t = Clock::now();
        const std::vector<u8> blob =
            froram::ckpt::readFile(snapshotPath(cfg.directory, s, gen));
        st.readS += secondsSince(t);
        st.blobBytes += blob.size();

        t = Clock::now();
        OramSystemConfig sc = shard_cfgs[s];
        sc.backendReset = false;
        auto sys = std::make_unique<OramSystem>(cfg.scheme, sc);
        sys->restore(blob);
        st.restoreS += secondsSince(t);

        t = Clock::now();
        froram::RequestJournal j(cfg.directory, s, cfg.supervision.journal,
                                 cfg.supervision.retry, nullptr,
                                 /*reset=*/false);
        const u64 to = j.lastAppended();
        const u64 from = to - suffix_per_shard[s];
        AccessResult scratch;
        u64 replayed = 0;
        j.replay(from, to, [&](const froram::JournalRecord& rec) {
            AccessRequest q;
            q.addr = rec.addr;
            q.isWrite = rec.isWrite;
            q.writeData =
                rec.isWrite && !rec.payload.empty() ? &rec.payload : nullptr;
            sys->submit(&q, &scratch, 1);
            ++replayed;
        });
        st.replayS += secondsSince(t);
        st.replayed += replayed;
        if (replayed != suffix_per_shard[s])
            report.wrong("shard " + std::to_string(s) + " journal replayed " +
                         std::to_string(replayed) + " of " +
                         std::to_string(suffix_per_shard[s]) +
                         " suffix records");

        t = Clock::now();
        const std::vector<u8> point = sys->checkpoint(CheckpointScope::Full);
        st.resealS += secondsSince(t);
    }
    return st;
}

/** What one engine's pass over a shard stream added up to. */
struct StreamPass {
    std::vector<double> blockS; ///< wall time of each measured block
    u64 readHash = kFnvBasis;
    u64 bytes = 0;
    u64 maxStash = 0;
};

/** Requests per submit() in the standalone replay: a batch's share of
 *  one shard, so the next request's path prefetch is issued under the
 *  current one, as the shard worker does. */
constexpr size_t kReplayChunk = kBatch / kShards;
/** Measured requests per block; the two standalone engines alternate
 *  block by block so both see the same machine. */
constexpr size_t kReplayBlock = 1024;

/**
 * Drive requests [from, to) of `stream` through `submit(reqs, results,
 * n)`, checking every result. With `measured`, the range is one timed
 * block and its bytes and read values are added to `p`.
 */
template <typename SubmitFn, typename StashFn>
void
replayRange(const ShardStream& stream, size_t from, size_t to,
            bool measured, Oracle& oracle, SubmitFn&& submit,
            StashFn&& stash, Report& report, StreamPass& p)
{
    std::vector<AccessRequest> q(kReplayChunk);
    std::vector<AccessResult> r(kReplayChunk);
    std::vector<std::vector<u8>> wbuf(kReplayChunk,
                                      std::vector<u8>(oracle.blockBytes()));
    const auto t0 = Clock::now();
    for (size_t i = from; i < to; i += kReplayChunk) {
        const size_t n = std::min(kReplayChunk, to - i);
        for (size_t j = 0; j < n; ++j) {
            const Expect& e = stream.reqs[i + j];
            if (e.isWrite)
                oracle.payload(e.addr, e.k, wbuf[j].data());
            q[j] = {stream.local[i + j], e.isWrite,
                    e.isWrite ? &wbuf[j] : nullptr, false};
        }
        submit(q.data(), r.data(), n);
        for (size_t j = 0; j < n; ++j) {
            const Expect& e = stream.reqs[i + j];
            if (!oracle.matches(e.addr, e.k, r[j].data))
                report.wrong("standalone replay of block " +
                             std::to_string(e.addr) +
                             " returned other bytes");
            if (measured) {
                p.bytes += r[j].bytesMoved;
                if (!e.isWrite)
                    p.readHash =
                        fnv(p.readHash, r[j].data.data(), r[j].data.size());
            }
        }
        if (measured)
            p.maxStash = std::max(p.maxStash, stash());
    }
    if (measured)
        p.blockS.push_back(secondsSince(t0));
}

} // namespace

int
runService(const Options& opt, Report& report)
{
    const std::string dir = opt.workDir + "/service-" + std::to_string(opt.seed);
    removeTree(dir);
    std::filesystem::create_directories(dir);
    const ShardedServiceConfig cfg = serviceConfig(dir);
    const u64 blocks = kCapacityBytes / cfg.base.blockBytes;

    auto svc = std::make_unique<ShardedOramService>(cfg);
    Oracle oracle(opt.seed, blocks, cfg.base.blockBytes);
    ShardStream stream;
    auto pipe = std::make_unique<Pipeline>(*svc, oracle, report);
    if (opt.trace)
        pipe->record = &stream;
    sweep(*pipe, blocks, /*writes=*/true);
    const double setup_s = secondsSince(opt.start);

    Generator gen(opt.seed, blocks, kWriteEvery);
    Samples lat;
    pipe->latency = &lat;
    pipe->fault = opt.fault == Fault::CorruptRead ? Fault::CorruptRead
                                                  : Fault::None;
    stream.measuredFrom = stream.reqs.size();
    pipe->submitNs = 0;
    pipe->submits = 0;
    const Measured m = measure(*pipe, gen, opt.trace ? opt.seconds / 2
                                                     : opt.seconds);
    stream.measuredTo = stream.reqs.size();
    const u64 prefix_bytes = pipe->prefixBytes;
    pipe->latency = nullptr;
    pipe->record = nullptr;
    const double submit_us =
        static_cast<double>(pipe->submitNs) / 1e3 /
        static_cast<double>(pipe->submits);

    // Traced run: time checkpoint(Full) of each shard (the seal) and
    // keep the shard configurations for the decomposed open().
    std::vector<OramSystemConfig> shard_cfgs;
    double seal_s = 0;
    if (opt.trace) {
        svc->drain(); // shard() is only safe with nothing in flight
        for (u32 s = 0; s < kShards; ++s) {
            shard_cfgs.push_back(svc->shard(s).config());
            const auto t = Clock::now();
            const std::vector<u8> blob =
                svc->shard(s).checkpoint(CheckpointScope::Full);
            seal_s += secondsSince(t);
        }
    }

    std::vector<double> ck;
    for (int i = 0; i < kRecoveryRepeats; ++i) {
        const auto t = Clock::now();
        svc->checkpoint();
        ck.push_back(secondsSince(t));
    }
    const double checkpoint_s = median(ck);
    const u64 gen_no = svc->generation();

    const std::string saved = dir + "/journal-at-checkpoint";
    if (opt.fault == Fault::DropSuffix) {
        std::filesystem::create_directories(saved);
        for (const auto& f : journalFiles(dir))
            std::filesystem::copy_file(f, saved + "/" + f.filename().string());
    }

    // The suffix: acknowledged, never checkpointed.
    std::vector<u64> suffix(kShards, 0);
    for (u64 b = 0; b < kSuffixBatches; ++b)
        pipe->issue([&] {
            const auto r = gen.next();
            ++suffix[svc->shardOf(r.first)];
            return r;
        });
    pipe->drain();
    pipe.reset();
    svc.reset(); // teardown with no final checkpoint

    if (opt.fault == Fault::DropSuffix) {
        for (const auto& f : journalFiles(dir))
            std::filesystem::remove(f);
        for (const auto& f : journalFiles(saved))
            std::filesystem::copy_file(f, dir + "/" + f.filename().string());
    }

    // open() seals no new generation, so every open() replays the
    // same suffix from the same checkpoint.
    std::vector<double> rc;
    for (int i = 0; i < kRecoveryRepeats; ++i) {
        svc.reset();
        const auto t = Clock::now();
        svc = ShardedOramService::open(cfg);
        rc.push_back(secondsSince(t));
    }
    const double recover_s = median(rc);

    // Traced run: open() decomposed into the public calls it makes,
    // against one more open() in the same (warm) conditions.
    OpenStages stages;
    double reopen_s = 0;
    if (opt.trace) {
        svc.reset();
        stages = decomposedOpen(cfg, shard_cfgs, gen_no, suffix, report);
        const auto t = Clock::now();
        svc = ShardedOramService::open(cfg);
        reopen_s = secondsSince(t);
    }
    pipe = std::make_unique<Pipeline>(*svc, oracle, report);
    sweep(*pipe, blocks, /*writes=*/false); // RPO = 0: suffix included
    pipe.reset();
    svc.reset();

    if (!opt.trace) {
        report.note("batch latency samples (batches of " +
                    std::to_string(kBatch) + "): " +
                    std::to_string(lat.size()));
        report.add("setup_s", setup_s, "s");
        report.add("acc_per_s",
                   static_cast<double>(kRoundBatches * kBatch) /
                       median(m.roundS),
                   "1/s");
        report.add("latency_p50_us", lat.percentile(50), "us");
        report.add("latency_p99_us", lat.percentile(99), "us");
        report.add("bytes_per_acc",
                   static_cast<double>(prefix_bytes) /
                       static_cast<double>(kMinRounds * kRoundBatches *
                                           kBatch),
                   "B");
        report.add("checkpoint_s", checkpoint_s, "s");
        report.add("recover_s", recover_s, "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        removeTree(dir);
        return 0;
    }

    // Open() against its decomposition.
    if (std::abs(stages.total() - reopen_s) > kOpenSumBound * reopen_s)
        report.wrong("open() took " + std::to_string(reopen_s) +
                     " s but its decomposed stages sum to " +
                     std::to_string(stages.total()) + " s");
    report.note("open() " + std::to_string(reopen_s) +
                " s; decomposed: read " + std::to_string(stages.readS) +
                " + restore " + std::to_string(stages.restoreS) +
                " + replay " + std::to_string(stages.replayS) +
                " + reseal " + std::to_string(stages.resealS) + " s");

    // Shard 0's stream on standalone engines over mmap files, one
    // untraced and one traced, alternating block by block.
    OramSystemConfig sc = shard_cfgs[0];
    sc.backendReset = true;
    sc.backendPath = dir + "/standalone.oram";
    OramSystem sys(kScheme, sc);
    auto& fe = dynamic_cast<froram::UnifiedFrontend&>(sys.frontend());
    const auto sys_submit = [&sys](const AccessRequest* q, AccessResult* r,
                                   size_t n) { sys.submit(q, r, n); };
    const auto sys_stash = [&fe] { return fe.backend().stash().occupancy(); };
    sc.backendPath = dir + "/standalone-traced.oram";
    TracedEngine engine(sc, kScheme);
    const auto eng_submit = [&engine](const AccessRequest* q,
                                      AccessResult* r,
                                      size_t n) { engine.submit(q, r, n); };
    const auto eng_stash = [&engine] { return engine.stashOccupancy(); };

    StreamPass plain, traced;
    replayRange(stream, 0, stream.measuredFrom, false, oracle, sys_submit,
                sys_stash, report, plain);
    replayRange(stream, 0, stream.measuredFrom, false, oracle, eng_submit,
                eng_stash, report, traced);
    engine.mark();
    size_t measured = 0;
    for (size_t i = stream.measuredFrom;
         i + kReplayBlock <= stream.measuredTo; i += kReplayBlock) {
        replayRange(stream, i, i + kReplayBlock, true, oracle, sys_submit,
                    sys_stash, report, plain);
        replayRange(stream, i, i + kReplayBlock, true, oracle, eng_submit,
                    eng_stash, report, traced);
        measured += kReplayBlock;
    }
    if (traced.readHash != plain.readHash || traced.bytes != plain.bytes)
        report.wrong("traced and untraced standalone passes differ");
    engine.reportLayers(report, static_cast<double>(measured),
                        traced.maxStash);

    const double engine_us = median(plain.blockS) * 1e6 / kReplayBlock;
    report.add("shard.submit_us_per_batch", submit_us, "us");
    report.add("shard.engine_us_per_acc", engine_us, "us");
    report.add("shard.overhead_us_per_acc",
               m.workerCpuS * 1e6 / static_cast<double>(m.requests) -
                   engine_us,
               "us");
    const JournalProbe jp =
        probeJournal(dir + "/journal-probe", cfg.base.blockBytes,
                     kWriteEvery, cfg.supervision.journal.fsyncEveryRecords,
                     0.5);
    report.add("journal.append_us_per_rec", jp.appendUsPerRecord, "us");
    report.add("journal.sync_us_per_barrier", jp.syncUsPerBarrier, "us");
    report.add("journal.replay_rec_per_s",
               static_cast<double>(stages.replayed) / stages.replayS, "1/s");
    report.add("checkpoint.seal_s", seal_s, "s");
    report.add("checkpoint.restore_s", stages.restoreS, "s");
    report.add("checkpoint.reseal_s", stages.resealS, "s");
    report.add("checkpoint.blob_bytes_per_data_byte",
               static_cast<double>(stages.blobBytes) /
                   static_cast<double>(kCapacityBytes),
               "ratio");
    const double untraced_aps = kReplayBlock / median(plain.blockS);
    const double traced_aps = kReplayBlock / median(traced.blockS);
    report.add("trace.untraced_acc_per_s", untraced_aps, "1/s");
    report.add("trace.traced_acc_per_s", traced_aps, "1/s");
    report.add("trace.overhead_pct", (untraced_aps / traced_aps - 1) * 100,
               "%");
    if (!engine.dumpSpans(opt.workDir + "/spans-" + opt.workload + "-" +
                          std::to_string(opt.seed) + ".csv"))
        std::fprintf(stderr, "perfbench: could not write the span file\n");
    removeTree(dir);
    return 0;
}

} // namespace perfbench
