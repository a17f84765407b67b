/**
 * @file
 * The two single-engine workloads: one OramSystem driven closed loop,
 * one request per submit(), on a flat in-RAM backend with AES-CTR pads.
 *
 *  - engine-recursive: PIC_X32 on a Path tree whose level-1 PosMap is
 *    8x the PLB's reach, so the PosMap walk and PMMAC do real work.
 *  - engine-resident:  PC_X32 on a Ring tree over a hot set the PLB
 *    covers, so after warm-up every access is one backend access.
 *
 * The untraced run measures the end-to-end metrics. The traced run
 * serves the same request stream from an OramSystem and from the same
 * engine built from its public parts with timing decorators,
 * alternating round by round, and reports the per-layer breakdown.
 */
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/unified_frontend.hpp"
#include "journal/request_journal.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using froram::AccessRequest;
using froram::AccessResult;
using froram::BucketSchemeKind;
using froram::CheckpointScope;
using froram::OramSystem;
using froram::OramSystemConfig;
using froram::SchemeId;

struct EngineSpec {
    SchemeId scheme;
    BucketSchemeKind bucket;
    u64 capacityBytes;
    u64 workingBlocks; ///< addresses [0, workingBlocks) are used
};

EngineSpec
specFor(const std::string& workload)
{
    if (workload == "engine-recursive")
        // 16 MB: 262,144 blocks, 8,192 level-1 PosMap blocks against
        // the 1,024-line PLB. Every block is used.
        return {SchemeId::PlbIntegrityCompressed, BucketSchemeKind::Path,
                u64{16} << 20, u64{1} << 18};
    // 4 MB tree; its first 16,384 blocks are the hot set, whose 512
    // level-1 PosMap blocks fill half the PLB.
    return {SchemeId::PlbCompressed, BucketSchemeKind::Ring, u64{4} << 20,
            u64{1} << 14};
}

constexpr u64 kRound = 4096;     ///< requests per round
constexpr u64 kMinRounds = 16;   ///< rounds every run completes
constexpr u32 kWriteEvery = 4;   ///< 3:1 read:write
/** Checkpoint and recovery are timed this many times; the median is
 *  reported. */
constexpr int kRecoveryRepeats = 5;

OramSystemConfig
systemConfig(const EngineSpec& spec)
{
    OramSystemConfig c;
    c.capacityBytes = spec.capacityBytes;
    c.backend = froram::StorageBackendKind::Flat;
    c.storage = froram::StorageMode::Encrypted;
    c.bucketScheme = spec.bucket;
    selectAesPads(c);
    return c;
}

/** What one pass of requests added up to. */
struct StreamTotals {
    u64 rounds = 0;
    u64 requests = 0;
    u64 bytes = 0;
    u64 prefixBytes = 0; ///< over the first kMinRounds rounds: exact
    u64 notOneBackendAccess = 0;
    u64 maxStash = 0;
    u64 readHash = kFnvBasis;
    u64 reads = 0;
    std::vector<double> roundS; ///< wall time of each round
};

/** Anything with submit(req, res) for one request, plus its stash. */
struct EngineHandle {
    std::function<void(const AccessRequest&, AccessResult&)> submit;
    std::function<u64()> stash;
};

/**
 * Drive one round of `kRound` requests from `gen`, adding to `t`.
 * Every result is checked against the oracle; latencies go to `lat`
 * when given.
 */
void
runRound(Generator& gen, Oracle& oracle, const EngineHandle& eng,
         Samples* lat, Fault fault, Report& report, StreamTotals& t)
{
    AccessRequest req;
    AccessResult res;
    std::vector<u8> wbuf(oracle.blockBytes());
    const auto t0 = Clock::now();
    for (u64 i = 0; i < kRound; ++i) {
        const auto [addr, is_write] = gen.next();
        u32 k;
        if (is_write) {
            k = oracle.recordWrite(addr);
            oracle.payload(addr, k, wbuf.data());
            req = {addr, true, &wbuf, false};
        } else {
            k = oracle.lastWrite(addr);
            req = {addr, false, nullptr, false};
        }
        const auto s = Clock::now();
        eng.submit(req, res);
        if (lat != nullptr)
            lat->add(
                std::chrono::duration<double, std::micro>(Clock::now() - s)
                    .count());
        ++report.attempted;
        t.bytes += res.bytesMoved;
        if (t.rounds < kMinRounds)
            t.prefixBytes += res.bytesMoved;
        t.notOneBackendAccess += res.backendAccesses != 1 ? 1 : 0;
        t.maxStash = std::max(t.maxStash, eng.stash());
        if (!is_write) {
            if (fault == Fault::CorruptRead && t.reads == 0 &&
                !res.data.empty())
                res.data[0] ^= 1;
            t.readHash = fnv(t.readHash, res.data.data(), res.data.size());
            ++t.reads;
        }
        if (!oracle.matches(addr, k, res.data))
            report.wrong(std::string(is_write ? "write" : "read") +
                         " of block " + std::to_string(addr) +
                         " returned bytes other than write #" +
                         std::to_string(k));
    }
    t.roundS.push_back(secondsSince(t0));
    ++t.rounds;
    t.requests += kRound;
}

/** First write of every working-set block, in address order. */
void
setupWrites(Oracle& oracle, const EngineHandle& eng, Report& report)
{
    AccessRequest req;
    AccessResult res;
    std::vector<u8> wbuf(oracle.blockBytes());
    for (Addr a = 0; a < oracle.blocks(); ++a) {
        const u32 k = oracle.recordWrite(a);
        oracle.payload(a, k, wbuf.data());
        req = {a, true, &wbuf, false};
        eng.submit(req, res);
        ++report.attempted;
        if (!oracle.matches(a, k, res.data))
            report.wrong("set-up write of block " + std::to_string(a) +
                         " returned other bytes");
    }
}

/** Read every working-set block back against the reference map. */
void
readBack(Oracle& oracle, const EngineHandle& eng, Report& report,
         const char* when)
{
    AccessRequest req;
    AccessResult res;
    for (Addr a = 0; a < oracle.blocks(); ++a) {
        req = {a, false, nullptr, false};
        eng.submit(req, res);
        ++report.attempted;
        if (!oracle.matches(a, oracle.lastWrite(a), res.data))
            report.wrong(std::string("read-back ") + when + " of block " +
                         std::to_string(a) + " is not write #" +
                         std::to_string(oracle.lastWrite(a)));
    }
}

EngineHandle
handleFor(OramSystem& sys)
{
    auto& fe = dynamic_cast<froram::UnifiedFrontend&>(sys.frontend());
    return {[&sys](const AccessRequest& q, AccessResult& r) {
                sys.submit(&q, &r, 1);
            },
            [&fe] { return fe.backend().stash().occupancy(); }};
}

/** Properties every measured pass must hold. */
void
checkProperties(const EngineSpec& spec, const StreamTotals& t,
                u32 stash_capacity, Report& report)
{
    if (t.maxStash > stash_capacity)
        report.wrong("stash held " + std::to_string(t.maxStash) +
                     " blocks after an access, over its capacity of " +
                     std::to_string(stash_capacity));
    if (spec.bucket == BucketSchemeKind::Ring &&
        t.notOneBackendAccess != 0)
        report.wrong(std::to_string(t.notOneBackendAccess) +
                     " PLB-resident accesses needed other than one "
                     "backend access");
}

struct Recovery {
    double checkpointS = 0;
    double recoverS = 0;
    double restoreS = 0; ///< restore() alone
    double resealS = 0;  ///< checkpoint(Full) of the restored system
    u64 blobBytes = 0;
};

/**
 * checkpoint(Full), then restore into a freshly constructed system
 * (the old one is destroyed first) and read everything back.
 */
std::unique_ptr<OramSystem>
checkpointAndRecover(std::unique_ptr<OramSystem> sys, const EngineSpec& spec,
                     Oracle& oracle, bool reseal, Report& report,
                     Recovery& rec)
{
    std::vector<double> ck, rc, rs;
    std::vector<u8> blob;
    for (int i = 0; i < kRecoveryRepeats; ++i) {
        blob = std::vector<u8>(); // one blob alive at a time
        const auto t = Clock::now();
        blob = sys->checkpoint(CheckpointScope::Full);
        ck.push_back(secondsSince(t));
    }
    rec.checkpointS = median(ck);
    rec.blobBytes = blob.size();
    const OramSystemConfig cfg = sys->config();
    for (int i = 0; i < kRecoveryRepeats; ++i) {
        sys.reset();
        const auto t = Clock::now();
        sys = std::make_unique<OramSystem>(spec.scheme, cfg);
        const auto r = Clock::now();
        sys->restore(blob);
        rs.push_back(secondsSince(r));
        rc.push_back(secondsSince(t));
    }
    rec.restoreS = median(rs);
    rec.recoverS = median(rc);
    blob = std::vector<u8>();
    if (reseal) {
        const auto t = Clock::now();
        blob = sys->checkpoint(CheckpointScope::Full);
        rec.resealS = secondsSince(t);
        blob = std::vector<u8>();
    }
    readBack(oracle, handleFor(*sys), report, "after restore");
    return sys;
}

/** Journal replay through submit(), as open() drives it. */
double
replayJournalInto(OramSystem& sys, const std::string& dir, u64 range,
                  u64 block_bytes, Report& report)
{
    std::filesystem::create_directories(dir);
    froram::JournalConfig jc;
    jc.enabled = true;
    std::vector<u8> payload(block_bytes, 0x6b);
    froram::Xoshiro256 rng(0x7e91);
    constexpr u64 kRecords = 16384;
    {
        froram::RequestJournal j(dir, 0, jc, froram::RetryPolicy{},
                                 nullptr, /*reset=*/true);
        for (u64 i = 0; i < kRecords; ++i) {
            const bool w = i % kWriteEvery == 0;
            j.append(rng.below(range), w, w ? payload.data() : nullptr,
                     w ? payload.size() : 0);
        }
        j.sync();
    }
    froram::RequestJournal j(dir, 0, jc, froram::RetryPolicy{}, nullptr,
                             /*reset=*/false);
    AccessResult scratch;
    u64 replayed = 0;
    const auto t = Clock::now();
    j.replay(0, j.lastAppended(), [&](const froram::JournalRecord& rec) {
        AccessRequest q;
        q.addr = rec.addr;
        q.isWrite = rec.isWrite;
        q.writeData =
            rec.isWrite && !rec.payload.empty() ? &rec.payload : nullptr;
        sys.submit(&q, &scratch, 1);
        ++replayed;
    });
    const double secs = secondsSince(t);
    if (replayed != kRecords)
        report.wrong("journal replay returned " + std::to_string(replayed) +
                     " of " + std::to_string(kRecords) + " records");
    return static_cast<double>(replayed) / secs;
}

/** Untraced run: the end-to-end metrics. */
int
runUntraced(const Options& opt, const EngineSpec& spec, Report& report)
{
    const OramSystemConfig cfg = systemConfig(spec);
    auto sys = std::make_unique<OramSystem>(spec.scheme, cfg);
    Oracle oracle(opt.seed, spec.workingBlocks, cfg.blockBytes);
    setupWrites(oracle, handleFor(*sys), report);
    const double setup_s = secondsSince(opt.start);

    Generator gen(opt.seed, spec.workingBlocks, kWriteEvery);
    const EngineHandle eng = handleFor(*sys);
    StreamTotals warm;
    runRound(gen, oracle, eng, nullptr, Fault::None, report, warm);
    Samples lat;
    StreamTotals t;
    const auto t0 = Clock::now();
    while (t.rounds < kMinRounds || secondsSince(t0) < opt.seconds)
        runRound(gen, oracle, eng, &lat, opt.fault, report, t);
    checkProperties(spec, t, cfg.stashCapacity, report);

    Recovery rec;
    sys = checkpointAndRecover(std::move(sys), spec, oracle, false, report,
                               rec);
    report.add("setup_s", setup_s, "s");
    report.add("acc_per_s", static_cast<double>(kRound) / median(t.roundS),
               "1/s");
    // Each round holds 4,096 samples: 40 beyond its p99.
    report.add("latency_p50_us", lat.slicedPercentile(50, kRound), "us");
    report.add("latency_p99_us", lat.slicedPercentile(99, kRound), "us");
    report.note("latency samples (one per request): " +
                std::to_string(lat.size()));
    report.add("bytes_per_acc",
               static_cast<double>(t.prefixBytes) /
                   static_cast<double>(kMinRounds * kRound),
               "B");
    report.add("checkpoint_s", rec.checkpointS, "s");
    report.add("recover_s", rec.recoverS, "s");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
    return 0;
}

/**
 * Traced run: the per-layer breakdown. The untraced system and the
 * traced engine serve the same request stream, alternating round by
 * round so both see the same machine; then the untraced system takes
 * the checkpoint-layer measurements.
 */
int
runTraced(const Options& opt, const EngineSpec& spec, Report& report)
{
    const OramSystemConfig cfg = systemConfig(spec);
    auto sys = std::make_unique<OramSystem>(spec.scheme, cfg);
    auto engine = std::make_unique<TracedEngine>(cfg, spec.scheme);
    const EngineHandle plain = handleFor(*sys);
    const EngineHandle traced{
        [&engine](const AccessRequest& q, AccessResult& r) {
            engine->submit(&q, &r, 1);
        },
        [&engine] { return engine->stashOccupancy(); }};

    Oracle ref_oracle(opt.seed, spec.workingBlocks, cfg.blockBytes);
    Oracle oracle(opt.seed, spec.workingBlocks, cfg.blockBytes);
    setupWrites(ref_oracle, plain, report);
    setupWrites(oracle, traced, report);
    Generator ref_gen(opt.seed, spec.workingBlocks, kWriteEvery);
    Generator gen(opt.seed, spec.workingBlocks, kWriteEvery);
    StreamTotals warm;
    runRound(ref_gen, ref_oracle, plain, nullptr, Fault::None, report, warm);
    runRound(gen, oracle, traced, nullptr, Fault::None, report, warm);

    engine->mark();
    StreamTotals ref, t;
    const auto t0 = Clock::now();
    while (ref.rounds < kMinRounds || secondsSince(t0) < opt.seconds) {
        runRound(ref_gen, ref_oracle, plain, nullptr, Fault::None, report,
                 ref);
        runRound(gen, oracle, traced, nullptr, opt.fault, report, t);
    }
    checkProperties(spec, ref, cfg.stashCapacity, report);
    checkProperties(spec, t, cfg.stashCapacity, report);
    if (t.readHash != ref.readHash || t.reads != ref.reads)
        report.wrong("traced and untraced passes read different values");
    if (t.prefixBytes != ref.prefixBytes || t.bytes != ref.bytes)
        report.wrong("traced and untraced passes moved different bytes");
    engine->reportLayers(report, static_cast<double>(t.requests),
                         t.maxStash);
    if (!engine->dumpSpans(opt.workDir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".csv"))
        std::fprintf(stderr, "perfbench: could not write the span file\n");
    engine.reset();

    Recovery rec;
    sys = checkpointAndRecover(std::move(sys), spec, ref_oracle, true,
                               report, rec);
    const std::string scratch = opt.workDir + "/" + opt.workload + "-" +
                                std::to_string(opt.seed);
    const double replay_rps =
        replayJournalInto(*sys, scratch + "/replay", spec.workingBlocks,
                          cfg.blockBytes, report);
    sys.reset();

    // No shard layer in a single-engine workload.
    report.add("shard.submit_us_per_batch", 0, "us");
    report.add("shard.engine_us_per_acc", 0, "us");
    report.add("shard.overhead_us_per_acc", 0, "us");
    const JournalProbe jp =
        probeJournal(scratch + "/journal-probe", cfg.blockBytes, kWriteEvery,
                     froram::JournalConfig{}.fsyncEveryRecords, 0.5);
    removeTree(scratch);
    report.add("journal.append_us_per_rec", jp.appendUsPerRecord, "us");
    report.add("journal.sync_us_per_barrier", jp.syncUsPerBarrier, "us");
    report.add("journal.replay_rec_per_s", replay_rps, "1/s");
    report.add("checkpoint.seal_s", rec.checkpointS, "s");
    report.add("checkpoint.restore_s", rec.restoreS, "s");
    report.add("checkpoint.reseal_s", rec.resealS, "s");
    report.add("checkpoint.blob_bytes_per_data_byte",
               static_cast<double>(rec.blobBytes) /
                   static_cast<double>(cfg.capacityBytes),
               "ratio");
    const double untraced_aps = kRound / median(ref.roundS);
    const double traced_aps = kRound / median(t.roundS);
    report.add("trace.untraced_acc_per_s", untraced_aps, "1/s");
    report.add("trace.traced_acc_per_s", traced_aps, "1/s");
    report.add("trace.overhead_pct", (untraced_aps / traced_aps - 1) * 100,
               "%");
    return 0;
}

} // namespace

int
runEngine(const Options& opt, Report& report)
{
    std::filesystem::create_directories(opt.workDir);
    const EngineSpec spec = specFor(opt.workload);
    return opt.trace ? runTraced(opt, spec, report)
                     : runUntraced(opt, spec, report);
}

} // namespace perfbench
