/**
 * @file
 * TracedEngine: the traced run's engine, built from public parts with
 * the timing decorators, and its per-layer report.
 */
#include "trace.hpp"

namespace perfbench {

froram::UnifiedFrontendConfig
frontendConfig(const froram::OramSystemConfig& c, froram::SchemeId scheme)
{
    froram::UnifiedFrontendConfig uc;
    uc.numBlocks = c.capacityBytes / c.blockBytes;
    uc.blockBytes = c.blockBytes;
    uc.z = c.z;
    uc.format = froram::PosMapFormat::Kind::Compressed;
    uc.integrity = scheme == froram::SchemeId::PlbIntegrityCompressed;
    uc.plb.capacityBytes = c.plbBytes;
    uc.plb.ways = c.plbWays;
    uc.plb.blockBytes = c.blockBytes;
    uc.onChipTargetBytes = c.onChipTargetBytes;
    uc.storage = c.storage;
    uc.seedScheme = c.seedScheme;
    uc.latency = c.latency;
    uc.rngSeed = c.seed;
    uc.stashCapacity = c.stashCapacity;
    uc.bucketScheme = c.bucketScheme;
    uc.ringS = c.ringS;
    uc.ringA = c.ringA;
    return uc;
}

namespace {

/** The storage OramSystem builds for `c` (same default file size). */
std::unique_ptr<froram::StorageBackend>
makeStore(const froram::OramSystemConfig& c)
{
    froram::StorageBackendConfig sc;
    sc.kind = c.backend;
    sc.dramChannels = c.dramChannels;
    sc.path = c.backendPath;
    u64 mult = 8;
    if (c.bucketScheme == froram::BucketSchemeKind::Ring) {
        const u32 s = c.ringS != 0 ? c.ringS : c.z + 2;
        mult = froram::divCeil(u64{8} * (c.z + s), c.z);
    }
    sc.fileBytes = c.backendFileBytes != 0
                       ? c.backendFileBytes
                       : mult * c.capacityBytes + (u64{16} << 20);
    sc.reset = c.backendReset;
    return froram::makeStorageBackend(sc);
}

} // namespace

TracedEngine::TracedEngine(const froram::OramSystemConfig& cfg,
                           froram::SchemeId scheme)
    : bucket_(cfg.bucketScheme)
{
    store_ = std::make_unique<TimingBackend>(makeStore(cfg), tracer_);
    froram::Xoshiro256 kdf(cfg.seed ^ 0xc1f0e4ULL); // OramSystem's pad key
    u8 key[16];
    for (u8& b : key)
        b = static_cast<u8>(kdf.next());
    aes_ = std::make_unique<froram::AesCtrCipher>(key);
    cipher_ = std::make_unique<TimingCipher>(*aes_, tracer_);
    fe_ = std::make_unique<froram::UnifiedFrontend>(
        frontendConfig(cfg, scheme), cipher_.get(), store_.get());
    const froram::OramParams& p = fe_->backend().params();
    store_->expectPaths(p.bucketPhysBytes(), p.levels + 1);
}

void
TracedEngine::submit(const froram::AccessRequest* reqs,
                     froram::AccessResult* results, size_t n)
{
    tracer_.setRequest(++requestId_);
    Tracer::Scope s(tracer_, kSubmit);
    fe_->submit(reqs, results, n);
}

void
TracedEngine::mark()
{
    fe0_ = fe_->stats();
    be0_ = fe_->backend().stats();
    plb0_ = fe_->plb().stats();
    tracer_.reset();
}

void
TracedEngine::reportLayers(Report& report, double acc, u64 stash_max)
{
    if (store_->badGathers() != 0)
        report.wrong(std::to_string(store_->badGathers()) + " of " +
                     std::to_string(store_->gathers()) +
                     " path gathers did not cover exactly L+1 buckets");
    const auto d = [](const froram::StatSet& now,
                      const froram::StatSet& then, const char* key) {
        return static_cast<double>(now.get(key) - then.get(key));
    };
    const froram::StatSet& fe = fe_->stats();
    const froram::StatSet& be = fe_->backend().stats();
    const froram::StatSet& plb = fe_->plb().stats();
    const froram::OramParams& p = fe_->backend().params();
    const double bacc = d(be, be0_, "accesses");
    const double hits = d(plb, plb0_, "hits");
    const double lookups = hits + d(plb, plb0_, "misses");
    const Tracer::Sum submit = tracer_.sum(kSubmit, kSubmit);
    const Tracer::Sum mem = tracer_.sum(kGatherView, kSync);
    const Tracer::Sum crypto = tracer_.sum(kCryptSpans, kCryptPad);
    const bool ring = bucket_ == froram::BucketSchemeKind::Ring;

    report.add("core.backend_acc_per_acc",
               d(fe, fe0_, "backendAccesses") / acc, "count");
    report.add("core.posmap_bytes_per_acc", d(fe, fe0_, "posmapBytes") / acc,
               "B");
    report.add("core.plb_hit_rate", lookups == 0 ? 0 : hits / lookups,
               "ratio");
    report.add("core.plb_lookups_per_acc", lookups / acc, "count");
    report.add("integrity.macs_per_acc",
               (d(fe, fe0_, "macChecks") + d(fe, fe0_, "macUpdates")) / acc,
               "count");
    report.add("integrity.us_per_mac", measureMacUs(0.3), "us");
    // Engine time not inside a cipher or storage call: PosMap walk,
    // stash, eviction and bucket codec.
    report.add("oram.self_us_per_acc",
               (submit.ns - mem.ns - crypto.ns) / 1e3 /
                   acc,
               "us");
    // Online read cost in blocks: Path reads whole paths ((L+1)*Z),
    // Ring one block per bucket.
    report.add("oram.online_blocks_per_backend_acc",
               ring ? d(be, be0_, "onlineBlocks") / bacc
                    : d(be, be0_, "pathReads") * (p.levels + 1) * p.z /
                          bacc,
               "count");
    report.add("oram.evict_paths_per_acc",
               d(be, be0_, ring ? "evictPaths" : "pathWrites") / acc,
               "count");
    report.add("oram.stash_max_blocks", static_cast<double>(stash_max),
               "count");
    report.add("crypto.us_per_acc", crypto.ns / 1e3 / acc,
               "us");
    report.add("crypto.bytes_per_acc", static_cast<double>(crypto.bytes) / acc,
               "B");
    report.add("crypto.calls_per_backend_acc",
               static_cast<double>(crypto.count) / bacc, "count");
    report.add("mem.us_per_acc", mem.ns / 1e3 / acc,
               "us");
    report.add("mem.bytes_per_acc", static_cast<double>(mem.bytes) / acc,
               "B");
    report.add("mem.prefetch_calls_per_acc",
               static_cast<double>(tracer_.sum(kPrefetch, kPrefetch).count) / acc,
               "count");
}

} // namespace perfbench
