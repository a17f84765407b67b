/**
 * @file
 * Tracing for the per-layer breakdown: an in-memory span recorder and
 * timing decorators for the two seams an engine is built from, the
 * StorageBackend (layer `mem`) and the StreamCipher (layer `crypto`).
 *
 * The decorators forward every call unchanged, view() and gatherView()
 * included, so a traced engine takes the same zero-copy path as an
 * untraced one. Spans are recorded from the benchmark's own code only;
 * nothing inside the library is instrumented.
 *
 * Single-threaded: one Tracer serves one engine driven from one thread.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/unified_frontend.hpp"
#include "crypto/stream_cipher.hpp"
#include "mem/storage_backend.hpp"

namespace perfbench {

/** Span names; the layer is the prefix before the dot. */
enum SpanName : u32 {
    kSubmit,      ///< oram: one engine submit()
    kGatherView,  ///< mem
    kView,        ///< mem
    kRead,        ///< mem
    kWrite,       ///< mem
    kPrefetch,    ///< mem
    kSync,        ///< mem
    kCryptSpans,  ///< crypto: one multi-span kernel call
    kCryptBulk,   ///< crypto: one contiguous keystream XOR
    kCryptPad,    ///< crypto: one 16-byte pad
    kNumSpanNames
};

const char* spanName(u32 name);

/**
 * Records spans (name, request, parent, start, end). Totals per name
 * cover every span; the individual spans are kept for the first
 * `keep` only, so memory stays bounded on long runs. They are written
 * out by dump() when the run ends.
 *
 * Calls too short and frequent to bracket each one (a 16-byte pad, a
 * one-bucket view) are timed one in kSampleEvery; their time is the
 * sampled time scaled by calls over timed calls.
 */
class Tracer {
  public:
    explicit Tracer(size_t keep = 200000) : keep_(keep)
    {
        spans_.reserve(keep);
    }

    static constexpr u64 kSampleEvery = 8;

    struct Total {
        u64 count = 0; ///< calls
        u64 timed = 0; ///< calls bracketed by a span
        u64 ns = 0;    ///< time of the timed calls
        u64 bytes = 0; ///< bytes of all calls
        /** Estimated time of all calls. */
        double estNs() const
        {
            return timed == 0 ? 0.0
                              : static_cast<double>(ns) *
                                    static_cast<double>(count) /
                                    static_cast<double>(timed);
        }
    };

    /** Count a call that is not bracketed (see kSampleEvery). */
    void
    untimed(u32 name, u64 bytes)
    {
        ++totals_[name].count;
        totals_[name].bytes += bytes;
    }

    /** True when the next call of `name` should be bracketed. */
    bool sampleNext(u32 name) const
    {
        return totals_[name].count % kSampleEvery == 0;
    }

    /** RAII span around one call. */
    class Scope {
      public:
        Scope(Tracer& t, u32 name, u64 bytes = 0)
            : t_(t), name_(name), parent_(t.open_), start_(now())
        {
            t_.totals_[name].bytes += bytes;
            t_.open_ = name;
        }
        ~Scope()
        {
            const u64 end = now();
            Total& tot = t_.totals_[name_];
            ++tot.count;
            ++tot.timed;
            tot.ns += end - start_;
            if (t_.spans_.size() < t_.keep_)
                t_.spans_.push_back(
                    {name_, parent_, t_.request_, start_, end});
            t_.open_ = parent_;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& t_;
        u32 name_;
        u32 parent_;
        u64 start_;
    };

    /** Request id stamped on the spans that follow. */
    void setRequest(u64 id) { request_ = id; }

    /** Calls, bytes and estimated ns of the names in [first, last]. */
    struct Sum {
        u64 count = 0;
        u64 bytes = 0;
        double ns = 0;
    };
    Sum sum(u32 first, u32 last) const;
    /** Drop the totals and the kept spans (start of a measured window). */
    void reset();

    /** Write the kept spans as CSV; returns false on I/O failure. */
    bool dump(const std::string& path) const;

    static u64
    now()
    {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
    }

  private:
    struct Span {
        u32 name;
        u32 parent; ///< enclosing span name, kNumSpanNames at the root
        u64 request;
        u64 start;
        u64 end;
    };

    size_t keep_;
    std::vector<Span> spans_;
    Total totals_[kNumSpanNames];
    u32 open_ = kNumSpanNames;
    u64 request_ = 0;
};

/**
 * Timing decorator over a StorageBackend. Given the tree geometry it
 * also checks that every gatherView resolves exactly one path: L+1
 * bucket images. A gather run starts at a layout subtree's root and
 * ends just past the deepest path bucket in it (mem/tree_layout.hpp),
 * so a run of n buckets holds floor(log2(n)) + 1 path levels.
 */
class TimingBackend final : public froram::StorageBackend {
  public:
    TimingBackend(std::unique_ptr<froram::StorageBackend> inner,
                  Tracer& tracer)
        : inner_(std::move(inner)), t_(tracer)
    {
    }

    /** Check gathers against buckets of `bucket_bytes`, `levels` per
     *  path; gather bytes then count path bucket images only. */
    void
    expectPaths(u64 bucket_bytes, u32 levels)
    {
        bucketBytes_ = bucket_bytes;
        pathLevels_ = levels;
    }
    u64 gathers() const { return gathers_; }
    u64 badGathers() const { return badGathers_; }

    froram::StorageBackendKind kind() const override
    {
        return inner_->kind();
    }
    void
    read(u64 addr, u8* dst, u64 len) override
    {
        Tracer::Scope s(t_, kRead, len);
        inner_->read(addr, dst, len);
    }
    void
    write(u64 addr, const u8* src, u64 len) override
    {
        Tracer::Scope s(t_, kWrite, len);
        inner_->write(addr, src, len);
    }
    u8*
    view(u64 addr, u64 len) override
    {
        if (!t_.sampleNext(kView)) {
            t_.untimed(kView, len);
            return inner_->view(addr, len);
        }
        Tracer::Scope s(t_, kView, len);
        return inner_->view(addr, len);
    }
    u32
    gatherView(const froram::ByteSpan* spans, u32 n, u8** views) override
    {
        u64 bytes = 0;
        u32 levels = 0;
        bool shaped = true;
        for (u32 i = 0; i < n; ++i) {
            bytes += spans[i].len;
            if (bucketBytes_ == 0)
                continue;
            const u64 buckets = spans[i].len / bucketBytes_;
            shaped = shaped && buckets != 0 &&
                     spans[i].len % bucketBytes_ == 0;
            if (buckets != 0)
                levels += froram::log2Floor(buckets) + 1;
        }
        ++gathers_;
        if (bucketBytes_ != 0) {
            bytes = u64{levels} * bucketBytes_;
            if (!shaped || levels != pathLevels_)
                ++badGathers_;
        }
        Tracer::Scope s(t_, kGatherView, bytes);
        return inner_->gatherView(spans, n, views);
    }
    void
    prefetch(u64 addr, u64 len) override
    {
        Tracer::Scope s(t_, kPrefetch, len);
        inner_->prefetch(addr, len);
    }
    bool prefetchable() const override { return inner_->prefetchable(); }
    void
    sync() override
    {
        Tracer::Scope s(t_, kSync);
        inner_->sync();
    }
    bool persistent() const override { return inner_->persistent(); }
    u64 bytesTouched() const override { return inner_->bytesTouched(); }
    u64
    transientFaultsRetried() const override
    {
        return inner_->transientFaultsRetried();
    }
    bool timed() const override { return inner_->timed(); }
    u64
    accessBatch(const std::vector<froram::DramRequest>& requests) override
    {
        return inner_->accessBatch(requests);
    }
    u64
    streamBatch(const froram::ByteSpan* spans, u32 n,
                bool is_write) override
    {
        return inner_->streamBatch(spans, n, is_write);
    }
    u64 burstBytes() const override { return inner_->burstBytes(); }
    u64 layoutUnitBytes() const override
    {
        return inner_->layoutUnitBytes();
    }
    froram::DramModel* dramModel() override { return inner_->dramModel(); }
    u64 allocRegion(u64 bytes) override { return inner_->allocRegion(bytes); }
    u64 allocatedBytes() const override { return inner_->allocatedBytes(); }

  private:
    std::unique_ptr<froram::StorageBackend> inner_;
    Tracer& t_;
    u64 bucketBytes_ = 0;
    u32 pathLevels_ = 0;
    u64 gathers_ = 0;
    u64 badGathers_ = 0;
};

/** Timing decorator over a StreamCipher (bytes = keystream bytes). */
class TimingCipher final : public froram::StreamCipher {
  public:
    TimingCipher(const froram::StreamCipher& inner, Tracer& tracer)
        : inner_(inner), t_(tracer)
    {
    }

    void
    pad(u64 seed_hi, u64 seed_lo, u32 chunk, u8* out16) const override
    {
        if (!t_.sampleNext(kCryptPad)) {
            t_.untimed(kCryptPad, 16);
            inner_.pad(seed_hi, seed_lo, chunk, out16);
            return;
        }
        Tracer::Scope s(t_, kCryptPad, 16);
        inner_.pad(seed_hi, seed_lo, chunk, out16);
    }
    void
    xorCryptBulkTo(u64 seed_hi, u64 seed_lo, const u8* src, u8* dst,
                   size_t len) const override
    {
        Tracer::Scope s(t_, kCryptBulk, len);
        inner_.xorCryptBulkTo(seed_hi, seed_lo, src, dst, len);
    }
    void
    xorCryptSpans(const froram::CryptSpan* spans, size_t n) const override
    {
        u64 bytes = 0;
        for (size_t i = 0; i < n; ++i)
            bytes += spans[i].len;
        Tracer::Scope s(t_, kCryptSpans, bytes);
        inner_.xorCryptSpans(spans, n);
    }

  private:
    const froram::StreamCipher& inner_;
    Tracer& t_;
};

/** The UnifiedFrontend configuration OramSystem builds for a PC_X* or
 *  PIC_X* system of configuration `c`. */
froram::UnifiedFrontendConfig frontendConfig(const froram::OramSystemConfig& c,
                                             froram::SchemeId scheme);

/**
 * A PC/PIC engine assembled from its public parts as OramSystem
 * assembles it (UnifiedFrontend over makeStorageBackend, AES-CTR pads,
 * the same keys and seeds), with the timing decorators in between.
 */
class TracedEngine {
  public:
    TracedEngine(const froram::OramSystemConfig& cfg,
                 froram::SchemeId scheme);

    TracedEngine(const TracedEngine&) = delete;
    TracedEngine& operator=(const TracedEngine&) = delete;

    /** `n` requests through one submit(), inside an oram.submit span. */
    void submit(const froram::AccessRequest* reqs,
                froram::AccessResult* results, size_t n);

    u64 stashOccupancy() const
    {
        return fe_->backend().stash().occupancy();
    }

    /** Open the measured window: snapshot counters, zero span totals. */
    void mark();

    /** Report the core/integrity/oram/crypto/mem metrics of the
     *  `requests` requests since mark(); the stash peak is the
     *  caller's. Wrong when a gather did not cover exactly one path. */
    void reportLayers(Report& report, double requests, u64 stash_max);

    bool dumpSpans(const std::string& path) const
    {
        return tracer_.dump(path);
    }

  private:
    Tracer tracer_;
    std::unique_ptr<TimingBackend> store_;
    std::unique_ptr<froram::AesCtrCipher> aes_;
    std::unique_ptr<TimingCipher> cipher_;
    std::unique_ptr<froram::UnifiedFrontend> fe_;
    froram::BucketSchemeKind bucket_;
    u64 requestId_ = 0;
    froram::StatSet fe0_, be0_, plb0_;
};

/** Microseconds per MAC of one 64-byte block (standalone Mac). */
double measureMacUs(double seconds);

/** Standalone RequestJournal probe results. */
struct JournalProbe {
    double appendUsPerRecord = 0;
    double syncUsPerBarrier = 0;
    u64 records = 0;
};

/**
 * Drive a standalone RequestJournal under `dir` with the given record
 * mix (one write with a payload every `write_every` records) and group
 * commit every `fsync_every` records, for about `seconds`.
 */
JournalProbe probeJournal(const std::string& dir, u64 block_bytes,
                          u32 write_every, u64 fsync_every,
                          double seconds);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
