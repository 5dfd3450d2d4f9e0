#include "loadgen.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/rng.hh"

namespace servebench {

const std::vector<WorkloadSpec> &
workloads()
{
    using m2x::PackedCodec;
    static const std::vector<WorkloadSpec> table = {
        {.name = "prefill_long",
         .why = "open-loop long prompts in paced pairs at a low rate: "
                "prefill dominates (large-M encode and GEMM, O(T^2) "
                "chunk attend); a pair's second prompt stalls the first",
         .arrival = Arrival::PacedPairs,
         .ratePerS = 3.2,
         .passSeconds = 13.5,
         .promptLo = 256, .promptHi = 512,
         .outLo = 4, .outHi = 16,
         .arenaPages = 8192,
         .codec = PackedCodec::ElemEm,
         .ttftLimitS = 0.750, .gapLimitS = 0.500},
        {.name = "arena_churn",
         .why = "offline bursts into an arena of ~1/4 of peak demand: "
                "admission stalls, youngest-victim preemption with "
                "re-prefill, page churn, tiny batches",
         .arrival = Arrival::Burst,
         .burstRequests = 16,
         .passSeconds = 6.5,
         .promptLo = 16, .promptHi = 192,
         .outLo = 16, .outHi = 48,
         .arenaPages = 216,
         .codec = PackedCodec::ElemEm,
         .ttftLimitS = 3.000, .gapLimitS = 0.500},
        {.name = "sg_em_batch",
         .why = "offline bursts of short requests on the sg_em codec: "
                "encode, GEMM and KV run through the generic "
                "codec_traits kernels",
         .arrival = Arrival::Burst,
         .burstRequests = 25,
         .passSeconds = 17.0,
         .promptLo = 8, .promptHi = 32,
         .outLo = 10, .outHi = 20,
         .arenaPages = 8192,
         .codec = PackedCodec::SgEm,
         .ttftLimitS = 10.000, .gapLimitS = 6.000},
    };
    return table;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

size_t
RunInputs::requestCount() const
{
    size_t n = 0;
    for (const auto &b : bursts)
        n += b.size();
    return n;
}

namespace {

/**
 * @p n lengths evenly covering [lo, hi] (the midpoints of n equal
 * strata), in seeded random order. Every pass or burst of a workload
 * then holds the same mix of lengths, so the seed moves the order,
 * the tokens and the arrival times, but not the amount of work.
 */
std::vector<size_t>
stratified(size_t n, size_t lo, size_t hi, m2x::Rng *rng)
{
    std::vector<size_t> v(n);
    double width = static_cast<double>(hi - lo + 1) /
                   static_cast<double>(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = lo + static_cast<size_t>(
                        (static_cast<double>(i) + 0.5) * width);
    if (rng)
        for (size_t i = n; i > 1; --i)
            std::swap(v[i - 1], v[rng->uniformInt(i)]);
    return v;
}

/** Inter-token gaps of @p n requests with stratified outputs. */
size_t
gapsFor(const WorkloadSpec &w, size_t n)
{
    size_t gaps = 0;
    for (size_t out : stratified(n, w.outLo, w.outHi, nullptr))
        gaps += out - 1;
    return gaps;
}

std::vector<RequestInput>
makeRequests(const WorkloadSpec &w, size_t n, m2x::Rng &rng,
             unsigned vocab)
{
    std::vector<size_t> prompts =
        stratified(n, w.promptLo, w.promptHi, &rng);
    std::vector<size_t> outs = stratified(n, w.outLo, w.outHi, &rng);
    std::vector<RequestInput> reqs(n);
    for (size_t i = 0; i < n; ++i) {
        reqs[i].prompt.resize(prompts[i]);
        for (int &t : reqs[i].prompt)
            t = static_cast<int>(rng.uniformInt(vocab));
        reqs[i].maxNew = outs[i];
    }
    return reqs;
}

} // anonymous namespace

size_t
passCount(const WorkloadSpec &w, unsigned seconds)
{
    return std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(seconds) /
                               w.passSeconds));
}

std::vector<RunInputs>
generateInputs(const WorkloadSpec &w, uint64_t seed, unsigned vocab,
               size_t passes)
{
    // Mix the workload name into the seed so two workloads never
    // share a stream under one --seed.
    uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
    for (const char *c = w.name; *c; ++c)
        h = (h ^ static_cast<uint8_t>(*c)) * 0x100000001b3ull;
    m2x::Rng rng(h);
    std::vector<RunInputs> out(passes);
    for (RunInputs &in : out) {
        if (w.arrival == Arrival::Burst) {
            size_t requests = 0, gaps = 0;
            while (requests < minRequestsPerPass ||
                   gaps < minGapsPerPass) {
                in.bursts.push_back(
                    makeRequests(w, w.burstRequests, rng, vocab));
                requests += w.burstRequests;
                gaps += gapsFor(w, w.burstRequests);
            }
            continue;
        }
        size_t n = minRequestsPerPass;
        while (gapsFor(w, n) < minGapsPerPass)
            ++n;
        auto &b = in.bursts.emplace_back(makeRequests(w, n, rng, vocab));
        for (size_t i = 0; i < n; ++i)
            b[i].dueS = static_cast<double>(i / 2 * 2) / w.ratePerS;
    }
    return out;
}

uint64_t
inputDigest(const std::vector<RunInputs> &passes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ull;
    };
    for (const RunInputs &in : passes) {
        uint64_t bursts = in.bursts.size();
        mix(&bursts, sizeof bursts);
        for (const auto &burst : in.bursts) {
            uint64_t n = burst.size();
            mix(&n, sizeof n);
            for (const RequestInput &r : burst) {
                uint64_t len = r.prompt.size(), out = r.maxNew;
                mix(&r.dueS, sizeof r.dueS);
                mix(&len, sizeof len);
                mix(&out, sizeof out);
                mix(r.prompt.data(), r.prompt.size() * sizeof(int));
            }
        }
    }
    return h;
}

std::string
digestHex(uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

} // namespace servebench
