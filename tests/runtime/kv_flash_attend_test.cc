/**
 * @file
 * Flash-style blocked online-softmax attention: the paged attend
 * must reproduce the full-forward oracle at every page-boundary
 * context length on every tier (fp32 bit-exact, packed within the
 * model tolerance), grouped-query and sliding-window variants must
 * match the grouped/windowed oracle, per-lane attend scratch must
 * stay constant from 1k to 64k context, and the per-ISA page
 * kernels must agree with the scalar tier under GQA grouping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "runtime/decode_session.hh"
#include "runtime/kv_attend_kernels.hh"
#include "runtime/kv_cache.hh"
#include "runtime_test_util.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg;
    cfg.name = "test-flash";
    cfg.dModel = 64;
    cfg.nHeads = 2;
    cfg.nLayers = 2;
    cfg.dFf = 96;
    cfg.vocab = 64;
    cfg.seed = 7;
    return cfg;
}

std::vector<int>
randomTokens(size_t n, unsigned vocab, uint64_t seed)
{
    std::vector<int> toks(n);
    Rng rng(seed);
    for (auto &t : toks)
        t = static_cast<int>(rng.uniformInt(vocab));
    return toks;
}

/** A reference model with functionally §6.4-quantized K/V. */
model::TinyTransformer
kvQuantizedReference(const model::ModelConfig &cfg, SimdIsa isa)
{
    model::TinyTransformer ref(cfg);
    ref.rebuild(packedLinearFactory({}, nullptr, nullptr, isa));
    ref.setKvQuantizers(
        [] {
            return std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer());
        },
        nullptr);
    return ref;
}

/** Prefill half, decode the rest; returns the full logits. */
Matrix
runPrefillDecode(DecodeSession &s, const std::vector<int> &toks)
{
    size_t seq = s.addSequence();
    size_t prefill_len = std::max<size_t>(1, toks.size() / 2);
    std::span<const int> all(toks);
    Matrix chunk = s.prefill(seq, all.subspan(0, prefill_len));
    Matrix out(toks.size(), chunk.cols());
    for (size_t t = 0; t < prefill_len; ++t)
        for (size_t c = 0; c < chunk.cols(); ++c)
            out(t, c) = chunk(t, c);
    for (size_t t = prefill_len; t < toks.size(); ++t) {
        int tok = toks[t];
        Matrix step = s.decode({&tok, 1});
        for (size_t c = 0; c < step.cols(); ++c)
            out(t, c) = step(0, c);
    }
    return out;
}

/**
 * End-to-end parity of prefill + decode against the one-shot oracle
 * for @p cfg: fp32 cache bit-exact on every tier, packed cache
 * within the model tolerance against the KV-quantized reference.
 */
void
expectOracleParity(const model::ModelConfig &cfg, size_t tokens,
                   uint64_t seed)
{
    std::vector<int> toks = randomTokens(tokens, cfg.vocab, seed);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                     " tokens=" + std::to_string(tokens));
        {
            DecodeSession s(
                cfg, {.isa = isa, .kvMode = KvCacheMode::Fp32});
            Matrix got = runPrefillDecode(s, toks);
            test::expectMatricesBitExact(
                got, s.model().forwardLogits(toks));
        }
        {
            // Pinned to elem_em: the KV-quantized oracle below is
            // the paper codec, whatever M2X_FORMAT says (the other
            // codecs' attend parity lives in cross_format_parity_test).
            DecodeSession s(cfg, {.isa = isa,
                                  .kvMode = KvCacheMode::Packed,
                                  .codec = PackedCodec::ElemEm});
            Matrix got = runPrefillDecode(s, toks);
            model::TinyTransformer ref = kvQuantizedReference(cfg,
                                                              isa);
            test::expectMatricesClose(got, ref.forwardLogits(toks),
                                      1e-5);
        }
    }
}

TEST(FlashAttend, OracleParityAtPageBoundaryContexts)
{
    // The default page holds 16 rows: 1 / 15 / 16 / 17 tokens cover
    // a single partial page, an exactly-full page, and the first row
    // of a fresh page — the off-by-one surface of the page walk.
    model::ModelConfig cfg = tinyConfig();
    const size_t page_rows = DecodeConfig{}.pageRows;
    uint64_t seed = 40;
    for (size_t tokens :
         {size_t(1), page_rows - 1, page_rows, page_rows + 1})
        expectOracleParity(cfg, tokens, seed++);
}

TEST(FlashAttend, OracleParityNonMultipleOf32DModel)
{
    // d_model = 40 (headDim 20): padded packed tail groups plus a
    // head dim that is not a vector-width multiple on any tier.
    model::ModelConfig cfg = tinyConfig();
    cfg.dModel = 40;
    expectOracleParity(cfg, DecodeConfig{}.pageRows + 1, 50);
}

TEST(FlashAttend, GqaMatchesGroupedOracle)
{
    // n_kv_heads ∈ {1, nHeads/2, nHeads}: MQA, grouped, and classic
    // MHA — the oracle's causalAttend implements the same grouping.
    model::ModelConfig cfg = tinyConfig();
    cfg.nHeads = 4;
    uint64_t seed = 60;
    for (unsigned kv_heads : {1u, 2u, 4u}) {
        SCOPED_TRACE("kv_heads=" + std::to_string(kv_heads));
        cfg.nKvHeads = kv_heads;
        expectOracleParity(cfg, 21, seed++);
    }
}

TEST(FlashAttend, GqaWithEqualHeadsMatchesDefaultConfig)
{
    // nKvHeads == nHeads must be indistinguishable from the MHA
    // default (0): same weights drawn, same attention arithmetic.
    model::ModelConfig mha = tinyConfig();
    model::ModelConfig gqa = tinyConfig();
    gqa.nKvHeads = gqa.nHeads;
    std::vector<int> toks = randomTokens(9, mha.vocab, 70);
    model::TinyTransformer a(mha), b(gqa);
    test::expectMatricesBitExact(a.forwardLogits(toks),
                                 b.forwardLogits(toks));
}

TEST(FlashAttend, SlidingWindowMatchesTruncatedFullAttend)
{
    // A windowed attend over T cached rows must equal a full attend
    // over a cache holding only the last W rows — the window is pure
    // masking. W both page-aligned (16) and awkward (13).
    const size_t d = 64, tokens = 50;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 81, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 82, 4.0);
    Matrix q = test::randomMatrix(1, d, 83, 4.0);

    for (size_t window : {size_t(16), size_t(13)}) {
        for (SimdIsa isa : supportedSimdIsas()) {
            for (KvCacheMode mode :
                 {KvCacheMode::Fp32, KvCacheMode::Packed}) {
                SCOPED_TRACE(std::string(kvCacheModeName(mode)) +
                             " isa=" + simdIsaName(isa) +
                             " window=" + std::to_string(window));
                KvCache full(1, d, mode, {}, isa);
                full.append(0, k.data(), v.data(), tokens);
                Matrix got(1, d);
                full.attend(0, q.data(), 1, tokens - 1, heads,
                            got.data(), nullptr, heads, window);

                size_t first = tokens - window;
                KvCache trunc(1, d, mode, {}, isa);
                trunc.append(0, k.data() + first * d,
                             v.data() + first * d, window);
                Matrix want(1, d);
                trunc.attend(0, q.data(), 1, window - 1, heads,
                             want.data());
                if (mode == KvCacheMode::Fp32) {
                    // The 3-pass streams rows in order — page
                    // alignment is invisible, so masking == truncation
                    // bitwise.
                    test::expectMatricesBitExact(got, want);
                } else {
                    // Identical decoded rows, but the online-softmax
                    // page partition differs between the two caches.
                    test::expectMatricesClose(got, want, 1e-5);
                }
            }
        }
    }
}

TEST(FlashAttend, SlidingWindowModelMatchesOracle)
{
    // End-to-end: a model config with a sliding window, decoded
    // through the paged cache, against the windowed causal oracle.
    model::ModelConfig cfg = tinyConfig();
    cfg.slidingWindow = 8;
    expectOracleParity(cfg, 21, 90);
}

TEST(FlashAttend, ReleaseBeforeKeepsWindowedAttendExact)
{
    // Out-of-window pages can be returned to the arena without
    // touching the windowed attend: releaseBefore(row) tombstones
    // the freed slots, absolute row indexing survives.
    const size_t d = 64, tokens = 64, window = 16;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 91, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 92, 4.0);
    Matrix q = test::randomMatrix(1, d, 93, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache cache(1, d, mode);
        cache.append(0, k.data(), v.data(), tokens);
        Matrix before(1, d);
        cache.attend(0, q.data(), 1, tokens - 1, heads,
                     before.data(), nullptr, heads, window);

        size_t held = cache.pagesHeld();
        cache.releaseBefore(tokens - window);
        // 64 rows = 4 pages of 16; the first 48 rows (3 pages per
        // stream) are wholly out of every future window.
        EXPECT_EQ(cache.pagesHeld(), held - 2 * 3);
        EXPECT_EQ(cache.length(), tokens);

        Matrix after(1, d);
        cache.attend(0, q.data(), 1, tokens - 1, heads, after.data(),
                     nullptr, heads, window);
        test::expectMatricesBitExact(after, before);

        // Appends keep working past the release: the tail page was
        // never freed.
        cache.append(0, k.data(), v.data(), 1);
        EXPECT_EQ(cache.length(), tokens + 1);
    }
}

TEST(FlashAttend, ScratchStaysConstantFrom1kTo64kContext)
{
    // The defining flash property (and the ISSUE's regression gate):
    // per-lane attend scratch at 64k context is no larger than at 1k
    // — O(pageRows · nHeads), independent of context length.
    const size_t d = 64;
    const unsigned heads = 2;
    Matrix q = test::randomMatrix(1, d, 111, 4.0);
    const size_t chunk_rows = 1024;
    Matrix rows = test::randomMatrix(chunk_rows, d, 112, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache cache(1, d, mode);
        Matrix ctx(1, d);
        auto scratch_at = [&](size_t target_len) {
            while (cache.length() < target_len)
                cache.append(0, rows.data(), rows.data(), chunk_rows);
            resetAttendScratchPeak();
            cache.attend(0, q.data(), 1, cache.length() - 1, heads,
                         ctx.data());
            return attendScratchPeakBytes();
        };
        size_t at_1k = scratch_at(1024);
        size_t at_64k = scratch_at(65536);
        EXPECT_GT(at_1k, 0u);
        EXPECT_LE(at_64k, at_1k);
    }
}

TEST(FlashAttendKernels, VectorTiersMatchScalarUnderGrouping)
{
    // Direct kernel parity: page scores (and each head's page max),
    // page value accumulation and exponential weights on every
    // compiled tier vs the scalar tier, at group 1 and 2, a head dim
    // that is not a vector multiple, a row count that is not a
    // multiple of any vector width, and a slab stride wider than the
    // KV row. The stride padding is NaN, so a kernel that reads past
    // a row's KV width poisons its result.
    using namespace detail;
    const unsigned n_heads = 4;
    const size_t n_rows = 13;
    for (size_t hd : {size_t(32), size_t(20)}) {
        for (unsigned group : {1u, 2u}) {
            SCOPED_TRACE("hd=" + std::to_string(hd) +
                         " group=" + std::to_string(group));
            size_t kv_d = (n_heads / group) * hd;
            size_t stride = kv_d + 12;
            Matrix q = test::randomMatrix(1, n_heads * hd, 121, 4.0);
            Matrix kv = test::randomMatrix(n_rows, kv_d, 122, 4.0);
            std::vector<float> rows(
                n_rows * stride,
                std::numeric_limits<float>::quiet_NaN());
            for (size_t r = 0; r < n_rows; ++r)
                std::copy_n(kv.data() + r * kv_d, kv_d,
                            rows.data() + r * stride);
            double inv_sqrt = 1.0 / std::sqrt(double(hd));
            // Scores and weights live in head-major slabs wider than
            // the page, as in the attend's page-row scratch.
            const size_t s_stride = n_rows + 3;
            std::vector<double> w(n_heads * s_stride);
            Rng wrng(124);
            for (auto &x : w)
                x = wrng.uniform();

            std::vector<double> sc_want(n_heads * s_stride, 0.0);
            std::vector<double> max_want(n_heads);
            std::vector<double> acc_want(n_heads * hd, 0.5);
            scorePageScalar(q.data(), rows.data(), stride, n_rows, hd,
                            n_heads, group, inv_sqrt, sc_want.data(),
                            s_stride, max_want.data());
            accumPageScalar(w.data(), s_stride, rows.data(), stride,
                            n_rows, hd, n_heads, group,
                            acc_want.data());
            std::vector<double> s(33);
            Rng rng(123);
            for (auto &x : s)
                x = -30.0 * rng.uniform();
            std::vector<double> exp_want(s.size());
            expWeightsScalar(s.data(), 0.0, s.size(),
                             exp_want.data());

            auto check = [&](const AttendKernels &kern,
                             const char *name) {
                SCOPED_TRACE(name);
                std::vector<double> sc_got(n_heads * s_stride, 0.0);
                std::vector<double> max_got(n_heads);
                std::vector<double> acc_got(n_heads * hd, 0.5);
                std::vector<double> exp_got(s.size());
                kern.scorePage(q.data(), rows.data(), stride, n_rows,
                               hd, n_heads, group, inv_sqrt,
                               sc_got.data(), s_stride,
                               max_got.data());
                kern.accumPage(w.data(), s_stride, rows.data(),
                               stride, n_rows, hd, n_heads, group,
                               acc_got.data());
                kern.expWeights(s.data(), 0.0, s.size(),
                                exp_got.data());
                auto tol = [](double want) {
                    return 1e-9 * std::max(1.0, std::abs(want));
                };
                for (unsigned h = 0; h < n_heads; ++h) {
                    for (size_t r = 0; r < n_rows; ++r) {
                        size_t i = h * s_stride + r;
                        ASSERT_NEAR(sc_got[i], sc_want[i],
                                    tol(sc_want[i]))
                            << "head " << h << " row " << r;
                    }
                    // Columns past the page stay untouched.
                    for (size_t r = n_rows; r < s_stride; ++r)
                        ASSERT_EQ(sc_got[h * s_stride + r], 0.0)
                            << "head " << h << " col " << r;
                    EXPECT_NEAR(max_got[h], max_want[h],
                                tol(max_want[h]))
                        << "head " << h;
                }
                for (size_t i = 0; i < acc_want.size(); ++i)
                    ASSERT_NEAR(acc_got[i], acc_want[i],
                                tol(acc_want[i]))
                        << "elem " << i;
                // The vector tiers run a float polynomial exp
                // against the scalar libm double; the error grows
                // with |s - m| (range-reduction rounding) but stays
                // an order under the 1e-5 packed model tolerance.
                for (size_t i = 0; i < s.size(); ++i)
                    ASSERT_NEAR(exp_got[i], exp_want[i],
                                5e-6 * std::max(1e-12, exp_want[i]))
                        << "elem " << i;
            };
            for (SimdIsa isa : supportedSimdIsas()) {
                if (isa == SimdIsa::Scalar)
                    continue;
                check(attendKernels(isa), simdIsaName(isa));
            }
        }
    }
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
